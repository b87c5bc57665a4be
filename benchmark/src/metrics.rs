//! The metric catalogue — the one declaration `BENCHMARK.json`, the
//! printed tables and the result line are all checked against — and
//! the result line itself.

use jsonmini::Value;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these with `--trace 0`.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "packages_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_package",
        unit: "count",
        better: "lower",
        bound: 0.06,
    },
    EndToEnd {
        name: "alloc_mb_per_package",
        unit: "MiB",
        better: "lower",
        bound: 0.06,
    },
    EndToEnd {
        name: "detect_recall",
        unit: "ratio",
        better: "higher",
        bound: 0.02,
    },
    EndToEnd {
        name: "detect_precision",
        unit: "ratio",
        better: "higher",
        bound: 0.02,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Every workload reports every one of these with `--trace 1`; a layer
/// the workload does not exercise reads 0.
pub const PER_LAYER: [Layer; 58] = [
    layer("hub.submit_wait_ns_p50", "ns", "lower"),
    layer("hub.overhead_share", "ratio", "lower"),
    layer("hub.cache_hit_share", "ratio", "higher"),
    layer("hub.artifact_hit_share", "ratio", "higher"),
    layer("hub.splice_share", "ratio", "higher"),
    layer("hub.splice_fallback_share", "ratio", "lower"),
    layer("hub.prefilter_skip_share", "ratio", "higher"),
    layer("cache.verdict_hit_ns_p50", "ns", "lower"),
    layer("artifact.build_ns_per_file", "ns", "lower"),
    layer("artifact.build_mb_per_s", "MB/s", "higher"),
    layer("pysrc.lex_mb_per_s", "MB/s", "higher"),
    layer("pysrc.parse_mb_per_s", "MB/s", "higher"),
    layer("pysrc.intern_ns_per_file", "ns", "lower"),
    layer("dataflow.analyze_ns_per_file", "ns", "lower"),
    layer("yara.collect_hits_mb_per_s", "MB/s", "higher"),
    layer("digest.sha256_mb_per_s", "MB/s", "higher"),
    layer("artifact.layers_decoded", "count", "lower"),
    layer("artifact.bytes_resident_mb", "MiB", "lower"),
    layer("artifact.splice_ns_per_file", "ns", "lower"),
    layer("prefilter.route_ns_per_package", "ns", "lower"),
    layer("yara.eval_hits_ns_per_package", "ns", "lower"),
    layer("semgrep.walk_ns_per_file", "ns", "lower"),
    layer("semgrep.stmts_visited", "count", "lower"),
    layer("textmatch.dfa_scans", "count", "lower"),
    layer("textmatch.pikevm_fallbacks", "count", "lower"),
    layer("textmatch.teddy_verify_share", "ratio", "lower"),
    layer("retro.deploy_rules_ms", "ms", "lower"),
    layer("retro.hunt_ms", "ms", "lower"),
    layer("retro.candidates_per_hunt", "count", "lower"),
    layer("retro.confirm_scans_per_hunt", "count", "lower"),
    layer("retro.candidate_precision", "ratio", "higher"),
    layer("prefilter.build_ms", "ms", "lower"),
    layer("prefilter.diff_ms", "ms", "lower"),
    layer("deploy_p50_ms", "ms", "lower"),
    layer("corpus.generate_ms", "ms", "lower"),
    layer("obfuscate.mutate_ms_per_package", "ms", "lower"),
    layer("registry.unpack_mb_per_s", "MB/s", "higher"),
    layer("rulellm.extract_s", "s", "lower"),
    layer("embedding.embed_ms_per_package", "ms", "lower"),
    layer("cluster.fit_ms", "ms", "lower"),
    layer("rulellm.generate_s", "s", "lower"),
    layer("llmsim.complete_us_p50", "us", "lower"),
    layer("rulellm.rules_aligned", "count", "higher"),
    layer("rulellm.rules_dropped", "count", "lower"),
    layer("rulellm.fix_attempts", "count", "lower"),
    layer("yara.compile_ms", "ms", "lower"),
    layer("semgrep.compile_ms", "ms", "lower"),
    layer("eval.scan_all_s", "s", "lower"),
    layer("eval.metrics_ms", "ms", "lower"),
    layer("pipeline_s", "s", "lower"),
    layer("pipeline.rulellm_s", "s", "lower"),
    layer("pipeline.compile_ms", "ms", "lower"),
    layer("hub.requests", "count", "higher"),
    layer("hub.files_built", "count", "lower"),
    layer("hub.files_spliced", "count", "higher"),
    layer("hub.shadow_mirror_ok", "ratio", "higher"),
    layer("trace_overhead_share", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    fn check_known(&self, known: &[&'static str]) {
        for (name, _) in &self.0 {
            assert!(
                known.contains(name),
                "metric {name} is not in the catalogue"
            );
        }
    }
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub traced: bool,
    pub values: Values,
}

impl Outcome {
    /// `(name, unit, value)` for the run's metric set, in catalogue
    /// order. Every end-to-end metric must have been measured; a layer
    /// the workload does not exercise reads 0.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.traced {
            let names: Vec<&'static str> = PER_LAYER.iter().map(|l| l.name).collect();
            self.values.check_known(&names);
            PER_LAYER
                .iter()
                .map(|l| (l.name, l.unit, self.values.get(l.name).unwrap_or(0.0)))
                .collect()
        } else {
            let names: Vec<&'static str> = END_TO_END.iter().map(|m| m.name).collect();
            self.values.check_known(&names);
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .values
                        .get(m.name)
                        .unwrap_or_else(|| panic!("{} was not measured", m.name));
                    (m.name, m.unit, value)
                })
                .collect()
        }
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::object();
        for (name, unit, value) in self.rows() {
            let mut entry = Value::object();
            entry.insert("value", value);
            entry.insert("unit", unit);
            metrics.insert(name, entry);
        }
        let mut line = Value::object();
        line.insert("correct", self.correct);
        line.insert("attempted", self.attempted);
        line.insert("failed", self.failed);
        line.insert("metrics", metrics);
        line.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        jsonmini::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_declares_exactly_this_catalogue() {
        let json = benchmark_json();
        let declared = json["end_to_end"].as_array().expect("end_to_end");
        assert_eq!(declared.len(), END_TO_END.len());
        for (d, m) in declared.iter().zip(&END_TO_END) {
            assert_eq!(d["name"], m.name);
            assert_eq!(d["unit"], m.unit);
            assert_eq!(d["better"], m.better);
            assert_eq!(d["bound"], m.bound);
            assert!(m.bound <= 0.25);
        }
        let declared = json["per_layer"].as_array().expect("per_layer");
        assert_eq!(declared.len(), PER_LAYER.len());
        for (d, l) in declared.iter().zip(&PER_LAYER) {
            assert_eq!(d["name"], l.name);
            assert_eq!(d["unit"], l.unit);
            assert_eq!(d["better"], l.better);
        }
        let workloads: Vec<&str> = json["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        let ours: Vec<&str> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|l| l.name))
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = Values::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            values.set(m.name, 1.5 + i as f64);
        }
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            traced: false,
            values,
        };
        let line = outcome.result_line();
        assert!(!line.contains('\n'));
        let parsed = jsonmini::parse(&line).expect("result line parses");
        assert_eq!(parsed["correct"], true);
        assert_eq!(parsed["attempted"], 10.0);
        assert_eq!(parsed["failed"], 0.0);
        assert_eq!(parsed["metrics"]["setup_s"]["value"], 1.5);
        assert_eq!(parsed["metrics"]["setup_s"]["unit"], "s");
        let Value::Object(top) = &parsed else {
            panic!("object")
        };
        assert_eq!(top.len(), 4);
        let Value::Object(metrics) = &parsed["metrics"] else {
            panic!("object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn a_traced_outcome_reports_unexercised_layers_as_zero() {
        let mut values = Values::default();
        values.set("hub.requests", 200.0);
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            traced: true,
            values,
        };
        let rows = outcome.rows();
        assert_eq!(rows.len(), PER_LAYER.len());
        assert!(rows.contains(&("hub.requests", "count", 200.0)));
        assert!(rows.contains(&("retro.hunt_ms", "ms", 0.0)));
    }
}
