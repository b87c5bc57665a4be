//! Rule generation as the serving workloads' set-up uses it, and the
//! outside-in breakdown of `rulellm` that a traced run records.

use cluster::KMeans;
use embedding::Embedder;
use llm_sim::{LlmSim, Prompt, RuleFormat};
use oss_registry::Package;
use rulellm::{align_rule, Pipeline, PipelineConfig, PipelineOutput};
use semgrep_engine::CompiledSemgrepRules;

use crate::inputs::Bundle;
use crate::trace::Tracer;

/// Compiles a pipeline output, one span per engine. Same result as
/// `eval::experiments::compile_output`, split so each compiler is
/// timed on its own.
pub fn compile(output: &PipelineOutput, tracer: &mut Tracer, parent: Option<u32>) -> Bundle {
    let yara = tracer.time("yara.compile", parent, 0, || {
        yara_engine::compile(&output.yara_ruleset()).expect("aligned YARA ruleset compiles")
    });
    let semgrep = tracer.time("semgrep.compile", parent, 0, || {
        let mut rules = Vec::new();
        for rule in &output.semgrep {
            let compiled =
                semgrep_engine::compile(&rule.text).expect("aligned Semgrep rule compiles");
            rules.extend(compiled.rules);
        }
        CompiledSemgrepRules { rules }
    });
    Bundle { yara, semgrep }
}

/// One RuleLLM run over `packages`, compiled.
pub fn generate(
    packages: &[&Package],
    tracer: &mut Tracer,
    parent: Option<u32>,
) -> (PipelineOutput, Bundle) {
    let output = tracer.time("rulellm.run", parent, 0, || {
        Pipeline::new(PipelineConfig::full()).run(packages)
    });
    let bundle = compile(&output, tracer, parent);
    (output, bundle)
}

/// Times the layers below `Pipeline::run` on the same packages through
/// their public functions: knowledge extraction, per-package embedding,
/// the k-means fit, LLM completions and rule alignment. A shadow — the
/// real run is the `rulellm.run` span.
pub fn shadow(packages: &[&Package], tracer: &mut Tracer, parent: Option<u32>) {
    let config = PipelineConfig::full();
    let root = tracer.open("rulellm.shadow", parent, 0);
    let knowledge = tracer.time("rulellm.extract", Some(root), 0, || {
        rulellm::extract_knowledge(packages, config.cluster_k)
    });
    // A whole run right next to the extraction it contains, so that
    // generation time (run − extract) is a difference of two readings
    // taken under the same conditions.
    tracer.time("rulellm.run_again", Some(root), 0, || {
        std::hint::black_box(Pipeline::new(PipelineConfig::full()).run(packages))
    });

    let embedder = Embedder::default();
    let embed_root = tracer.open("embedding.shadow", Some(root), 0);
    let vectors: Vec<Vec<f32>> = knowledge
        .packages
        .iter()
        .map(|e| {
            let suspicious: String = e
                .units
                .iter()
                .zip(&e.unit_scores)
                .filter(|(_, &score)| score > 0)
                .map(|(unit, _)| unit.code.as_str())
                .collect();
            let text = if suspicious.is_empty() {
                &e.code
            } else {
                &suspicious
            };
            tracer
                .time("embedding.embed_source", Some(embed_root), 0, || {
                    embedder.embed_source(text)
                })
                .mean
        })
        .collect();
    tracer.close(embed_root);

    if !vectors.is_empty() {
        let k = config.cluster_k.unwrap_or((vectors.len() / 4).max(1));
        tracer.time("cluster.fit", Some(root), 0, || {
            std::hint::black_box(KMeans::new(k).fit(&vectors).expect("k-means fit"))
        });
    }

    // One craft + align round per retained group and format, over the
    // group's first members' most suspicious unit.
    let mut llm = LlmSim::new(config.model.clone(), config.seed);
    let llm_root = tracer.open("llmsim.shadow", Some(root), 0);
    for group in &knowledge.groups {
        let inputs: Vec<String> = group
            .iter()
            .take(config.units_per_prompt)
            .filter_map(|&m| {
                let e = &knowledge.packages[m];
                e.ranked_units().first().map(|&u| e.units[u].code.clone())
            })
            .collect();
        if inputs.is_empty() {
            continue;
        }
        for format in [RuleFormat::Yara, RuleFormat::Semgrep] {
            let prompt = Prompt::craft(format, &inputs, None);
            let reply = tracer.time("llmsim.complete", Some(llm_root), 0, || {
                llm.complete(&prompt)
            });
            let (analysis, rule) = llm_sim::split_reply(&reply);
            tracer.time("rulellm.align_rule", Some(llm_root), 0, || {
                std::hint::black_box(align_rule(
                    &mut llm,
                    format,
                    &analysis,
                    rule,
                    config.max_fix_attempts,
                ))
            });
        }
    }
    tracer.close(llm_root);
    tracer.close(root);
}
