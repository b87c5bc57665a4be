//! `all` runs every workload, end-to-end and traced. `repeat` runs the
//! whole benchmark as two interleaved sets of the same code (A B A B …)
//! and checks that their medians agree within each metric's bound —
//! the test the bounds in `BENCHMARK.json` were derived from.

use std::process::{Command, ExitCode, Stdio};

use jsonmini::Value;

use crate::inputs::Workload;
use crate::metrics::END_TO_END;
use crate::run::out_dir;
use crate::stats::{median, spread};
use crate::Args;

/// End-to-end metrics that must be bit-identical in every run of one
/// workload and seed (timings and memory are not).
const EXACT: [&str; 4] = [
    "allocs_per_package",
    "alloc_mb_per_package",
    "detect_recall",
    "detect_precision",
];

fn child(workload: Workload, args: &Args, trace: bool) -> Command {
    let mut command = Command::new(std::env::current_exe().expect("own executable"));
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    command
}

pub fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let status = child(workload, args, trace).status().expect("child runs");
            ok &= status.success();
            println!();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One end-to-end run in a child process; its metrics by name.
fn measure(workload: Workload, args: &Args) -> Result<Vec<(String, f64)>, String> {
    let output = child(workload, args, false)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{} failed:\n{stdout}", workload.name()));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let result = jsonmini::parse(line).map_err(|e| format!("{}: {e}", workload.name()))?;
    if result["correct"] != true {
        return Err(format!("{} reported incorrect outputs", workload.name()));
    }
    END_TO_END
        .iter()
        .map(|m| {
            result["metrics"][m.name]["value"]
                .as_f64()
                .map(|v| (m.name.to_owned(), v))
                .ok_or_else(|| format!("{}: no {}", workload.name(), m.name))
        })
        .collect()
}

/// `|median_A − median_B| / median_A`.
pub fn gap(a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (median(a), median(b));
    (ma - mb).abs() / ma
}

pub fn repeat(args: &Args) -> ExitCode {
    let runs = args.runs.max(5);
    // samples[workload][set][metric] -> values
    let mut samples: Vec<[Vec<Vec<f64>>; 2]> = Workload::ALL
        .iter()
        .map(|_| {
            [
                vec![Vec::new(); END_TO_END.len()],
                vec![Vec::new(); END_TO_END.len()],
            ]
        })
        .collect();
    for run in 0..runs {
        for set in 0..2 {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                eprintln!(
                    "repeat: run {}/{runs} set {} {}",
                    run + 1,
                    ["A", "B"][set],
                    workload.name()
                );
                match measure(workload, args) {
                    Ok(values) => {
                        for (m, (_, value)) in values.into_iter().enumerate() {
                            samples[w][set][m].push(value);
                        }
                    }
                    Err(message) => {
                        println!("{message}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    let mut breaches = 0;
    let mut report = Vec::new();
    println!(
        "{:<15} {:<22} {:>14} {:>14} {:>8} {:>7} {:>9} {:>9}",
        "workload", "metric", "median A", "median B", "gap", "bound", "spread A", "spread B"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        // `scan_all` sizes its pool from the machine: its allocation
        // counts repeat exactly only with one hardware thread.
        let pooled = workload == Workload::PaperPipeline
            && std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&samples[w][0][m], &samples[w][1][m]);
            let gap = gap(a, b);
            let exact =
                EXACT.contains(&metric.name) && !(pooled && metric.name.starts_with("alloc"));
            let differs = exact && a.iter().chain(b).any(|v| v.to_bits() != a[0].to_bits());
            let breach = gap > metric.bound || differs;
            breaches += usize::from(breach);
            println!(
                "{:<15} {:<22} {:>14.5} {:>14.5} {:>7.2}% {:>6.1}% {:>8.2}% {:>8.2}% {}{}",
                workload.name(),
                metric.name,
                median(a),
                median(b),
                100.0 * gap,
                100.0 * metric.bound,
                100.0 * spread(a),
                100.0 * spread(b),
                if breach { "BREACH" } else { "ok" },
                if differs { " DIFFERS BETWEEN RUNS" } else { "" },
            );
            let mut row = Value::object();
            row.insert("workload", workload.name());
            row.insert("metric", metric.name);
            row.insert("median_a", median(a));
            row.insert("median_b", median(b));
            row.insert("gap", gap);
            row.insert("spread_a", spread(a));
            row.insert("spread_b", spread(b));
            row.insert("bound", metric.bound);
            row.insert("exact", exact && !differs);
            row.insert("a", a.as_slice());
            row.insert("b", b.as_slice());
            report.push(row);
        }
    }
    let mut document = Value::object();
    document.insert("runs_per_set", runs);
    document.insert("seconds", args.seconds as usize);
    document.insert("seed", args.seed as usize);
    document.insert("breaches", breaches);
    document.insert("rows", report);
    let path = out_dir().join("repeat.json");
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, document.to_string_pretty()));
    match written {
        Ok(()) => println!("written to {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
    if breaches == 0 {
        println!("repeat: every A/A gap is within its bound");
        ExitCode::SUCCESS
    } else {
        println!("repeat: {breaches} breaches");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_relative_to_the_first_sets_median() {
        let a = [10.0, 12.0, 11.0, 9.0, 10.0];
        let b = [11.0, 11.0, 12.0, 10.0, 11.5];
        assert!((gap(&a, &b) - 0.1).abs() < 1e-12);
        assert_eq!(gap(&a, &a), 0.0);
    }
}
