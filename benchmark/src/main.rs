//! The repo benchmark. One command, four workloads:
//!
//! ```text
//! repo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! repo-benchmark all    [--seed <n>] [--seconds <s>]
//! repo-benchmark repeat [--runs <n>] [--seconds <s>]
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric means.

mod alloc;
mod inputs;
mod metrics;
mod pipeline;
mod repeat;
mod rulegen;
mod run;
mod serving;
mod shadow;
mod stats;
mod trace;

use std::process::ExitCode;

use inputs::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// How long one run measures unless `--seconds` says otherwise; the
/// value `BENCHMARK.json` passes.
pub const RUN_SECONDS: u64 = 20;

const USAGE: &str = "usage:
  repo-benchmark --workload <cold_ingest|version_bumps|rule_deploy|paper_pipeline>
                 [--seed <n>] [--seconds <s>] [--trace <0|1>]
  repo-benchmark all    [--seed <n>] [--seconds <s>]
  repo-benchmark repeat [--runs <n>] [--seconds <s>]";

pub struct Args {
    pub command: Option<String>,
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => {
                parsed.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "all" | "repeat" if parsed.command.is_none() => parsed.command = Some(arg.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), args.workload) {
        (Some("all"), _) => repeat::all(&args),
        (Some("repeat"), _) => repeat::repeat(&args),
        (None, Some(workload)) => {
            let outcome = run::run(workload, args.seed, args.seconds, args.trace);
            run::print(workload, &outcome);
            // The result line is the last line of standard output.
            println!("{}", outcome.result_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_the_driver_invocation() {
        let args = parse("--workload rule_deploy --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::RuleDeploy));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 20, true));
        assert!(args.command.is_none());
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus 1").is_err());
        assert_eq!(parse("repeat --runs 6").unwrap().runs, 6);
    }
}
