//! `ahntp-perf`: the repo benchmark.
//!
//! ```text
//! ahntp-perf --workload W --seed N --seconds S --trace 0|1   one run (the BENCHMARK.json command)
//! ahntp-perf run [--trace] [--quick] [--seed N] [--seconds S] [--passes P] [--out FILE]
//! ahntp-perf compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! One run sets a workload up several times, measures it for the given
//! seconds, checks every output against an oracle, and prints as its last
//! stdout line `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `run` drives every workload that way in child processes,
//! several passes round-robin, and writes the medians to a result file
//! `compare` can gate on. See the crate README for the metric glossary.

mod compare;
mod gen;
mod host;
mod http;
mod live;
mod probes;
mod serve;
mod span;
mod stats;
mod suite;
mod train;
mod workload;

use std::process::ExitCode;

use ahntp_telemetry::json::Json;

use workload::{Kind, Opts, Outcome};

const USAGE: &str = "usage:
  ahntp-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
  ahntp-perf run [--trace] [--quick] [--seed <n>] [--seconds <s>] [--passes <p>] [--out <file>]
  ahntp-perf compare <A.json> <B.json> [--benchmark <BENCHMARK.json>]
workloads: train_full train_minibatch serve_score serve_topk serve_sharded serve_live";

/// Command-line flags after the subcommand: `--name value` pairs, bare
/// `--name` switches, and positionals.
pub struct Args {
    flags: Vec<(String, Option<String>)>,
    pub positional: Vec<String>,
}

impl Args {
    /// `switches` lists the flags that take no value.
    pub fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => out.flags.push((name.to_string(), None)),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.push((name.to_string(), Some(value.clone())));
                }
                None => out.positional.push(arg.clone()),
            }
        }
        Ok(out)
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A parsed flag value, or `default` when the flag is absent.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {raw:?}")),
            None => Ok(default),
        }
    }
}

/// The contract's result line.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = Json::obj([("value", m.value.into()), ("unit", m.unit.into())]);
            (m.name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", outcome.correct.into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_line()
}

fn single_run(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &["quick", "corrupt-oracle"])?;
    let name = args.value("workload").ok_or("--workload is required")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = args.parsed("seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let opts = Opts {
        seed: args.parsed("seed", 2024)?,
        seconds,
        trace: match args.value("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        quick: args.has("quick"),
        corrupt: args.has("corrupt-oracle"),
    };
    let outcome = workload::run_one(kind, &opts);
    for error in &outcome.errors {
        eprintln!("ORACLE FAILED [{}]: {error}", kind.name());
    }
    println!(
        "# workload={} seed={} par_threads={}",
        kind.name(),
        opts.seed,
        ahntp_par::threads()
    );
    println!("# fingerprint={:016x}", outcome.fingerprint);
    println!("{}", result_line(&outcome));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("compare") => compare::run(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => single_run(&args),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Metric;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn args_take_values_switches_and_positionals_in_any_order() {
        let args = Args::parse(
            &strings(&["a.json", "--seed", "7", "--quick", "b.json"]),
            &["quick"],
        )
        .unwrap();
        assert_eq!(args.positional, ["a.json", "b.json"]);
        assert!(args.has("quick") && !args.has("trace"));
        assert_eq!(args.parsed("seed", 0u64), Ok(7));
        assert_eq!(args.parsed("seconds", 3.5f64), Ok(3.5));
        assert!(args.parsed::<u64>("seed", 0).is_ok());
        assert!(Args::parse(&strings(&["--seed"]), &[]).is_err());
        let bad = Args::parse(&strings(&["--seed", "x"]), &[]).unwrap();
        assert!(bad.parsed("seed", 0u64).is_err());
    }

    #[test]
    fn result_line_round_trips_with_exactly_the_contract_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "op_us",
                    value: 1203.4567891234,
                    unit: "us",
                },
                Metric {
                    name: "setup_s",
                    value: 0.8127,
                    unit: "s",
                },
            ],
            fingerprint: 1,
            errors: Vec::new(),
        };
        let doc = ahntp_telemetry::json::parse(&result_line(&outcome)).unwrap();
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let p50 = doc.get("metrics").and_then(|m| m.get("op_us")).unwrap();
        // Every digit survives: the driver rejects rounded times.
        assert_eq!(
            p50.get("value").and_then(Json::as_f64),
            Some(1203.4567891234)
        );
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("us"));
    }
}
