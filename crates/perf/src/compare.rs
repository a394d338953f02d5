//! `compare A.json B.json`: one row per (workload, metric) of two `run`
//! results, gated on the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::process::ExitCode;

use ahntp_telemetry::json::{parse, Json};

use crate::Args;

/// What `BENCHMARK.json` says about one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rule {
    lower_is_better: bool,
    /// `None` for per-layer metrics: reported, never gated.
    bound: Option<f64>,
}

/// One side's summary of a metric over its passes.
#[derive(Debug, Clone, Copy)]
struct Summary {
    median: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Pass-to-pass spread as a share of the median.
    fn spread(&self) -> f64 {
        (self.max - self.min) / self.median.abs()
    }
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    /// The runs' own spread exceeds the bound: neither unchanged nor
    /// regressed can be claimed.
    Unresolved,
    Regression,
    Ungated,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better).
fn worsening(rule: Rule, a: f64, b: f64) -> f64 {
    if rule.lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

fn judge(rule: Rule, a: Summary, b: Summary) -> Verdict {
    let Some(bound) = rule.bound else {
        return Verdict::Ungated;
    };
    if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worsening(rule, a.median, b.median) > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn rules(benchmark: &Json) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        let Some(Json::Arr(entries)) = benchmark.get(list) else {
            continue;
        };
        for entry in entries {
            let Some(name) = entry.get("name").and_then(Json::as_str) else {
                continue;
            };
            out.insert(
                name.to_string(),
                Rule {
                    lower_is_better: entry.get("better").and_then(Json::as_str) != Some("higher"),
                    bound: entry.get("bound").and_then(Json::as_f64),
                },
            );
        }
    }
    out
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn summary(metric: &Json) -> Option<Summary> {
    let field = |name: &str| metric.get(name).and_then(Json::as_f64);
    Some(Summary {
        median: field("median")?,
        min: field("min")?,
        max: field("max")?,
    })
}

fn fail_ratio(workload: &Json) -> f64 {
    let field = |name: &str| workload.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    field("failed") / field("attempted").max(1.0)
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &[])?;
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let rules = rules(&load(args.value("benchmark").unwrap_or("BENCHMARK.json"))?);
    let (Some(Json::Obj(a_workloads)), Some(Json::Obj(b_workloads))) =
        (a.get("workloads"), b.get("workloads"))
    else {
        return Err("both files must be `run` results".to_string());
    };

    println!("# A = {a_path}\n# B = {b_path}");
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>12} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    let mut failures = 0usize;
    for (workload, a_entry) in a_workloads {
        let Some(b_entry) = b_workloads.get(workload) else {
            println!("{workload:<16} missing from B");
            failures += 1;
            continue;
        };
        let (fail_a, fail_b) = (fail_ratio(a_entry), fail_ratio(b_entry));
        if fail_b > fail_a {
            println!("{workload:<16} fail ratio rose: {fail_a:.6} -> {fail_b:.6}  REGRESSION");
            failures += 1;
        }
        let (Some(Json::Obj(a_metrics)), Some(Json::Obj(b_metrics))) =
            (a_entry.get("metrics"), b_entry.get("metrics"))
        else {
            continue;
        };
        for (name, a_metric) in a_metrics {
            let (Some(a_sum), Some(b_sum)) =
                (summary(a_metric), b_metrics.get(name).and_then(summary))
            else {
                println!("{workload:<16} {name:<28} missing from B");
                failures += 1;
                continue;
            };
            let rule = rules.get(name).copied().unwrap_or(Rule {
                lower_is_better: true,
                bound: None,
            });
            let verdict = judge(rule, a_sum, b_sum);
            let bound = rule.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            println!(
                "{workload:<16} {name:<28} {:>14.4} {:>14.4} {:>10.4}xA {bound:>6}  {}",
                a_sum.median,
                b_sum.median,
                b_sum.median / a_sum.median,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Ungated => "-",
                }
            );
            failures += usize::from(verdict == Verdict::Regression);
        }
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Summary {
        Summary {
            median: v,
            min: v * 0.99,
            max: v * 1.01,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let latency = Rule {
            lower_is_better: true,
            bound: Some(0.10),
        };
        let rate = Rule {
            lower_is_better: false,
            bound: Some(0.10),
        };
        assert_eq!(judge(latency, flat(100.0), flat(109.0)), Verdict::Ok);
        assert_eq!(
            judge(latency, flat(100.0), flat(112.0)),
            Verdict::Regression
        );
        assert_eq!(judge(latency, flat(100.0), flat(50.0)), Verdict::Ok);
        assert_eq!(judge(rate, flat(100.0), flat(112.0)), Verdict::Ok);
        assert_eq!(judge(rate, flat(100.0), flat(88.0)), Verdict::Regression);
        let layer = Rule {
            lower_is_better: true,
            bound: None,
        };
        assert_eq!(judge(layer, flat(1.0), flat(9.0)), Verdict::Ungated);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_a_verdict() {
        let rule = Rule {
            lower_is_better: true,
            bound: Some(0.10),
        };
        let noisy = Summary {
            median: 100.0,
            min: 90.0,
            max: 105.0,
        };
        assert_eq!(judge(rule, noisy, flat(130.0)), Verdict::Unresolved);
        assert_eq!(judge(rule, flat(100.0), noisy), Verdict::Unresolved);
    }

    #[test]
    fn rules_come_from_benchmark_json() {
        let doc = parse(
            r#"{"end_to_end":[{"name":"op_us","unit":"us","better":"lower","bound":0.2},
                              {"name":"work_per_s","unit":"1/s","better":"higher","bound":0.2}],
                "per_layer":[{"name":"tensor.matmul_us","unit":"us","better":"lower"}]}"#,
        )
        .unwrap();
        let rules = rules(&doc);
        assert_eq!(
            rules["op_us"],
            Rule {
                lower_is_better: true,
                bound: Some(0.2)
            }
        );
        assert_eq!(
            rules["work_per_s"],
            Rule {
                lower_is_better: false,
                bound: Some(0.2)
            }
        );
        assert_eq!(
            rules["tensor.matmul_us"],
            Rule {
                lower_is_better: true,
                bound: None
            }
        );
    }
}
