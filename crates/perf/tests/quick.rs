//! Runs the real binary on tiny sizes: every workload, both trace modes,
//! the suite and the compare gate. No timing assertions. Everything runs
//! in child processes, so process-global telemetry, thread-pool and
//! failpoint state of the test harness is never touched.

use std::path::PathBuf;
use std::process::{Command, Output};

use ahntp_telemetry::json::{parse, Json};

const WORKLOADS: [&str; 6] = [
    "train_full",
    "train_minibatch",
    "serve_score",
    "serve_topk",
    "serve_sharded",
    "serve_live",
];

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ahntp-perf"))
        .args(args)
        // Traces and result files go to the test's own scratch directory.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("start ahntp-perf")
}

fn result_line(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    parse(line).unwrap_or_else(|e| {
        panic!(
            "no result line ({e}); stderr:\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

fn benchmark_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json")
}

fn benchmark_json() -> Json {
    parse(&std::fs::read_to_string(benchmark_path()).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses")
}

/// Metric names and units of one list in the root `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    let Some(Json::Arr(entries)) = doc.get(list) else {
        panic!("no {list} list")
    };
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    entries
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn reported(doc: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no numeric value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics_in_both_modes() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = sorted(declared(list));
        for name in &want {
            assert!(
                name.0
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {:?} leaves [A-Za-z0-9_.-]",
                name.0
            );
        }
        for workload in WORKLOADS {
            let output = perf(&[
                "--workload",
                workload,
                "--seed",
                "5",
                "--seconds",
                "0.3",
                "--trace",
                trace,
                "--quick",
            ]);
            let doc = result_line(&output);
            assert!(
                output.status.success(),
                "{workload} --trace {trace}: {}",
                doc.to_line()
            );
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert!(doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
            assert_eq!(sorted(reported(&doc)), want, "{workload} --trace {trace}");
        }
    }
    // BENCHMARK.json gates every workload but `serve_sharded`, whose
    // numbers depend on the kernel's TIME_WAIT state (see README).
    let declared_workloads: Vec<String> = {
        let doc = benchmark_json();
        let Some(Json::Arr(w)) = doc.get("workloads") else {
            panic!("no workloads")
        };
        w.iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let gated: Vec<&str> = WORKLOADS
        .into_iter()
        .filter(|w| *w != "serve_sharded")
        .collect();
    assert_eq!(declared_workloads, gated);
}

#[test]
fn a_corrupted_expected_value_fails_every_workload() {
    for workload in WORKLOADS {
        let output = perf(&[
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.3",
            "--trace",
            "0",
            "--quick",
            "--corrupt-oracle",
        ]);
        assert!(
            !output.status.success(),
            "{workload} passed with a corrupted oracle"
        );
        assert_eq!(
            result_line(&output).get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
    }
}

#[test]
fn suite_writes_a_result_that_compares_clean_against_itself() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = dir.join("quick-result.json");
    let out_str = out.to_str().expect("utf-8 path");
    let run = perf(&["run", "--quick", "--passes", "2", "--out", out_str]);
    assert!(
        run.status.success(),
        "run --quick failed:\n{}\n{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );
    let doc = parse(&std::fs::read_to_string(&out).expect("result file")).expect("result parses");
    for key in [
        "nproc",
        "cpu_model",
        "commit",
        "rustc",
        "par_threads",
        "seed",
        "passes",
    ] {
        assert!(
            doc.get("header").and_then(|h| h.get(key)).is_some(),
            "header lacks {key}"
        );
    }
    for workload in WORKLOADS {
        let entry = doc
            .get("workloads")
            .and_then(|w| w.get(workload))
            .expect(workload);
        let p50 = entry
            .get("metrics")
            .and_then(|m| m.get("op_us"))
            .expect("op_us");
        assert_eq!(p50.get("samples").and_then(Json::as_f64), Some(2.0));
    }

    let benchmark = benchmark_path();
    let benchmark = benchmark.to_str().expect("utf-8 path");
    // Quick runs are too short to repeat, so the gate is shown on copies
    // with the pass-to-pass spread removed: unchanged passes, and a
    // doubled `op_us` is a regression.
    fn rewrite(j: &mut Json, latency_factor: f64) {
        let Json::Obj(map) = j else { return };
        for (key, value) in map.iter_mut() {
            match value.get("median").and_then(Json::as_f64) {
                Some(median) => {
                    let Json::Obj(fields) = value else {
                        unreachable!("has a median field")
                    };
                    let scaled = median * if key == "op_us" { latency_factor } else { 1.0 };
                    for stat in ["median", "min", "max"] {
                        fields.insert(stat.to_string(), Json::Num(scaled));
                    }
                }
                None => rewrite(value, latency_factor),
            }
        }
    }
    let write = |name: &str, factor: f64| -> String {
        let mut copy = doc.clone();
        rewrite(&mut copy, factor);
        let path = dir.join(name);
        std::fs::write(&path, copy.to_line()).expect("write rewritten result");
        path.to_str().expect("utf-8 path").to_string()
    };
    let (steady, slow) = (
        write("quick-steady.json", 1.0),
        write("quick-slow.json", 2.0),
    );
    let unchanged = perf(&["compare", &steady, &steady, "--benchmark", benchmark]);
    assert!(
        unchanged.status.success(),
        "{}",
        String::from_utf8_lossy(&unchanged.stdout)
    );
    let regressed = perf(&["compare", &steady, &slow, "--benchmark", benchmark]);
    let table = String::from_utf8_lossy(&regressed.stdout);
    assert!(
        !regressed.status.success() && table.contains("REGRESSION"),
        "{table}"
    );
}
