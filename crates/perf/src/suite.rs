//! `run`: every workload, several passes round-robin, each workload-pass
//! in its own child process (so `peak_rss_mb` is per workload and no
//! global state leaks between them). Passes are interleaved because the
//! host's speed drifts over tens of seconds: a workload's samples must be
//! spread over the whole suite, not taken from one contiguous window.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use ahntp_telemetry::json::{parse, Json};

use crate::stats::median;
use crate::workload::{output_dir, WORKLOADS};
use crate::Args;

/// One child's parsed result line plus its fingerprint.
struct Pass {
    correct: bool,
    attempted: f64,
    failed: f64,
    fingerprint: String,
    /// `metric -> (value, unit)`.
    metrics: BTreeMap<String, (f64, String)>,
}

fn run_child(workload: &str, forwarded: &[String]) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(forwarded)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let fingerprint = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# fingerprint="))
        .unwrap_or("")
        .to_string();
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let doc = parse(line).map_err(|e| {
        format!(
            "{workload} child ({}) printed no result line: {e}",
            output.status
        )
    })?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(entries)) = doc.get("metrics") {
        for (name, entry) in entries {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = entry
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            metrics.insert(name.clone(), (value, unit));
        }
    }
    Ok(Pass {
        correct: output.status.success() && doc.get("correct") == Some(&Json::Bool(true)),
        attempted: doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
        failed: doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        fingerprint,
        metrics,
    })
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and run identification, printed first and stored in the result.
fn header(seed: u64, passes: usize, seconds: f64, trace: bool, quick: bool) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .into(),
        ),
        ("cpu_model", cpu_model.into()),
        (
            "commit",
            first_line_of("git", &["rev-parse", "--short", "HEAD"]).into(),
        ),
        ("rustc", first_line_of("rustc", &["-V"]).into()),
        // Every child pins the ahntp-par pool to one thread.
        ("par_threads", 1usize.into()),
        ("seed", seed.into()),
        ("passes", passes.into()),
        ("seconds", seconds.into()),
        ("trace", trace.into()),
        ("quick", quick.into()),
    ])
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(args, &["trace", "quick", "corrupt-oracle"])?;
    let (trace, quick) = (args.has("trace"), args.has("quick"));
    let seed: u64 = args.parsed("seed", 2024)?;
    let seconds: f64 = args.parsed("seconds", if quick { 0.3 } else { 5.0 })?;
    let passes: usize = args.parsed("passes", if trace { 1 } else { 3 })?;
    if passes == 0 {
        return Err("--passes must be at least 1".to_string());
    }
    let out: PathBuf = args.value("out").map_or_else(
        || {
            output_dir().join(if trace {
                "result-trace.json"
            } else {
                "result.json"
            })
        },
        PathBuf::from,
    );

    let header = header(seed, passes, seconds, trace, quick);
    println!("# ahntp-perf run: {}", header.to_line());
    let mut forwarded = vec![
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    forwarded.extend(
        ["quick", "corrupt-oracle"]
            .iter()
            .filter(|f| args.has(f))
            .map(|f| format!("--{f}")),
    );

    let mut results: BTreeMap<&str, Vec<Pass>> = BTreeMap::new();
    let mut problems = Vec::new();
    for pass in 0..passes {
        for kind in WORKLOADS {
            eprintln!("# pass {}/{passes}: {}", pass + 1, kind.name());
            match run_child(kind.name(), &forwarded) {
                Ok(result) => results.entry(kind.name()).or_default().push(result),
                Err(problem) => problems.push(problem),
            }
        }
    }

    println!(
        "{:<16} {:<28} {:>6} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "median", "min", "max", "n"
    );
    let mut workloads = BTreeMap::new();
    for kind in WORKLOADS {
        let Some(passes) = results.get(kind.name()) else {
            continue;
        };
        if passes.iter().any(|p| !p.correct) {
            problems.push(format!(
                "{}: an oracle failed or the child exited non-zero",
                kind.name()
            ));
        }
        if passes
            .iter()
            .any(|p| p.fingerprint != passes[0].fingerprint)
        {
            problems.push(format!(
                "{}: fingerprints differ between passes",
                kind.name()
            ));
        }
        let (operation, work) = kind.operation();
        println!("# {}: op = {operation}; work = {work}", kind.name());
        let mut metrics = BTreeMap::new();
        for (name, (_, unit)) in &passes[0].metrics {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.metrics.get(name).map(|m| m.0))
                .collect();
            let mid = median(&values).unwrap_or(f64::NAN);
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            println!(
                "{:<16} {:<28} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>3}",
                kind.name(),
                name,
                unit,
                mid,
                min,
                max,
                values.len()
            );
            metrics.insert(
                name.clone(),
                Json::obj([
                    ("unit", unit.as_str().into()),
                    ("median", mid.into()),
                    ("min", min.into()),
                    ("max", max.into()),
                    ("samples", values.len().into()),
                ]),
            );
        }
        let total = |f: fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>();
        workloads.insert(
            kind.name().to_string(),
            Json::obj([
                ("correct", passes.iter().all(|p| p.correct).into()),
                ("attempted", total(|p| p.attempted).into()),
                ("failed", total(|p| p.failed).into()),
                ("fingerprint", passes[0].fingerprint.as_str().into()),
                ("metrics", Json::Obj(metrics)),
            ]),
        );
    }
    let document = Json::obj([("header", header), ("workloads", Json::Obj(workloads))]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, document.to_line() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("# result written to {}", out.display());
    for problem in &problems {
        eprintln!("FAILED: {problem}");
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
