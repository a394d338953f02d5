//! Trace/profile smoke suite — the CI trace step.
//!
//! Two end-to-end scenarios, each under an execution context of its own
//! (`ahntp_par::Context::fresh`), so they run side by side and each sees
//! exactly the events, profile and counters of its own run:
//!
//! 1. **Training**: a short AHNTP run with collection + profiling on and
//!    an armed `train.epoch` delay failpoint. The emitted Chrome trace
//!    must round-trip through `ahntp_telemetry::json::parse` with
//!    well-formed `ph`/`ts`/`dur`/`tid` fields and strictly nested spans
//!    per thread lane, the faultz trigger must appear as an instant
//!    event, and the run ledger's per-kernel epoch profiles must sum to
//!    ≤ each epoch's wall-clock.
//! 2. **Serving**: a loadgen run against a live server. Every response
//!    carries an `X-Ahntp-Trace-Id` header (printed for the CI grep),
//!    the debug ring and Prometheus endpoints answer, and the collected
//!    trace nests each request's parse/queue.wait/score stages under the
//!    request's own trace-id lane.
//!
//! When `AHNTP_TRACE_OUT` is set (as in CI), each scenario flushes the
//! trace it collected to that file on its way out (the later one wins).

use ahntp::{Ahntp, AhntpConfig};
use ahntp_bench::loadgen::{run_load, LoadConfig};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_eval::{train_and_evaluate_observed, LedgerObserver, TrustModel};
use ahntp_faultz::{self as faultz, Action, FaultSpec};
use ahntp_par::Context;
use ahntp_serve::client::{Client, Response};
use ahntp_serve::{serve, ServeConfig, TrustIndex};
use ahntp_telemetry::json::{parse, Json};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ahntp-trace-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parses a rendered Chrome trace and validates every event's shape;
/// returns the event list.
fn parse_trace(text: &str) -> Vec<Json> {
    let doc = parse(text).expect("trace JSON parses");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array in {text:.200}");
    };
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has ph");
        assert!(matches!(ph, "X" | "i"), "unexpected phase {ph}");
        for field in ["ts", "pid", "tid"] {
            let v = ev.get(field).and_then(Json::as_f64);
            assert!(
                v.is_some_and(|v| v >= 0.0),
                "event lacks numeric {field}: {}",
                ev.to_line()
            );
        }
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        if ph == "X" {
            assert!(
                ev.get("dur").and_then(Json::as_f64).is_some(),
                "complete event lacks dur: {}",
                ev.to_line()
            );
        }
    }
    events.clone()
}

/// Asserts the `X` events of each (pid, tid) lane nest strictly: sorted
/// by start time, every span either starts after the enclosing span ends
/// or lies entirely within it.
fn assert_strict_nesting(events: &[Json]) {
    use std::collections::BTreeMap;
    let mut lanes: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let pid = ev.get("pid").and_then(Json::as_f64).unwrap() as u64;
        let tid = ev.get("tid").and_then(Json::as_f64).unwrap() as u64;
        let ts = ev.get("ts").and_then(Json::as_f64).unwrap() as u64;
        let dur = ev.get("dur").and_then(Json::as_f64).unwrap() as u64;
        lanes.entry((pid, tid)).or_default().push((ts, ts + dur));
    }
    for ((pid, tid), mut spans) in lanes {
        // Children are emitted before (or at the same µs as) parents;
        // sort by start ascending, end descending so parents come first.
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new();
        for (start, end) in spans {
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_start, top_end)) = stack.last() {
                assert!(
                    start >= top_start && end <= top_end,
                    "span [{start},{end}] overlaps [{top_start},{top_end}] on lane ({pid},{tid})"
                );
            }
            stack.push((start, end));
        }
    }
}

#[test]
fn training_trace_profile_and_ledger_agree() {
    Context::fresh().run(training_scenario);
}

fn training_scenario() {
    ahntp_telemetry::set_enabled(true);
    ahntp_telemetry::set_trace_collect(true);
    ahntp_telemetry::set_profiling(true);
    // A delayed (not failed) epoch failpoint: training proceeds, but the
    // trigger must land in the trace as an instant event.
    let _fault = faultz::scoped("train.epoch", FaultSpec::new(Action::Delay(1)).on_nth(2));

    let dataset = TrustDataset::generate(&DatasetConfig::ciao_like(60, 7));
    let split = dataset.split(0.8, 0.2, 2, 42);
    let mut model = Ahntp::new(
        &dataset.features,
        &dataset.attributes,
        &split.train_graph,
        &AhntpConfig {
            conv_dims: vec![16, 8],
            tower_dims: vec![8],
            seed: 7,
            ..AhntpConfig::default()
        },
    );
    let dir = temp_dir("train");
    let mut observer = LedgerObserver::in_dir(&dir);
    let cfg = ahntp_eval::TrainConfig {
        epochs: 3,
        patience: 0,
        min_improvement: 1e-4,
        threshold: 0.5,
    };
    train_and_evaluate_observed(&mut model, &split.train, &split.test, &cfg, &mut observer);

    // The Chrome trace round-trips through our own JSON parser.
    let rendered = ahntp_telemetry::chrome_trace_json().to_line();
    let events = parse_trace(&rendered);
    assert!(
        events.len() > 20,
        "a 3-epoch training run must emit kernel spans, got {}",
        events.len()
    );
    assert_strict_nesting(&events);

    // Kernel families show up by name.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for want in [
        "tensor.matmul",
        "csr.mul_dense",
        "nn.adaptive_hconv.forward",
    ] {
        assert!(names.contains(&want), "no {want} span in the trace");
    }
    // The armed failpoint appears as an instant event: the nth(2) gate
    // fired once, and no other run's triggers are in this trace.
    let instants: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
        .map(|e| {
            (
                e.get("cat").and_then(Json::as_str),
                e.get("name").and_then(Json::as_str),
            )
        })
        .collect();
    assert_eq!(instants, [(Some("faultz"), Some("train.epoch"))]);
    assert_eq!(ahntp_telemetry::counter_get("faultz.triggered"), 1);

    // Ledger: every epoch record carries a profile summing to ≤ wall_us.
    // (`on_finish` consumed the observer's handle, so locate the file.)
    let ledger_path = std::fs::read_dir(&dir)
        .expect("ledger dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .expect("ledger file written");
    let text = std::fs::read_to_string(&ledger_path).unwrap();
    let mut epochs_seen = 0;
    for line in text.lines() {
        let record = parse(line).expect("ledger line parses");
        if record.get("kind").and_then(Json::as_str) != Some("epoch") {
            continue;
        }
        epochs_seen += 1;
        let wall_us = record.get("wall_us").and_then(Json::as_f64).unwrap();
        let Some(Json::Obj(profile)) = record.get("profile") else {
            panic!("epoch record lacks a profile: {line}");
        };
        let total: f64 = profile.values().filter_map(Json::as_f64).sum();
        assert!(
            total <= wall_us,
            "per-kernel µs must telescope under the wall-clock: {total} > {wall_us}"
        );
        assert!(total > 0.0, "profile attributed nothing: {line}");
    }
    assert_eq!(epochs_seen, 3);

    ahntp_telemetry::flush_trace_to_env();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_trace_ids_propagate_and_debug_endpoints_answer() {
    Context::fresh().run(serving_scenario);
}

fn serving_scenario() {
    ahntp_telemetry::set_enabled(true);
    ahntp_telemetry::set_trace_collect(true);

    // A tiny trained model end to end, as in serve_smoke.
    let dataset = TrustDataset::generate(&DatasetConfig::ciao_like(64, 13));
    let split = dataset.split(0.8, 0.2, 2, 42);
    let mut model = Ahntp::new(
        &dataset.features,
        &dataset.attributes,
        &split.train_graph,
        &AhntpConfig {
            conv_dims: vec![16, 8],
            tower_dims: vec![8],
            seed: 13,
            ..AhntpConfig::default()
        },
    );
    for _ in 0..3 {
        model.train_epoch(&split.train);
    }
    let index = TrustIndex::load(&model.export_artifact().encode_v2()).unwrap();
    let server = serve(
        index,
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();

    let report = run_load(
        addr,
        &LoadConfig {
            connections: 2,
            requests_per_connection: 25,
            pairs_per_request: 4,
            n_users: 64,
        },
    );
    assert_eq!(report.failed, 0, "{}", report.summary());
    let trace_id = report
        .sample_trace_id
        .as_deref()
        .expect("responses carry a trace id");
    assert_eq!(trace_id.len(), 16, "{trace_id}");
    assert!(
        trace_id.chars().all(|c| c.is_ascii_hexdigit()),
        "{trace_id}"
    );
    // CI greps this exact header name out of the --nocapture output.
    println!("X-Ahntp-Trace-Id: {trace_id}");

    // The server-side p99 (log-spaced sketch) never over-reports the
    // loadgen's exact client-side p99 by more than one bucket width.
    let mut conn = Client::connect(addr, std::time::Duration::from_secs(10)).unwrap();
    let Response { status, body, .. } = conn.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let metrics = parse(&body).unwrap();
    let server_p99 = metrics
        .get("serve.request.us")
        .and_then(|h| h.get("p99"))
        .and_then(Json::as_f64)
        .expect("serve.request.us histogram in /metrics");
    let budget = report.p99_us + ahntp_telemetry::histogram_bucket_width(report.p99_us);
    assert!(
        server_p99 > 0.0 && server_p99 as u64 <= budget,
        "server p99 {server_p99}µs vs loadgen exact p99 {}µs (+1 bucket = {budget}µs)",
        report.p99_us
    );

    // The debug ring remembers the scored requests with their stages.
    let Response { status, body, .. } = conn.get("/debug/traces").unwrap();
    assert_eq!(status, 200);
    let doc = parse(&body).unwrap();
    let Some(Json::Arr(traces)) = doc.get("traces") else {
        panic!("no traces in {body}");
    };
    let with_stages = traces
        .iter()
        .filter(|t| t.get("path").and_then(Json::as_str) == Some("/score"))
        .filter(|t| matches!(t.get("stages"), Some(Json::Arr(s)) if s.len() >= 3))
        .count();
    assert!(
        with_stages > 0,
        "no staged /score entries in the ring: {body}"
    );

    // Prometheus exposition answers with the serve metrics.
    let Response { status, body, .. } = conn.get("/metrics?format=prometheus").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("# TYPE serve_request_us summary"), "{body}");
    assert!(body.contains("serve_http_requests"), "{body}");

    server.shutdown();

    // The collected trace: request lanes (pid 2) keyed by trace id, each
    // serve.request span nesting its parse/queue.wait/score stages.
    let dir = temp_dir("serve");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    ahntp_telemetry::write_chrome_trace(&trace_path).unwrap();
    let events = parse_trace(&std::fs::read_to_string(&trace_path).unwrap());
    assert_strict_nesting(&events);
    let request_lanes: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_f64) == Some(2.0))
        .collect();
    let roots = request_lanes
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("serve.request"))
        .count();
    // The loadgen's 2 × 25 /score requests plus the three GETs above.
    assert_eq!(
        roots, 53,
        "one serve.request span per request this server answered"
    );
    for stage in ["serve.parse", "serve.queue.wait", "serve.score"] {
        assert!(
            request_lanes
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(stage)),
            "stage {stage} missing from the request lanes"
        );
    }
    // Spot-check one request: its stages share the root's lane (tid) and
    // lie inside the root span.
    let root = request_lanes
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("serve.request"))
        .unwrap();
    let tid = root.get("tid").and_then(Json::as_f64).unwrap();
    let ts = root.get("ts").and_then(Json::as_f64).unwrap();
    let end = ts + root.get("dur").and_then(Json::as_f64).unwrap();
    let children: Vec<&&Json> = request_lanes
        .iter()
        .filter(|e| {
            e.get("tid").and_then(Json::as_f64) == Some(tid)
                && e.get("name").and_then(Json::as_str) != Some("serve.request")
        })
        .collect();
    assert!(
        !children.is_empty(),
        "request lane {tid} has no stage children"
    );
    for child in children {
        let cts = child.get("ts").and_then(Json::as_f64).unwrap();
        let cend = cts + child.get("dur").and_then(Json::as_f64).unwrap();
        assert!(
            cts >= ts && cend <= end,
            "stage {} [{cts},{cend}] escapes its request [{ts},{end}]",
            child.get("name").and_then(Json::as_str).unwrap_or("?")
        );
    }

    ahntp_telemetry::flush_trace_to_env();
    let _ = std::fs::remove_dir_all(&dir);
}
