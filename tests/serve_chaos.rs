//! Chaos suite for the serving stack: armed failpoints (`ahntp-faultz`)
//! inject delays, errors, and queue rejections into a live server, and
//! every failure mode must stay inside the fault-tolerance contract —
//! shed requests answer `503` with `Retry-After`, slow batches never hang
//! a client past the per-request deadline (`504` + `Retry-After`), the
//! batcher degrades to per-pair scoring instead of failing, `/healthz`
//! stays live throughout, and the metrics snapshot accounts for every
//! injected event.
//!
//! Every test runs under an execution context of its own
//! (`ahntp_par::Context::fresh`), which every server it starts inherits:
//! its failpoints fault only its own servers and `/metrics` counts only its
//! own requests, so the tests run in parallel and assert exact numbers.

use ahntp_bench::loadgen::{run_load, LoadConfig};
use ahntp_faultz::{self as faultz, Action, FaultSpec};
use ahntp_par::Context;
use ahntp_serve::client::Client;
use ahntp_serve::{serve, ServeConfig, ServerHandle, TrustIndex};
use ahntp_telemetry::json::{parse, Json};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

const N_USERS: usize = 16;

fn toy_index() -> TrustIndex {
    let row = |i: usize| {
        let a = i as f32 * 0.7;
        vec![a.cos(), a.sin()]
    };
    let artifact = ahntp_nn::TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: 0xfeed_beef_0000_0002,
        calibration: 0.5,
        n_users: N_USERS,
        emb_dim: 2,
        head_dim: 2,
        embeddings: vec![0.0; N_USERS * 2].into(),
        trustor_head: (0..N_USERS).flat_map(row).collect(),
        trustee_head: (0..N_USERS).rev().flat_map(row).collect(),
    };
    TrustIndex::from_artifact(artifact).expect("toy artifact is valid")
}

fn start(deadline: Duration) -> ServerHandle {
    ahntp_telemetry::set_enabled(true);
    serve(
        toy_index(),
        &ServeConfig {
            workers: 2,
            deadline,
            retry_after: Duration::from_secs(2),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback")
}

const TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, TIMEOUT).expect("connect")
}

fn post_score(addr: SocketAddr, body: &str) -> (u16, BTreeMap<String, String>, String) {
    let r = connect(addr).post("/score", body).expect("POST /score");
    (r.status, r.headers, r.body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, BTreeMap<String, String>, String) {
    let r = connect(addr).get(path).expect("GET");
    (r.status, r.headers, r.body)
}

/// The server's `/metrics`, parsed.
fn metrics(addr: SocketAddr) -> Json {
    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200, "{body}");
    parse(&body).expect("metrics JSON")
}

fn metric(addr: SocketAddr, name: &str) -> f64 {
    metrics(addr).get(name).and_then(Json::as_f64).unwrap_or(0.0)
}

/// A batch delay far past the deadline: the client gets `504` +
/// `Retry-After` while the delayed batch is still held up — not after it —
/// and `/healthz` (which never touches the queue) stays live throughout.
#[test]
fn injected_batch_delay_never_hangs_a_client_past_the_deadline() {
    Context::fresh().run(|| {
        let server = start(Duration::from_millis(100));
        let addr = server.addr();
        let _fault = faultz::scoped("serve.batch", FaultSpec::new(Action::Delay(2_000)));

        let (status, headers, body) = post_score(addr, r#"{"pairs":[[0,1]]}"#);
        assert_eq!(status, 504, "{body}");
        assert_eq!(headers.get("retry-after").map(String::as_str), Some("2"));
        assert!(body.contains("deadline"), "{body}");

        // The order of events, not their wall-clock: when the client holds
        // the 504 the batcher has picked the job up (the batch is sized
        // before the `serve.batch` site sleeps) and the delay has fired, but
        // the kernel behind the delay has not run (it counts its calls only
        // once the site returns). So the answer came from the deadline, not
        // from the end of the injected delay.
        let now = metrics(addr);
        let count = |name: &str| now.get(name).and_then(Json::as_f64).unwrap_or(0.0);
        let batches = now.get("serve.score.batch_size").and_then(|h| h.get("count"));
        assert_eq!(batches.and_then(Json::as_f64), Some(1.0), "{}", now.to_line());
        assert_eq!(
            count("serve.score_pairs.exact.calls"),
            0.0,
            "{}",
            now.to_line()
        );
        assert_eq!(count("serve.deadline_exceeded"), 1.0);
        assert_eq!(count("faultz.triggered"), 1.0);
        assert_eq!(count("faultz.serve.batch.triggered"), 1.0);

        // Liveness is queue-independent: healthz answers while scoring stalls.
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        server.shutdown();
    });
}

/// An erroring batch kernel degrades to per-pair scoring: clients still
/// get correct `200` answers, and `serve.degraded` counts the fallback.
#[test]
fn injected_batch_error_degrades_to_per_pair_scoring() {
    Context::fresh().run(batch_error_degrades);
}

fn batch_error_degrades() {
    let server = start(Duration::from_secs(2));
    let addr = server.addr();
    let _fault = faultz::scoped("serve.batch", FaultSpec::new(Action::Err));

    let (status, _, body) = post_score(addr, r#"{"pairs":[[0,1],[2,5],[3,3]]}"#);
    assert_eq!(status, 200, "degraded mode must still answer: {body}");
    let doc = parse(&body).expect("score JSON");
    let Some(Json::Arr(scores)) = doc.get("scores") else {
        panic!("no scores in {body}");
    };
    let index = toy_index();
    let expected = index.score_pairs(&[(0, 1), (2, 5), (3, 3)]).unwrap();
    assert_eq!(scores.len(), expected.len());
    for (got, want) in scores.iter().zip(&expected) {
        let got = got.as_f64().unwrap();
        assert!(
            (got - f64::from(*want)).abs() < 1e-6,
            "degraded score {got} vs batched {want}"
        );
    }
    assert_eq!(metric(addr, "serve.degraded"), 1.0);
    server.shutdown();
}

/// A rejected enqueue sheds the request: `503` + `Retry-After`, counted
/// in `serve.shed`, with `/healthz` unaffected.
#[test]
fn injected_enqueue_rejection_sheds_with_retry_after() {
    Context::fresh().run(enqueue_rejection_sheds);
}

fn enqueue_rejection_sheds() {
    let server = start(Duration::from_secs(2));
    let addr = server.addr();
    let _fault = faultz::scoped("serve.enqueue", FaultSpec::new(Action::Err));

    let (status, headers, body) = post_score(addr, r#"{"pairs":[[0,1]]}"#);
    assert_eq!(status, 503, "{body}");
    assert_eq!(headers.get("retry-after").map(String::as_str), Some("2"));
    assert!(body.contains("queue full"), "{body}");
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(metric(addr, "serve.shed"), 1.0);
    server.shutdown();
}

/// An `nth`-gated request fault fires exactly once: the first request
/// answers `500`, the next is served normally, and the per-site counter
/// records exactly one trigger.
#[test]
fn nth_gated_request_fault_fires_exactly_once() {
    Context::fresh().run(nth_gated_request_fault);
}

fn nth_gated_request_fault() {
    let server = start(Duration::from_secs(2));
    let addr = server.addr();
    let _fault = faultz::scoped("serve.request", FaultSpec::new(Action::Err).on_nth(1));

    let (status, _, body) = post_score(addr, r#"{"pairs":[[0,1]]}"#);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("injected"), "{body}");
    let (status, _, body) = post_score(addr, r#"{"pairs":[[0,1]]}"#);
    assert_eq!(status, 200, "second request must be clean: {body}");
    let now = metrics(addr);
    for name in ["faultz.serve.request.triggered", "faultz.triggered", "serve.http.errors"] {
        let count = now.get(name).and_then(Json::as_f64);
        assert_eq!(count, Some(1.0), "{name}: the nth(1) gate must fire exactly once");
    }
    server.shutdown();
}

/// Socket-fault injection: an armed `serve.read` drops connections (the
/// worker treats it as an I/O failure) without wedging the server — once
/// disarmed, the same server serves normally again.
#[test]
fn injected_read_faults_drop_connections_but_not_the_server() {
    Context::fresh().run(read_faults_drop_connections);
}

fn read_faults_drop_connections() {
    let server = start(Duration::from_secs(2));
    let addr = server.addr();
    {
        let _fault = faultz::scoped("serve.read", FaultSpec::new(Action::Err));
        // The worker aborts the connection before reading the request;
        // the client sees EOF instead of a response.
        let response = connect(addr).get("/healthz");
        assert!(
            response.is_err(),
            "connection should have been dropped, got {response:?}"
        );
    }
    // Disarmed: the same server answers again.
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200, "server must survive injected read faults");
    server.shutdown();
}

/// The loadgen under a 10ms injected batch delay: every request is
/// answered (completed or failed, never hung), and the run finishes in
/// bounded time. Prints baseline-vs-chaos numbers for EXPERIMENTS.md.
#[test]
fn loadgen_under_injected_delay_answers_every_request() {
    Context::fresh().run(loadgen_under_injected_delay);
}

fn loadgen_under_injected_delay() {
    let cfg = LoadConfig {
        connections: 3,
        requests_per_connection: 25,
        pairs_per_request: 4,
        n_users: N_USERS,
    };
    let total = cfg.connections * cfg.requests_per_connection;

    let server = start(Duration::from_millis(200));
    let baseline = run_load(server.addr(), &cfg);
    server.shutdown();
    assert_eq!(baseline.completed + baseline.failed, total);

    let server = start(Duration::from_millis(200));
    let addr = server.addr();
    let chaos = {
        let _fault = faultz::scoped("serve.batch", FaultSpec::new(Action::Delay(10)));
        run_load(addr, &cfg)
    };
    let deadline_exceeded = metric(addr, "serve.deadline_exceeded");
    let shed = metric(addr, "serve.shed");
    server.shutdown();
    assert_eq!(
        chaos.completed + chaos.failed,
        total,
        "every request must be answered under injected delay"
    );
    // With a 10ms delay per batch and a 200ms deadline, most requests
    // still complete; the rest must be accounted for as deadline/shed.
    assert!(
        chaos.completed > 0,
        "nothing completed under a 10ms delay: {}",
        chaos.summary()
    );
    println!("baseline: {}", baseline.summary());
    println!("delay(10): {}", chaos.summary());
    println!("deadline_exceeded={deadline_exceeded} shed={shed}");
    // Both servers counted into this test's context and nobody else did.
    assert_eq!(
        (baseline.failed + chaos.failed) as f64,
        deadline_exceeded + shed,
        "a failed request that was neither a missed deadline nor a shed"
    );

    // A clean one-shot request after all chaos: the stack is still whole.
    let server = start(Duration::from_secs(2));
    let mut conn = connect(server.addr());
    let clean = conn.post("/score", r#"{"pairs":[[1,2]]}"#).expect("clean request");
    assert_eq!(clean.status, 200, "{}", clean.body);
    server.shutdown();
}
