//! Chaos suite for the serving stack: armed failpoints (`ahntp-faultz`)
//! inject delays, errors, panics and socket faults into a running
//! server, and every failure mode must stay inside the fault-tolerance
//! contract — an `/events` batch whose applier is gone answers `503` with
//! `Retry-After`, a slow applier never hangs a client past the
//! per-request deadline (`504` + `Retry-After`), `/healthz` stays live
//! throughout, and the metrics snapshot accounts for every injected
//! event.
//!
//! Every test runs under an execution context of its own
//! (`ahntp_par::Context::fresh`), which every server it starts inherits:
//! its failpoints fault only its own servers and `/metrics` counts only its
//! own requests, so the tests run in parallel and assert exact numbers.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_bench::loadgen::{run_load, LoadConfig};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_faultz::{self as faultz, Action, FaultSpec};
use ahntp_par::Context;
use ahntp_serve::client::Client;
use ahntp_serve::{serve, serve_live, ServeConfig, ServerHandle, TrustIndex};
use ahntp_stream::{LiveTrustModel, StalenessBound};
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

fn config(deadline: Duration) -> ServeConfig {
    ServeConfig {
        workers: 2,
        deadline,
        retry_after: Duration::from_secs(2),
        ..ServeConfig::default()
    }
}

fn start(deadline: Duration) -> ServerHandle {
    ahntp_telemetry::set_enabled(true);
    serve(toy_index(), &config(deadline)).expect("bind loopback")
}

/// A live server over a small untrained model: what the `/events`
/// faults run against.
fn start_live(deadline: Duration) -> ServerHandle {
    ahntp_telemetry::set_enabled(true);
    let model = || {
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(N_USERS, 5));
        let split = ds.split(0.8, 0.2, 2, 42);
        let cfg = AhntpConfig {
            conv_dims: vec![8, 4],
            tower_dims: vec![4],
            ..AhntpConfig::default()
        };
        let model = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
        Box::new(model) as Box<dyn LiveTrustModel>
    };
    serve_live(model, StalenessBound::immediate(), &config(deadline)).expect("bind loopback")
}

const EVENTS: &str = r#"{"events":[{"op":"decay","factor":0.9}]}"#;

const TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, TIMEOUT).expect("connect")
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, BTreeMap<String, String>, String) {
    let r = connect(addr).post(path, body).expect("POST");
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
    metrics(addr)
        .get(name)
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// An apply delay far past the deadline: the client gets `504` +
/// `Retry-After` while the delayed batch is still held up — not after it —
/// and `/healthz` (which never touches the applier) stays live throughout.
#[test]
fn injected_batch_delay_never_hangs_a_client_past_the_deadline() {
    Context::fresh().run(|| {
        let server = start_live(Duration::from_millis(100));
        let addr = server.addr();
        let _fault = faultz::scoped("stream.apply", FaultSpec::new(Action::Delay(2_000)));

        let (status, headers, body) = post(addr, "/events", EVENTS);
        assert_eq!(status, 504, "{body}");
        assert_eq!(headers.get("retry-after").map(String::as_str), Some("2"));
        assert!(body.contains("deadline"), "{body}");

        // The order of events, not their wall-clock: when the client holds
        // the 504 the applier has picked the batch up (it is sized before
        // the `stream.apply` site sleeps) and the delay has fired, but the
        // event behind the delay has not been applied (`stream.events`
        // counts only once the site returns). So the answer came from the
        // deadline, not from the end of the injected delay.
        let now = metrics(addr);
        let count = |name: &str| now.get(name).and_then(Json::as_f64).unwrap_or(0.0);
        let batches = now
            .get("serve.ingest.batch_size")
            .and_then(|h| h.get("count"));
        assert_eq!(
            batches.and_then(Json::as_f64),
            Some(1.0),
            "{}",
            now.to_line()
        );
        assert_eq!(count("stream.events"), 0.0, "{}", now.to_line());
        assert_eq!(count("serve.deadline_exceeded"), 1.0);
        assert_eq!(count("faultz.triggered"), 1.0);
        assert_eq!(count("faultz.stream.apply.triggered"), 1.0);

        // Liveness is applier-independent: healthz answers while ingest stalls.
        let (status, _, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "{body}");
        server.shutdown();
    });
}

/// An applier killed by an injected panic: the batch it held and every
/// batch after it — refused by the closed channel — shed with `503` +
/// `Retry-After`, counted in `serve.shed`, with `/healthz` unaffected.
#[test]
fn injected_enqueue_rejection_sheds_with_retry_after() {
    Context::fresh().run(enqueue_rejection_sheds);
}

fn enqueue_rejection_sheds() {
    let server = start_live(Duration::from_secs(2));
    let addr = server.addr();
    let _fault = faultz::scoped("stream.apply", FaultSpec::new(Action::Panic));

    for _ in 0..2 {
        let (status, headers, body) = post(addr, "/events", EVENTS);
        assert_eq!(status, 503, "{body}");
        assert_eq!(headers.get("retry-after").map(String::as_str), Some("2"));
        assert!(body.contains("ingest backend stopped"), "{body}");
    }
    let (status, _, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(metric(addr, "serve.shed"), 2.0);
    assert_eq!(metric(addr, "faultz.stream.apply.triggered"), 1.0);
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

    let (status, _, body) = post(addr, "/score", r#"{"pairs":[[0,1]]}"#);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("injected"), "{body}");
    let (status, _, body) = post(addr, "/score", r#"{"pairs":[[0,1]]}"#);
    assert_eq!(status, 200, "second request must be clean: {body}");
    let now = metrics(addr);
    for name in [
        "faultz.serve.request.triggered",
        "faultz.triggered",
        "serve.http.errors",
    ] {
        let count = now.get(name).and_then(Json::as_f64);
        assert_eq!(
            count,
            Some(1.0),
            "{name}: the nth(1) gate must fire exactly once"
        );
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

/// The loadgen under a 10ms injected request delay: every request is
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
        let _fault = faultz::scoped("serve.request", FaultSpec::new(Action::Delay(10)));
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
    // `/score` waits on no other thread, so a 10ms delay per request only
    // slows the run; a failure must be accounted for as deadline/shed.
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
    let clean = conn
        .post("/score", r#"{"pairs":[[1,2]]}"#)
        .expect("clean request");
    assert_eq!(clean.status, 200, "{}", clean.body);
    server.shutdown();
}
