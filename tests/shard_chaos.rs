//! Chaos suite for scatter-gather serving: shards die, swaps fail
//! mid-broadcast, artifacts arrive torn — and every failure mode must
//! stay inside the sharded fault contract:
//!
//! * any shard unreachable ⇒ fan-out reads answer `503` + `Retry-After`
//!   **deterministically** (never a partial merge),
//! * a swap that fails on one shard leaves the old snapshot serving,
//! * a torn v2 artifact fails its CRC seal at map time with a typed
//!   error — never a panic, never a half-loaded index,
//! * a fingerprint mismatch is refused with `409`,
//! * a swap under closed-loop load drops zero requests.
//!
//! Every test runs under an execution context of its own
//! (`ahntp_par::Context::fresh`), which the front and the shards it starts
//! inherit: its failpoints fault only its own cluster and the counters it
//! reads (`front.*` from the front, `serve.*` summed over its shards) are
//! exactly its own, so the tests run in parallel and assert with `==`.

use ahntp_faultz::{self as faultz, Action, FaultSpec};
use ahntp_nn::TrustArtifact;
use ahntp_par::Context;
use ahntp_serve::client::Client;
use ahntp_serve::{
    serve, serve_sharded, shard_ranges, BackendKind, ServeConfig, ServerHandle, ShardedHandle,
    TrustIndex,
};
use ahntp_telemetry::counter_get;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

const N_USERS: usize = 16;
const FINGERPRINT: u64 = 0xc1a0_5c1a_0000_0001;

/// Base artifact; `bump` perturbs the head values (not the shapes or the
/// fingerprint), modelling a retrained snapshot of the same deployment.
/// The rows are unit vectors at angle `i * (0.7 + bump)`, so scores are
/// `cos((u - v)(0.7 + bump))` — any nonzero bump changes them.
fn artifact(bump: f32) -> TrustArtifact {
    let row = move |i: usize| {
        let a = i as f32 * (0.7 + bump);
        vec![a.cos(), a.sin()]
    };
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: FINGERPRINT,
        calibration: 0.5,
        n_users: N_USERS,
        emb_dim: 2,
        head_dim: 2,
        embeddings: vec![0.0; N_USERS * 2].into(),
        trustor_head: (0..N_USERS).flat_map(row).collect(),
        trustee_head: (0..N_USERS).rev().flat_map(row).collect(),
    }
}

fn exact_index(a: &TrustArtifact) -> TrustIndex {
    TrustIndex::from_artifact_with(a.clone(), BackendKind::Exact).expect("valid artifact")
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// A front over `n_shards` shards, all in the calling test's context.
fn start_cluster(a: &TrustArtifact, n_shards: usize) -> (Vec<ServerHandle>, ShardedHandle) {
    ahntp_telemetry::set_enabled(true);
    let shards: Vec<ServerHandle> = shard_ranges(N_USERS, n_shards)
        .into_iter()
        .map(|range| {
            let cfg = ServeConfig {
                shard_range: Some(range),
                ..config()
            };
            serve(exact_index(a), &cfg).expect("bind shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
    let front = serve_sharded(&addrs, &config()).expect("start front");
    (shards, front)
}

/// Writes `a` as a v2 frame under a unique temp path.
fn write_v2(a: &TrustArtifact, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "ahntp_shard_chaos_{}_{tag}.ahntpsrv",
        std::process::id()
    ));
    std::fs::write(&path, a.encode_v2()).expect("write artifact");
    path
}

const TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, TIMEOUT).expect("connect")
}

fn get(addr: SocketAddr, path: &str) -> (u16, BTreeMap<String, String>, String) {
    let r = connect(addr).get(path).expect("GET");
    (r.status, r.headers, r.body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, BTreeMap<String, String>, String) {
    let r = connect(addr).post(path, body).expect("POST");
    (r.status, r.headers, r.body)
}

fn header<'h>(headers: &'h BTreeMap<String, String>, name: &str) -> Option<&'h str> {
    headers.get(name).map(String::as_str)
}

fn swap_body(path: &std::path::Path) -> String {
    format!("{{\"path\":\"{}\"}}", path.display())
}

/// One shard down: every fan-out read answers `503` + `Retry-After`,
/// deterministically — repeated attempts never sneak a partial merge
/// through — while `/score` for pairs owned by live shards keeps
/// answering and `/healthz` reports the cluster degraded.
#[test]
fn one_shard_down_fails_fanout_reads_deterministically() {
    Context::fresh().run(one_shard_down);
}

fn one_shard_down() {
    let (mut shards, front) = start_cluster(&artifact(0.0), 2);
    // Kill the shard owning the upper half [8, 16).
    shards.pop().unwrap().shutdown();

    for attempt in 0..5 {
        let (status, headers, body) = get(front.addr(), "/topk?user=1&k=3");
        assert_eq!(
            status, 503,
            "attempt {attempt}: partial merge served? {body}"
        );
        assert!(
            header(&headers, "retry-after").is_some(),
            "attempt {attempt}: 503 without Retry-After"
        );
        assert!(body.contains("unavailable"), "attempt {attempt}: {body}");
    }
    // The surviving shard owns [0, 8): scoring a pair whose trustee
    // lives there needs no fan-out and still answers.
    let (status, _, body) = post(front.addr(), "/score", r#"{"pairs":[[9,3]]}"#);
    assert_eq!(status, 200, "live-shard /score must survive: {body}");
    // A pair owned by the dead shard degrades the same way as /topk.
    let (status, _, _) = post(front.addr(), "/score", r#"{"pairs":[[3,9]]}"#);
    assert_eq!(status, 503);
    // The front itself stays alive and reports the damage.
    let (status, _, body) = get(front.addr(), "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"degraded\""), "{body}");
    assert!(body.contains("\"down\""), "{body}");
    // Five /topk and one /score met the dead shard, once each; the eight
    // requests above are all the front has read.
    assert_eq!(counter_get("front.shard_unavailable"), 6);
    assert_eq!(counter_get("front.http.errors"), 6);
    assert_eq!(counter_get("front.http.requests"), 8);

    front.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// The `shard.rpc` failpoint injects the same contract without killing a
/// process: armed ⇒ `503` + `Retry-After`; disarmed ⇒ the same cluster
/// serves again (nothing wedged).
#[test]
fn injected_rpc_faults_answer_503_and_recover() {
    Context::fresh().run(injected_rpc_faults);
}

fn injected_rpc_faults() {
    let (shards, front) = start_cluster(&artifact(0.0), 2);
    {
        let _fault = faultz::scoped("shard.rpc", FaultSpec::new(Action::Err));
        let (status, headers, body) = get(front.addr(), "/topk?user=0&k=2");
        assert_eq!(status, 503, "{body}");
        assert_eq!(header(&headers, "retry-after"), Some("1"));
    }
    let (status, _, body) = get(front.addr(), "/topk?user=0&k=2");
    assert_eq!(status, 200, "disarmed cluster must serve again: {body}");
    // Both fan-out calls of the armed request hit the site; the front
    // answered for the first failed shard and stopped there.
    assert_eq!(counter_get("faultz.shard.rpc.triggered"), 2);
    assert_eq!(counter_get("front.shard_unavailable"), 1);
    front.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// A faulty shard cannot make the front allocate on its say-so: a reply
/// claiming a terabyte of body is refused by the client from the header
/// alone and surfaces as `502` naming the shard — and the front keeps
/// serving.
#[test]
fn an_oversized_shard_reply_is_a_502_naming_the_shard() {
    Context::fresh().run(oversized_shard_reply);
}

fn oversized_shard_reply() {
    use ahntp_serve::http::{read_request, write_response};
    use std::io::{BufReader, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let shard_addr = listener.local_addr().expect("fake shard addr");
    // Three exchanges: discovery, the oversized /topk, a sane /score.
    let shard = std::thread::spawn(move || {
        for stream in listener.incoming().take(3) {
            let mut stream = stream.expect("accept");
            let req = read_request(&mut BufReader::new(&stream))
                .expect("request")
                .expect("some");
            let body = match req.path.as_str() {
                "/topk" => {
                    stream
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\n")
                        .expect("oversized reply");
                    continue;
                }
                "/healthz" => format!(
                    r#"{{"status":"ok","model":"AHNTP","n_users":{N_USERS},"fingerprint":"f","backend":"exact"}}"#
                ),
                _ => r#"{"scores":[0.5],"backend":"exact"}"#.to_string(),
            };
            write_response(
                &mut stream,
                200,
                "OK",
                "application/json",
                body.as_bytes(),
                false,
            )
            .expect("reply");
        }
    });
    ahntp_telemetry::set_enabled(true);
    let front = serve_sharded(&[shard_addr], &config()).expect("start front");

    let (status, _, body) = get(front.addr(), "/topk?user=1&k=3");
    assert_eq!(status, 502, "{body}");
    assert!(
        body.contains(&shard_addr.to_string()),
        "502 names the shard: {body}"
    );
    let (status, _, body) = post(front.addr(), "/score", r#"{"pairs":[[0,1]]}"#);
    assert_eq!(status, 200, "the front must serve the next request: {body}");
    // Unreadable is not unreachable: a 502, not a `front.shard_unavailable`.
    assert_eq!(
        ["front.http.errors", "front.shard_unavailable"].map(counter_get),
        [1, 0]
    );

    front.shutdown();
    shard.join().expect("fake shard thread");
}

/// A swap killed mid-broadcast (the `shard.swap` failpoint fires on the
/// first shard) leaves the **old** snapshot serving byte-identically;
/// once disarmed, the same swap request lands cluster-wide and the new
/// snapshot takes over with zero restarts.
#[test]
fn mid_swap_failure_leaves_the_old_snapshot_serving() {
    Context::fresh().run(mid_swap_failure);
}

fn mid_swap_failure() {
    let (shards, front) = start_cluster(&artifact(0.0), 2);
    let probe = "/topk?user=2&k=4";
    let (_, _, before) = get(front.addr(), probe);

    let next = write_v2(&artifact(0.25), "midswap");
    {
        let _fault = faultz::scoped("shard.swap", FaultSpec::new(Action::Err));
        let (status, _, body) = post(front.addr(), "/admin/swap", &swap_body(&next));
        assert_eq!(status, 500, "injected swap failure must surface: {body}");
        assert!(body.contains("shard"), "refusal names the shard: {body}");
    }
    // The broadcast stopped at the first shard; nothing was swapped.
    let swap_counts = || {
        [
            "faultz.shard.swap.triggered",
            "front.swap.refused",
            "front.swap.ok",
            "serve.index.swaps",
        ]
        .map(counter_get)
    };
    assert_eq!(swap_counts(), [1, 1, 0, 0]);
    let (status, _, after_failure) = get(front.addr(), probe);
    assert_eq!(status, 200);
    assert_eq!(
        before, after_failure,
        "failed swap must not change served bytes"
    );

    // Disarmed: the identical request now succeeds everywhere...
    let (status, _, body) = post(front.addr(), "/admin/swap", &swap_body(&next));
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"swapped\":true"), "{body}");
    assert_eq!(
        swap_counts(),
        [1, 1, 1, 2],
        "one swap on each of the two shards"
    );
    // ...and the cluster serves the new snapshot: byte-identical to a
    // fresh single node over the swapped-in artifact.
    let single = serve(exact_index(&artifact(0.25)), &config()).expect("bind single");
    let (_, _, want) = get(single.addr(), probe);
    let (_, _, got) = get(front.addr(), probe);
    assert_ne!(
        before, got,
        "the new snapshot scores differently by construction"
    );
    assert_eq!(
        want, got,
        "post-swap bytes must match a single node on the new artifact"
    );
    single.shutdown();

    let _ = std::fs::remove_file(next);
    front.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// Torn v2 artifacts — truncated or bit-flipped anywhere, including the
/// offsets table — fail the CRC seal at map time with a typed
/// `InvalidData` error. Never a panic; and a serving shard asked to swap
/// onto one refuses with `422` and keeps serving the old snapshot.
#[test]
fn torn_v2_artifacts_fail_closed_at_map_time() {
    Context::fresh().run(torn_v2_artifacts);
}

fn torn_v2_artifacts() {
    let bytes = artifact(0.0).encode_v2();
    let torn_path = std::env::temp_dir().join(format!(
        "ahntp_shard_chaos_{}_torn.ahntpsrv",
        std::process::id()
    ));
    // Flip one byte at a spread of offsets: magic, version, the offsets
    // table (~32..64), matrix payload, and the CRC seal itself.
    for pos in [0usize, 10, 34, 40, 56, bytes.len() / 2, bytes.len() - 2] {
        let mut torn = bytes.clone();
        torn[pos] ^= 0x40;
        std::fs::write(&torn_path, &torn).expect("write torn artifact");
        let err = TrustIndex::open(&torn_path).expect_err(&format!("flip at {pos} must not map"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "flip at {pos}");
        assert!(!err.to_string().is_empty(), "typed error carries a message");
    }
    // Truncations: drop the tail at several depths.
    for keep in [0usize, 8, 33, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&torn_path, &bytes[..keep]).expect("write truncated artifact");
        let err =
            TrustIndex::open(&torn_path).expect_err(&format!("truncation to {keep} must not map"));
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "truncation to {keep}"
        );
    }

    // A live shard swapping onto a torn file: 422, old snapshot intact.
    ahntp_telemetry::set_enabled(true);
    let index = exact_index(&artifact(0.0));
    let server = serve(index, &config()).expect("bind");
    let mut torn = bytes.clone();
    torn[40] ^= 0x40;
    std::fs::write(&torn_path, &torn).expect("write torn artifact");
    let (_, _, before) = get(server.addr(), "/topk?user=1&k=3");
    let (status, _, body) = post(server.addr(), "/admin/swap", &swap_body(&torn_path));
    assert_eq!(status, 422, "torn artifact must be refused: {body}");
    let (_, _, after) = get(server.addr(), "/topk?user=1&k=3");
    assert_eq!(before, after, "refused swap must not perturb the index");
    assert_eq!(
        ["serve.swap.errors", "serve.index.swaps"].map(counter_get),
        [1, 0]
    );
    server.shutdown();
    let _ = std::fs::remove_file(torn_path);
}

/// A snapshot with a different fingerprint is a different deployment:
/// the swap is refused with `409` cluster-wide, naming the shard, and
/// nothing changes.
#[test]
fn fingerprint_mismatch_is_refused_with_409() {
    Context::fresh().run(fingerprint_mismatch);
}

fn fingerprint_mismatch() {
    let (shards, front) = start_cluster(&artifact(0.0), 2);
    let mut foreign = artifact(0.5);
    foreign.fingerprint = FINGERPRINT ^ 0xdead;
    let path = write_v2(&foreign, "foreign");

    let (_, _, before) = get(front.addr(), "/topk?user=5&k=3");
    let (status, _, body) = post(front.addr(), "/admin/swap", &swap_body(&path));
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("fingerprint"), "{body}");
    assert!(
        body.contains("shard"),
        "refusal names the refusing shard: {body}"
    );
    let (_, _, after) = get(front.addr(), "/topk?user=5&k=3");
    assert_eq!(before, after, "refused swap must not perturb the cluster");
    // The first shard refused and the broadcast stopped there.
    let counts = [
        "serve.swap.refused",
        "front.swap.refused",
        "serve.index.swaps",
    ]
    .map(counter_get);
    assert_eq!(counts, [1, 1, 0]);

    let _ = std::fs::remove_file(path);
    front.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// Closed-loop load during repeated hot swaps: every request answers
/// `200`. The swap holds each shard's write lock only for the pointer
/// move (snapshots build outside it), so zero requests drop or error.
#[test]
fn swaps_under_closed_loop_load_drop_zero_requests() {
    Context::fresh().run(swaps_under_load);
}

fn swaps_under_load() {
    let (shards, front) = start_cluster(&artifact(0.0), 2);
    let a = write_v2(&artifact(0.1), "load_a");
    let b = write_v2(&artifact(0.2), "load_b");
    let addr = front.addr();

    let clients: Vec<_> = (0..2)
        .map(|c| {
            std::thread::spawn(move || {
                let mut statuses = Vec::new();
                for i in 0..60 {
                    let (status, _, _) = if i % 2 == c {
                        get(addr, &format!("/topk?user={}&k=4", i % N_USERS))
                    } else {
                        post(
                            addr,
                            "/score",
                            &format!("{{\"pairs\":[[{},{}]]}}", i % N_USERS, (i * 3) % N_USERS),
                        )
                    };
                    statuses.push(status);
                }
                statuses
            })
        })
        .collect();

    let mut swaps = 0;
    for round in 0..6 {
        let path = if round % 2 == 0 { &a } else { &b };
        let (status, _, body) = post(addr, "/admin/swap", &swap_body(path));
        assert_eq!(status, 200, "swap round {round}: {body}");
        swaps += 1;
    }
    let mut total = 0;
    for client in clients {
        for (i, status) in client
            .join()
            .expect("client thread")
            .into_iter()
            .enumerate()
        {
            assert_eq!(status, 200, "request {i} failed during swap churn");
            total += 1;
        }
    }
    assert_eq!(total, 120, "every request must be answered");
    assert_eq!(swaps, 6);
    let counts = [
        "front.swap.ok",
        "serve.index.swaps",
        "front.http.requests",
        "front.http.errors",
    ];
    assert_eq!(counts.map(counter_get), [6, 12, 126, 0]);

    let _ = std::fs::remove_file(a);
    let _ = std::fs::remove_file(b);
    front.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// Three servers, three contexts, one process: each `/metrics` is its
/// server's own. `N` front `/topk` requests are `N` requests on the front
/// and `N` on each shard; the front counts none of the shards' and the
/// shards none of each other's — nor does the process's root context, which
/// this test thread works in, see any of them.
#[test]
fn a_front_and_its_shards_report_disjoint_metrics() {
    const N: usize = 7;
    // Starts a server under a context of its own, telemetry on.
    fn own_context<S>(start: impl FnOnce() -> S) -> (Context, S) {
        let ctx = Context::fresh();
        let server = ctx.run(|| {
            ahntp_telemetry::set_enabled(true);
            start()
        });
        (ctx, server)
    }
    let shards: Vec<ServerHandle> = shard_ranges(N_USERS, 2)
        .into_iter()
        .map(|range| {
            let cfg = ServeConfig {
                shard_range: Some(range),
                ..config()
            };
            own_context(|| serve(exact_index(&artifact(0.0)), &cfg).expect("bind shard")).1
        })
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
    let (front_ctx, front) = own_context(|| serve_sharded(&addrs, &config()).expect("start front"));

    for i in 0..N {
        let (status, _, body) = get(front.addr(), &format!("/topk?user={i}&k=3"));
        assert_eq!(status, 200, "{body}");
    }
    let count = |metrics: &str, name: &str| {
        let doc = ahntp_telemetry::json::parse(metrics).expect("metrics JSON");
        doc.get(name).and_then(ahntp_telemetry::json::Json::as_f64)
    };
    // The front: N requests and this read; it has never counted a `serve.*`.
    let (_, _, metrics) = get(front.addr(), "/metrics");
    assert_eq!(
        count(&metrics, "front.http.requests"),
        Some((N + 1) as f64),
        "{metrics}"
    );
    assert_eq!(count(&metrics, "serve.http.requests"), None, "{metrics}");
    assert_eq!(count(&metrics, "serve.topk.range.calls"), None, "{metrics}");
    // Each shard: its discovery /healthz, its N fan-out calls and this read.
    for shard in &shards {
        let (_, _, metrics) = get(shard.addr(), "/metrics");
        assert_eq!(
            count(&metrics, "serve.http.requests"),
            Some((N + 2) as f64),
            "{metrics}"
        );
        assert_eq!(
            count(&metrics, "serve.topk.range.calls"),
            Some(N as f64),
            "{metrics}"
        );
        assert_eq!(count(&metrics, "front.http.requests"), None, "{metrics}");
    }
    // And the context of this thread, which started none of them.
    assert_eq!(counter_get("serve.topk.range.calls"), 0);
    assert_eq!(
        front_ctx.run(|| counter_get("front.http.requests")),
        (N + 1) as u64
    );

    front.shutdown();
    for s in shards {
        s.shutdown();
    }
}
