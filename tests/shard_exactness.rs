//! Exactness sweep for scatter-gather serving: for every shard count,
//! uneven range layout and `k`, the sharded front's `/score` and `/topk`
//! responses are **byte-identical** to the single-node exact backend's —
//! same JSON, same digits, same tie-break.
//!
//! The tie-break under test is the documented total order: score
//! descending, then user id ascending. It must hold *across shard
//! boundaries*, which is where a merge that re-derived ids from
//! per-shard offsets (instead of carrying global ids end-to-end) would
//! silently reorder ties.

use ahntp_nn::TrustArtifact;
use ahntp_serve::client::Client;
use ahntp_serve::{
    serve, serve_sharded, shard_ranges, BackendKind, ServeConfig, ServerHandle, ShardedHandle,
    TrustIndex,
};
use proptest::prelude::*;
use proptest::TestRng;
use std::net::SocketAddr;
use std::time::Duration;

const N_USERS: usize = 24;

/// Seeded artifact. Trustee rows repeat every 5 users, so equal scores
/// are guaranteed and land in *different* shards under every layout the
/// sweep uses — the tie-break is exercised at shard boundaries, not just
/// within one heap.
fn tied_artifact(seed: u64) -> TrustArtifact {
    let mut rng = TestRng::from_label(&format!("shard-exactness-{seed}"));
    let head_dim = 3;
    let unique: Vec<Vec<f32>> = (0..5)
        .map(|_| {
            (0..head_dim)
                .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
                .collect()
        })
        .collect();
    let trustee: Vec<f32> = (0..N_USERS).flat_map(|v| unique[v % 5].clone()).collect();
    let trustor: Vec<f32> = (0..N_USERS * head_dim)
        .map(|_| (rng.next_f64() * 2.0 - 1.0) as f32)
        .collect();
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: 0x51a4_4dbe_ef00_0000u64.wrapping_add(seed),
        calibration: 0.5,
        n_users: N_USERS,
        emb_dim: 1,
        head_dim,
        embeddings: vec![0.0; N_USERS].into(),
        trustor_head: trustor.into(),
        trustee_head: trustee.into(),
    }
}

fn exact_index(artifact: &TrustArtifact) -> TrustIndex {
    TrustIndex::from_artifact_with(artifact.clone(), BackendKind::Exact)
        .expect("toy artifact is valid")
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

/// Starts one shard server per range plus the front over them.
fn start_cluster(
    artifact: &TrustArtifact,
    ranges: &[(usize, usize)],
) -> (Vec<ServerHandle>, ShardedHandle) {
    let shards: Vec<ServerHandle> = ranges
        .iter()
        .map(|&range| {
            let cfg = ServeConfig {
                shard_range: Some(range),
                ..config()
            };
            serve(exact_index(artifact), &cfg).expect("bind shard")
        })
        .collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
    let front = serve_sharded(&addrs, &config()).expect("start front");
    (shards, front)
}

const TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, TIMEOUT).expect("connect")
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let r = connect(addr).get(path).expect("GET");
    (r.status, r.body)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let r = connect(addr).post(path, body).expect("POST");
    (r.status, r.body)
}

/// Sends `raw` as is on a fresh connection.
fn send(addr: SocketAddr, raw: &str) -> (u16, String) {
    let r = connect(addr).send(raw.as_bytes()).expect("send");
    (r.status, r.body)
}

/// Pairs that hit every shard of every layout the sweep uses, plus
/// repeats and self-loops.
fn score_body() -> String {
    let pairs: Vec<String> = (0..N_USERS)
        .map(|v| format!("[{},{}]", (v * 7) % N_USERS, v))
        .chain([
            "[0,0]".to_string(),
            "[3,21]".to_string(),
            "[3,21]".to_string(),
        ])
        .collect();
    format!("{{\"pairs\":[{}]}}", pairs.join(","))
}

/// Asserts byte-identity between the single node and the front for the
/// whole read surface at the given layout.
fn assert_cluster_matches_single(single: SocketAddr, front: SocketAddr, layout: &str) {
    // /topk at k = 1, 5, and the full candidate set, for every user:
    // k = n ranks the entire id space, so ties at *every* shard boundary
    // must come back in the documented (score desc, id asc) order.
    for user in 0..N_USERS {
        for k in [1usize, 5, N_USERS] {
            let path = format!("/topk?user={user}&k={k}");
            let (s_status, s_body) = get(single, &path);
            let (f_status, f_body) = get(front, &path);
            assert_eq!(s_status, 200, "[{layout}] single {path}: {s_body}");
            assert_eq!(f_status, 200, "[{layout}] front {path}: {f_body}");
            assert_eq!(
                s_body, f_body,
                "[{layout}] /topk bytes diverged at user={user} k={k}"
            );
        }
        // The default-k path (no k parameter) must also agree.
        let path = format!("/topk?user={user}");
        let (_, s_body) = get(single, &path);
        let (_, f_body) = get(front, &path);
        assert_eq!(
            s_body, f_body,
            "[{layout}] default-k bytes diverged at user={user}"
        );
    }
    // /score across all shards in one batch.
    let body = score_body();
    let (s_status, s_body) = post(single, "/score", &body);
    let (f_status, f_body) = post(front, "/score", &body);
    assert_eq!(s_status, 200, "[{layout}] single /score: {s_body}");
    assert_eq!(f_status, 200, "[{layout}] front /score: {f_body}");
    assert_eq!(s_body, f_body, "[{layout}] /score bytes diverged");
    // Validation errors are part of the byte contract too: the front
    // checks ids itself and must emit the same typed 400 body.
    let bad = format!("{{\"pairs\":[[1,2],[0,{N_USERS}]]}}");
    let (s_status, s_body) = post(single, "/score", &bad);
    let (f_status, f_body) = post(front, "/score", &bad);
    assert_eq!(
        (s_status, s_body.as_str()),
        (400, f_body.as_str()),
        "[{layout}] 400 body diverged: {f_body}"
    );
    assert_eq!(f_status, 400, "[{layout}]");
    // Answers that never reach an endpoint come from the one server core
    // both tiers run on: unknown path, wrong method on a known path,
    // malformed request line, body over `MAX_BODY_BYTES`.
    let too_large = ahntp_serve::http::MAX_BODY_BYTES + 1;
    for (want, raw) in [
        (
            404,
            "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n".to_string(),
        ),
        (
            405,
            "PUT /topk?user=0 HTTP/1.1\r\nConnection: close\r\n\r\n".to_string(),
        ),
        (400, "NONSENSE\r\n\r\n".to_string()),
        (
            413,
            format!("POST /score HTTP/1.1\r\nContent-Length: {too_large}\r\n\r\n"),
        ),
    ] {
        let (s_status, s_body) = send(single, &raw);
        let (f_status, f_body) = send(front, &raw);
        assert_eq!(
            (s_status, &s_body),
            (f_status, &f_body),
            "[{layout}] {raw:?} diverged"
        );
        assert_eq!(f_status, want, "[{layout}] {raw:?}: {f_body}");
    }
}

/// The deterministic core sweep: shard counts 1/2/3/7 (all uneven over
/// 24 users except 1 and 3).
#[test]
fn sharded_responses_are_byte_identical_across_shard_counts() {
    let artifact = tied_artifact(0);
    let single = serve(exact_index(&artifact), &config()).expect("bind single");
    for n_shards in [1usize, 2, 3, 7] {
        let ranges = shard_ranges(N_USERS, n_shards);
        let (shards, front) = start_cluster(&artifact, &ranges);
        let layout = format!("shards={n_shards}");
        assert_cluster_matches_single(single.addr(), front.addr(), &layout);
        front.shutdown();
        for s in shards {
            s.shutdown();
        }
    }
    single.shutdown();
}

/// A deliberately lopsided hand-written layout: a 1-user shard, a bulk
/// shard, and a tail shard. Byte-identity must not depend on shards
/// being near-even.
#[test]
fn uneven_hand_written_ranges_still_match_bytes() {
    let artifact = tied_artifact(7);
    let single = serve(exact_index(&artifact), &config()).expect("bind single");
    let (shards, front) = start_cluster(&artifact, &[(0, 1), (1, 13), (13, N_USERS)]);
    assert_cluster_matches_single(single.addr(), front.addr(), "uneven[1,12,11]");
    front.shutdown();
    for s in shards {
        s.shutdown();
    }
    single.shutdown();
}

/// The boundary tie-break, checked structurally (not just bytes): with
/// trustee rows repeating every 5 users, user `v` and `v+5` tie exactly;
/// under the 7-shard layout of 24 users those duplicates straddle shard
/// boundaries, and the merged ranking must list each tie group in
/// ascending id order.
#[test]
fn boundary_ties_merge_in_score_desc_then_id_asc_order() {
    let artifact = tied_artifact(3);
    let (shards, front) = start_cluster(&artifact, &shard_ranges(N_USERS, 7));
    let (status, body) = get(front.addr(), &format!("/topk?user=2&k={N_USERS}"));
    assert_eq!(status, 200, "{body}");
    let doc = ahntp_telemetry::json::parse(&body).expect("topk JSON");
    let Some(ahntp_telemetry::json::Json::Arr(trustees)) = doc.get("trustees") else {
        panic!("no trustees in {body}");
    };
    let ranked: Vec<(usize, f64)> = trustees
        .iter()
        .map(|t| {
            let v = t
                .get("user")
                .and_then(ahntp_telemetry::json::Json::as_f64)
                .unwrap();
            let s = t
                .get("score")
                .and_then(ahntp_telemetry::json::Json::as_f64)
                .unwrap();
            (v as usize, s)
        })
        .collect();
    // The scan excludes the trustor itself, so k = n ranks everyone else.
    assert_eq!(
        ranked.len(),
        N_USERS - 1,
        "k = n returns every other candidate"
    );
    assert!(
        ranked.iter().all(|&(v, _)| v != 2),
        "the trustor never ranks itself"
    );
    let mut n_tie_groups = 0;
    for w in ranked.windows(2) {
        let ((id_a, score_a), (id_b, score_b)) = (w[0], w[1]);
        assert!(
            score_a >= score_b,
            "scores must descend: {id_a}:{score_a} before {id_b}:{score_b}"
        );
        if score_a == score_b {
            n_tie_groups += 1;
            assert!(
                id_a < id_b,
                "tied at {score_a}: id {id_a} must precede {id_b} (id asc)"
            );
            assert_eq!(
                id_a % 5,
                id_b % 5,
                "ties come from the repeated trustee rows"
            );
        }
    }
    assert!(
        n_tie_groups >= 4,
        "the artifact is built to tie; only {n_tie_groups} adjacent ties seen"
    );
    front.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// Users enough for the trustee head to split into groups on the first
/// `/topk` (below two groups' worth it is never permuted).
const GROUPED_USERS: usize = 1000;

/// Trustee rows around eight directions, every fifth row an exact copy of
/// its direction, so groups form and ties cross them.
fn grouped_artifact(seed: u64) -> TrustArtifact {
    let mut rng = TestRng::from_label(&format!("shard-grouped-{seed}"));
    let head_dim = 4;
    let mut unit = |scale: f64| -> Vec<f32> {
        (0..head_dim)
            .map(|_| ((rng.next_f64() * 2.0 - 1.0) * scale) as f32)
            .collect()
    };
    let directions: Vec<Vec<f32>> = (0..8).map(|_| unit(1.0)).collect();
    let trustee: Vec<f32> = (0..GROUPED_USERS)
        .flat_map(|v| {
            let noise = if v % 5 == 0 {
                vec![0.0; head_dim]
            } else {
                unit(0.1)
            };
            directions[v % 8]
                .iter()
                .zip(noise)
                .map(|(c, e)| c + e)
                .collect::<Vec<f32>>()
        })
        .collect();
    let trustor: Vec<f32> = (0..GROUPED_USERS).flat_map(|_| unit(1.0)).collect();
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: 0x9a0u64.wrapping_add(seed),
        calibration: 0.5,
        n_users: GROUPED_USERS,
        emb_dim: 1,
        head_dim,
        embeddings: vec![0.0; GROUPED_USERS].into(),
        trustor_head: trustor.into(),
        trustee_head: trustee.into(),
    }
}

/// The `/topk` body the never-grouped in-process index gives for `user`.
fn topk_body(index: &TrustIndex, user: usize, k: usize) -> String {
    use ahntp_telemetry::json::Json;
    let trustees = index
        .top_k_trustees(user, k)
        .expect("user in range")
        .into_iter()
        .map(|(v, s)| Json::obj([("user", v.into()), ("score", s.into())]))
        .collect();
    Json::obj([
        ("user", user.into()),
        ("trustees", Json::Arr(trustees)),
        ("backend", index.backend_name().into()),
    ])
    .to_line()
}

/// Servers group their trustee head on the first `/topk`; the grouped
/// node and a front over grouped shards must still answer byte for byte
/// what the never-grouped in-process index does, for every `k` up to a
/// `k` no heap could be allocated for (which the front forwards
/// verbatim).
#[test]
fn grouped_servers_answer_the_ungrouped_index_byte_for_byte() {
    let artifact = grouped_artifact(5);
    let oracle = exact_index(&artifact);
    let single = serve(exact_index(&artifact), &config()).expect("bind single");
    let (shards, front) = start_cluster(&artifact, &[(0, 333), (333, 340), (340, GROUPED_USERS)]);
    for user in [0, 1, 337, 500, GROUPED_USERS - 1] {
        for k in [1usize, 10, 50, GROUPED_USERS - 1, GROUPED_USERS + 5] {
            let want = topk_body(&oracle, user, k);
            let path = format!("/topk?user={user}&k={k}");
            assert_eq!(
                get(single.addr(), &path),
                (200, want.clone()),
                "single {path}"
            );
            assert_eq!(get(front.addr(), &path), (200, want), "front {path}");
        }
    }
    let huge = "/topk?user=3&k=100000000000";
    let want = topk_body(&oracle, 3, GROUPED_USERS);
    assert_eq!(get(front.addr(), huge), (200, want.clone()), "front {huge}");
    assert_eq!(get(single.addr(), huge), (200, want), "single {huge}");
    assert_eq!(get(front.addr(), "/healthz").0, 200);
    front.shutdown();
    for s in shards {
        s.shutdown();
    }
    single.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random artifacts through random-ish layouts: split points drawn
    /// from the seed, byte-compared against the single node. Complements
    /// the fixed sweep above with layouts nobody hand-picked.
    #[test]
    fn random_layouts_are_byte_identical(seed in 0u64..1_000_000) {
        let artifact = tied_artifact(seed);
        let mut rng = TestRng::from_label(&format!("shard-layout-{seed}"));
        let n_shards = 2 + rng.below(3); // 2..=4
        // Distinct interior split points make contiguous uneven ranges.
        let mut cuts = std::collections::BTreeSet::new();
        while cuts.len() < n_shards - 1 {
            cuts.insert(1 + rng.below(N_USERS - 1));
        }
        let mut ranges = Vec::new();
        let mut lo = 0usize;
        for cut in cuts {
            ranges.push((lo, cut));
            lo = cut;
        }
        ranges.push((lo, N_USERS));

        let single = serve(exact_index(&artifact), &config()).expect("bind single");
        let (shards, front) = start_cluster(&artifact, &ranges);
        for user in [0, N_USERS / 2, N_USERS - 1] {
            for k in [1usize, 5, N_USERS] {
                let path = format!("/topk?user={user}&k={k}");
                let (_, s_body) = get(single.addr(), &path);
                let (_, f_body) = get(front.addr(), &path);
                prop_assert_eq!(
                    &s_body, &f_body,
                    "ranges {:?} user={} k={}", ranges, user, k
                );
            }
        }
        let body = score_body();
        let (_, s_body) = post(single.addr(), "/score", &body);
        let (_, f_body) = post(front.addr(), "/score", &body);
        prop_assert_eq!(&s_body, &f_body, "/score at ranges {:?}", ranges);
        front.shutdown();
        for s in shards {
            s.shutdown();
        }
        single.shutdown();
    }
}
