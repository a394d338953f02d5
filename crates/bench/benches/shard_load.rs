//! Sharded-serving benchmark: `/topk` fan-out latency through the
//! scatter-gather front at 1/2/4 shards versus a plain single node, and
//! a hot-snapshot-swap-under-load run that counts dropped requests
//! (the contract: zero). Markdown tables plus `BENCH` JSON lines for
//! the EXPERIMENTS ledger.
//!
//! Runs on a deterministic synthetic artifact so the index size sweeps
//! past what a test-sized training run produces. Knobs:
//! `AHNTP_SHARD_BENCH_N` (index size, default 24000),
//! `AHNTP_SHARD_BENCH_QUERIES` (top-k queries per level, default 200),
//! `AHNTP_SHARD_BENCH_CONNS` (closed-loop connections, default 2).

use ahntp_bench::print_row;
use ahntp_nn::TrustArtifact;
use ahntp_serve::client::{Client, Response};
use ahntp_serve::{
    serve, serve_sharded, shard_ranges, BackendKind, ServeConfig, ServerHandle, TrustIndex,
};
use ahntp_telemetry::json::Json;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("warning: {name}={v:?} is not a number; using {default}");
            default
        }),
        Err(_) => default,
    }
}

/// Deterministic LCG (same constants as the workspace's test suites).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn artifact(n: usize, d: usize) -> TrustArtifact {
    let mut rng: u64 = 0x5aa6_dbe4_c000_0001;
    let mut heads = |len: usize| -> Vec<f32> {
        (0..len).map(|_| (lcg(&mut rng) as f32 / (1u64 << 31) as f32) - 1.0).collect()
    };
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: 0x54a6_d10a_2026_0808,
        calibration: 0.5,
        n_users: n,
        emb_dim: 1,
        head_dim: d,
        embeddings: vec![0.0; n].into(),
        trustor_head: heads(n * d).into(),
        trustee_head: heads(n * d).into(),
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Closed-loop `GET /topk` over keep-alive connections; returns sorted
/// per-request latencies (µs) and panics on any non-200.
fn drive_topk(addr: SocketAddr, n_users: usize, queries: usize, conns: usize) -> Vec<f64> {
    let per_conn = queries.div_ceil(conns);
    let samples: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = Client::connect(addr, TIMEOUT).expect("connect");
                    let mut out = Vec::with_capacity(per_conn);
                    for q in 0..per_conn {
                        let user = (c * per_conn + q * 97) % n_users;
                        let started = Instant::now();
                        let Response { status, body, .. } = stream
                            .get(&format!("/topk?user={user}&k=10"))
                                .expect("topk request");
                        assert_eq!(status, 200, "{body}");
                        out.push(started.elapsed().as_secs_f64() * 1e6);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let mut samples = samples;
    samples.sort_by(f64::total_cmp);
    samples
}

fn start_shards(a: &TrustArtifact, n_shards: usize) -> Vec<ServerHandle> {
    shard_ranges(a.n_users, n_shards)
        .into_iter()
        .map(|range| {
            let index = TrustIndex::from_artifact_with(a.clone(), BackendKind::Exact)
                .expect("valid artifact");
            let cfg =
                ServeConfig { workers: 2, shard_range: Some(range), ..ServeConfig::default() };
            serve(index, &cfg).expect("bind shard")
        })
        .collect()
}

fn main() {
    ahntp_telemetry::set_enabled(true);
    let n = env_usize("AHNTP_SHARD_BENCH_N", 24000);
    let queries = env_usize("AHNTP_SHARD_BENCH_QUERIES", 200).max(1);
    let conns = env_usize("AHNTP_SHARD_BENCH_CONNS", 2).max(1);
    let a = artifact(n, 32);
    eprintln!("sharded serving bench: n = {n}, {queries} queries x {conns} connections");

    println!("\n## /topk fan-out latency at n = {n} (closed loop, k = 10)\n");
    print_row(&["topology".into(), "p50 (us)".into(), "p99 (us)".into()]);
    print_row(&["---".into(), "---".into(), "---".into()]);

    // Single node: the baseline the front is measured against.
    let index =
        TrustIndex::from_artifact_with(a.clone(), BackendKind::Exact).expect("valid artifact");
    let single = serve(index, &ServeConfig { workers: 2, ..ServeConfig::default() })
        .expect("bind single");
    let samples = drive_topk(single.addr(), n, queries, conns);
    let (base_p50, base_p99) = (percentile(&samples, 0.50), percentile(&samples, 0.99));
    single.shutdown();
    print_row(&[
        "single".into(),
        format!("{base_p50:.1}"),
        format!("{base_p99:.1}"),
    ]);
    println!(
        "BENCH {}",
        Json::obj([
            ("bench", Json::from("shard_topk")),
            ("topology", "single".into()),
            ("n_users", n.into()),
            ("shards", 1usize.into()),
            ("fronted", false.into()),
            ("topk_p50_us", base_p50.into()),
            ("topk_p99_us", base_p99.into()),
        ])
        .to_line()
    );

    for n_shards in [1usize, 2, 4] {
        let shards = start_shards(&a, n_shards);
        let addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
        let front = serve_sharded(&addrs, &ServeConfig { workers: 2, ..ServeConfig::default() })
            .expect("start front");
        let samples = drive_topk(front.addr(), n, queries, conns);
        let (p50, p99) = (percentile(&samples, 0.50), percentile(&samples, 0.99));
        print_row(&[
            format!("front x{n_shards}"),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
        ]);
        println!(
            "BENCH {}",
            Json::obj([
                ("bench", Json::from("shard_topk")),
                ("topology", format!("front_x{n_shards}").as_str().into()),
                ("n_users", n.into()),
                ("shards", n_shards.into()),
                ("fronted", true.into()),
                ("topk_p50_us", p50.into()),
                ("topk_p99_us", p99.into()),
                ("speedup_vs_single", (base_p50 / p50).into()),
            ])
            .to_line()
        );
        front.shutdown();
        for s in shards {
            s.shutdown();
        }
    }

    // Swap under load: closed-loop clients on the front while snapshots
    // hot-swap; the contract is zero non-200 responses.
    let shards = start_shards(&a, 2);
    let addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
    let front = serve_sharded(&addrs, &ServeConfig { workers: 2, ..ServeConfig::default() })
        .expect("start front");
    let addr = front.addr();
    let snap_path =
        std::env::temp_dir().join(format!("ahntp_shard_load_{}.ahntpsrv", std::process::id()));
    std::fs::write(&snap_path, a.encode_v2()).expect("write snapshot");

    let swap_body = format!("{{\"path\":\"{}\"}}", snap_path.display());
    let swap_every = (queries / 8).max(1);
    let mut swaps = 0usize;
    let mut dropped = 0usize;
    let started = Instant::now();
    let mut stream = Client::connect(addr, TIMEOUT).expect("connect");
    let mut admin = Client::connect(addr, TIMEOUT).expect("connect admin");
    let mut samples = Vec::with_capacity(queries);
    for q in 0..queries {
        if q % swap_every == 0 {
            let Response { status, body, .. } =
                admin.post("/admin/swap", &swap_body).expect("swap");
            assert_eq!(status, 200, "swap failed: {body}");
            swaps += 1;
        }
        let user = (q * 97) % n;
        let t0 = Instant::now();
        let Response { status, .. } = stream.get(&format!("/topk?user={user}&k=10"))
                .expect("topk under swap");
        if status == 200 {
            samples.push(t0.elapsed().as_secs_f64() * 1e6);
        } else {
            dropped += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    samples.sort_by(f64::total_cmp);
    assert_eq!(dropped, 0, "hot swaps must drop zero requests");
    println!("\n## Hot swap under load at n = {n} (2 shards, {swaps} swaps)\n");
    print_row(&["requests".into(), "swaps".into(), "dropped".into(), "p99 (us)".into()]);
    print_row(&["---".into(), "---".into(), "---".into(), "---".into()]);
    print_row(&[
        queries.to_string(),
        swaps.to_string(),
        dropped.to_string(),
        format!("{:.1}", percentile(&samples, 0.99)),
    ]);
    println!(
        "BENCH {}",
        Json::obj([
            ("bench", Json::from("shard_swap_under_load")),
            ("n_users", n.into()),
            ("shards", 2usize.into()),
            ("requests", queries.into()),
            ("swaps", swaps.into()),
            ("dropped", dropped.into()),
            ("topk_p99_us", percentile(&samples, 0.99).into()),
            ("elapsed_s", elapsed.into()),
        ])
        .to_line()
    );
    let _ = std::fs::remove_file(snap_path);
    front.shutdown();
    for s in shards {
        s.shutdown();
    }
}
