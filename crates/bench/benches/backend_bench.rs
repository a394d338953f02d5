//! Scoring-backend benchmark: per-backend pair-scoring and top-k
//! latency (p50/p99), memory footprint, exact-vs-approximate quality
//! (recall@10, max-abs score delta), and the ivf-vs-exact top-k speedup
//! at the largest index size — printed as markdown tables and emitted as
//! `BENCH` JSON lines for the EXPERIMENTS ledger.
//!
//! Runs on a deterministic clustered synthetic artifact (the geometry IVF
//! exists for) rather than a trained model, so index sizes sweep far past
//! what a test-sized training run produces. A final section serves the
//! largest artifact under every backend and drives it with the closed-loop
//! loadgen, recording served p50/p99 per backend.
//!
//! Knobs: `AHNTP_BACKEND_BENCH_N` (comma-separated index sizes, default
//! `2000,8000,24000`), `AHNTP_BACKEND_BENCH_DIM` (head dim, default 32),
//! `AHNTP_BACKEND_BENCH_QUERIES` (top-k queries per measurement, default
//! 200).

use ahntp_bench::loadgen::{run_load, LoadConfig};
use ahntp_bench::print_row;
use ahntp_nn::TrustArtifact;
use ahntp_serve::{serve, BackendKind, IvfParams, ServeConfig, TrustIndex};
use ahntp_telemetry::json::Json;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("warning: {name}={v:?} is not a number; using {default}");
            default
        }),
        Err(_) => default,
    }
}

fn env_sizes() -> Vec<usize> {
    match std::env::var("AHNTP_BACKEND_BENCH_N") {
        Ok(v) => {
            let sizes: Vec<usize> =
                v.split(',').filter_map(|s| s.trim().parse().ok()).collect();
            if sizes.is_empty() {
                eprintln!("warning: AHNTP_BACKEND_BENCH_N={v:?} unusable; using defaults");
                vec![2000, 8000, 24000]
            } else {
                sizes
            }
        }
        Err(_) => vec![2000, 8000, 24000],
    }
}

/// Deterministic LCG (same constants as the workspace's test suites).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn unit_row(rng: &mut u64, d: usize) -> Vec<f32> {
    let v: Vec<f32> = (0..d)
        .map(|_| (lcg(rng) as f32 / (1u64 << 31) as f32) - 1.0)
        .collect();
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    v.into_iter().map(|x| x / norm).collect()
}

/// Clustered unit rows: `n` rows scattered around `centers` directions —
/// the workload where coarse clustering genuinely prunes the scan.
fn clustered_artifact(n: usize, d: usize) -> TrustArtifact {
    let centers = (n / 250).clamp(8, 64);
    let mut rng: u64 = 0x5eed_2024_0808;
    let centroids: Vec<Vec<f32>> = (0..centers).map(|_| unit_row(&mut rng, d)).collect();
    let mut heads = || -> Vec<f32> {
        let mut rows = Vec::with_capacity(n * d);
        for i in 0..n {
            let c = &centroids[i % centers];
            let noise = unit_row(&mut rng, d);
            let mut row: Vec<f32> =
                c.iter().zip(&noise).map(|(c, e)| c + 0.2 * e).collect();
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
            row.iter_mut().for_each(|x| *x /= norm);
            rows.extend(row);
        }
        rows
    };
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: 0x6bc4_17ee_2024_0808,
        calibration: 0.5,
        n_users: n,
        emb_dim: 1,
        head_dim: d,
        embeddings: vec![0.0; n].into(),
        trustor_head: heads().into(),
        trustee_head: heads().into(),
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

struct Quality {
    recall_at_k: f64,
    max_score_delta: f64,
}

struct Timing {
    p50_us: f64,
    p99_us: f64,
}

fn time_per_call(iters: usize, mut f: impl FnMut()) -> Timing {
    f(); // warmup
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    Timing {
        p50_us: percentile(&samples, 0.50),
        p99_us: percentile(&samples, 0.99),
    }
}

fn main() {
    ahntp_telemetry::set_enabled(true);
    let sizes = env_sizes();
    let d = env_usize("AHNTP_BACKEND_BENCH_DIM", 32);
    let queries = env_usize("AHNTP_BACKEND_BENCH_QUERIES", 200).max(1);
    let k = 10usize;
    let backends = [
        BackendKind::Exact,
        BackendKind::Int8,
        BackendKind::Ivf(IvfParams::default()),
    ];

    let mut largest: Option<TrustArtifact> = None;
    for &n in &sizes {
        let artifact = clustered_artifact(n, d);
        let exact = TrustIndex::from_artifact_with(artifact.clone(), BackendKind::Exact)
            .expect("valid artifact");

        // Shared probe workload.
        let mut rng: u64 = 0x9e37_79b9 ^ n as u64;
        let pairs: Vec<(usize, usize)> = (0..1024)
            .map(|_| ((lcg(&mut rng) as usize) % n, (lcg(&mut rng) as usize) % n))
            .collect();
        let trustors: Vec<usize> =
            (0..queries).map(|_| (lcg(&mut rng) as usize) % n).collect();
        let exact_scores = exact.score_pairs(&pairs).expect("exact scores");
        let exact_topk: Vec<Vec<usize>> = trustors
            .iter()
            .map(|&u| {
                exact
                    .top_k_trustees(u, k)
                    .expect("exact topk")
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect()
            })
            .collect();

        println!("\n## Scoring backends at n = {n}, d = {d} (k = {k})\n");
        print_row(&[
            "backend".into(),
            "score p50 (us)".into(),
            "score p99 (us)".into(),
            "topk p50 (us)".into(),
            "topk p99 (us)".into(),
            "bytes/user".into(),
            format!("recall@{k}"),
            "max |Δscore|".into(),
        ]);
        print_row(&(0..8).map(|_| "---".into()).collect::<Vec<_>>());

        let mut exact_topk_p50 = 0.0f64;
        for kind in backends {
            let index = TrustIndex::from_artifact_with(artifact.clone(), kind)
                .expect("valid artifact");
            let score_t = time_per_call(30, || {
                let _ = index.score_pairs(&pairs).unwrap();
            });
            // One timed call = one top-k query, cycled over the probe set.
            let mut qi = 0usize;
            let topk_t = time_per_call(queries, || {
                let _ = index.top_k_trustees(trustors[qi % trustors.len()], k).unwrap();
                qi += 1;
            });
            if kind == BackendKind::Exact {
                exact_topk_p50 = topk_t.p50_us;
            }

            let scores = index.score_pairs(&pairs).unwrap();
            let max_delta = scores
                .iter()
                .zip(&exact_scores)
                .fold(0.0f64, |m, (a, b)| m.max((f64::from(*a) - f64::from(*b)).abs()));
            let mut hit = 0usize;
            let mut total = 0usize;
            for (&u, truth) in trustors.iter().zip(&exact_topk) {
                let got: std::collections::BTreeSet<usize> = index
                    .top_k_trustees(u, k)
                    .unwrap()
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect();
                hit += truth.iter().filter(|v| got.contains(v)).count();
                total += truth.len();
            }
            let quality = Quality {
                recall_at_k: if total == 0 { 1.0 } else { hit as f64 / total as f64 },
                max_score_delta: max_delta,
            };
            let bound = f64::from(index.score_error_bound());
            assert!(
                quality.max_score_delta <= bound.max(1e-9),
                "{}: measured delta {} above stated bound {bound}",
                kind.name(),
                quality.max_score_delta
            );

            print_row(&[
                kind.name().into(),
                format!("{:.1}", score_t.p50_us),
                format!("{:.1}", score_t.p99_us),
                format!("{:.1}", topk_t.p50_us),
                format!("{:.1}", topk_t.p99_us),
                index.bytes_per_user().to_string(),
                format!("{:.4}", quality.recall_at_k),
                format!("{:.2e}", quality.max_score_delta),
            ]);
            let mut entries = vec![
                ("bench", Json::from("backend")),
                ("backend", kind.name().into()),
                ("n_users", n.into()),
                ("head_dim", d.into()),
                ("k", k.into()),
                ("score_pairs_p50_us", score_t.p50_us.into()),
                ("score_pairs_p99_us", score_t.p99_us.into()),
                ("topk_p50_us", topk_t.p50_us.into()),
                ("topk_p99_us", topk_t.p99_us.into()),
                ("bytes_per_user", index.bytes_per_user().into()),
                ("recall_at_k", quality.recall_at_k.into()),
                ("max_score_delta", quality.max_score_delta.into()),
                ("score_error_bound", bound.into()),
            ];
            if kind.name() == "ivf" && exact_topk_p50 > 0.0 {
                entries.push((
                    "topk_speedup_vs_exact",
                    (exact_topk_p50 / topk_t.p50_us).into(),
                ));
            }
            println!("BENCH {}", Json::obj(entries).to_line());
        }
        largest = Some(artifact);
    }

    // Served latency per backend: the whole stack (HTTP parse, batch
    // queue, backend kernels) under the closed-loop generator.
    let artifact = largest.expect("at least one size benched");
    let n = artifact.n_users;
    println!("\n## Served latency per backend at n = {n} (closed loop, 8 pairs/request)\n");
    print_row(&[
        "backend".into(),
        "p50 (us)".into(),
        "p99 (us)".into(),
        "throughput (req/s)".into(),
    ]);
    print_row(&(0..4).map(|_| "---".into()).collect::<Vec<_>>());
    for kind in backends {
        let index = TrustIndex::from_artifact_with(artifact.clone(), kind)
            .expect("valid artifact");
        let server = serve(
            index,
            &ServeConfig { workers: 2, backend: Some(kind), ..ServeConfig::default() },
        )
        .expect("bind loopback");
        let report = run_load(
            server.addr(),
            &LoadConfig {
                connections: 2,
                requests_per_connection: 100,
                pairs_per_request: 8,
                n_users: n,
            },
        );
        assert_eq!(report.failed, 0, "{}: {}", kind.name(), report.summary());
        print_row(&[
            kind.name().into(),
            report.p50_us.to_string(),
            report.p99_us.to_string(),
            format!("{:.0}", report.throughput_rps),
        ]);
        println!(
            "BENCH {}",
            Json::obj([
                ("bench", Json::from("backend_served")),
                ("backend", kind.name().into()),
                ("n_users", n.into()),
                ("served_p50_us", report.p50_us.into()),
                ("served_p99_us", report.p99_us.into()),
                ("throughput_rps", report.throughput_rps.into()),
            ])
            .to_line()
        );
        server.shutdown();
    }
}
