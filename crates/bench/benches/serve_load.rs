//! Closed-loop load benchmark for the serving stack.
//!
//! Trains a small AHNTP model, exports its `AHNTPSRV1` artifact, serves
//! it, and drives `POST /score` at increasing client concurrency,
//! printing per-level p50/p99 latency and throughput plus the server's
//! own histogram view of the same traffic. Scale with the usual knobs
//! (`AHNTP_USERS_CIAO`, `AHNTP_EPOCHS`, …).

use ahntp::Ahntp;
use ahntp_bench::loadgen::{run_load, LoadConfig};
use ahntp_bench::{ahntp_config, print_row, Dataset, Scale};
use ahntp_eval::TrustModel;
use ahntp_serve::{serve, ServeConfig, TrustIndex};
use ahntp_telemetry::{metrics_snapshot, MetricValue};

fn main() {
    ahntp_telemetry::set_enabled(true);
    let scale = Scale::from_env();
    let ds = Dataset::Ciao.generate(&scale);
    let split = ds.split(0.8, 0.2, 2, scale.seed);
    let mut model = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &ahntp_config(&scale));
    eprintln!("training {} epochs on {} users…", scale.epochs, ds.graph.n());
    for _ in 0..scale.epochs {
        model.train_epoch(&split.train);
    }

    let artifact = model.export_artifact();
    let n_users = artifact.n_users;
    let index = TrustIndex::load(&artifact.encode_v2()).expect("artifact round-trip");
    let server = serve(index, &ServeConfig::default()).expect("bind loopback");
    let addr = server.addr();
    eprintln!("serving {n_users} users on {addr}");

    println!("\n## Serving throughput (closed loop, 8 pairs/request)\n");
    print_row(&[
        "connections".into(),
        "requests".into(),
        "p50 (us)".into(),
        "p99 (us)".into(),
        "mean (us)".into(),
        "throughput (req/s)".into(),
    ]);
    print_row(&["---".into(), "---".into(), "---".into(), "---".into(), "---".into(), "---".into()]);
    for connections in [1usize, 2, 4, 8] {
        let report = run_load(
            addr,
            &LoadConfig {
                connections,
                requests_per_connection: 200,
                pairs_per_request: 8,
                n_users,
            },
        );
        assert_eq!(report.failed, 0, "load run saw failures: {}", report.summary());
        print_row(&[
            connections.to_string(),
            report.completed.to_string(),
            report.p50_us.to_string(),
            report.p99_us.to_string(),
            format!("{:.0}", report.mean_us),
            format!("{:.0}", report.throughput_rps),
        ]);
    }

    // The server-side view of the same traffic.
    let snapshot = metrics_snapshot();
    if let Some(MetricValue::Histogram(h)) = snapshot.get("serve.request.us") {
        eprintln!(
            "server histogram serve.request.us: count {}, p50 ≤{}us, p99 ≤{}us",
            h.count, h.p50, h.p99
        );
    }
    if let Some(MetricValue::Histogram(h)) = snapshot.get("serve.score.batch_size") {
        eprintln!(
            "server histogram serve.score.batch_size: count {}, mean {:.1}, max {}",
            h.count,
            h.mean(),
            h.max
        );
    }
    server.shutdown();
}
