//! Serving quickstart: train AHNTP, export a serveable artifact, stand up
//! the HTTP server, and query it like a client would.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```
//!
//! The flow is the deployment story in miniature: training produces an
//! `AHNTPSRV1` artifact file (embeddings + scoring head, no graph
//! machinery), and any process that can read the file can answer trust
//! queries over HTTP.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_bench::loadgen::{run_load, LoadConfig};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_eval::{train_and_evaluate, TrainConfig};
use ahntp_serve::client::{Client, Response};
use ahntp_serve::{serve, ServeConfig, TrustIndex};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn main() {
    // Serving metrics (latency/batch histograms) go through the telemetry
    // registry; turn it on so /metrics has something to show.
    ahntp_telemetry::set_enabled(true);

    // 1. Train a small model (see examples/quickstart.rs for this part).
    let dataset = TrustDataset::generate(&DatasetConfig::ciao_like(150, 7));
    let split = dataset.split(0.8, 0.2, 2, 42);
    let mut model = Ahntp::new(
        &dataset.features,
        &dataset.attributes,
        &split.train_graph,
        &AhntpConfig::small(),
    );
    let report = train_and_evaluate(
        &mut model,
        &split.train,
        &split.test,
        &TrainConfig {
            epochs: 40,
            ..TrainConfig::default()
        },
    );
    println!("trained: test {}", report.test);

    // 2. Export the serveable artifact. The file stands alone: embeddings
    //    and scoring head, frozen, with the architecture fingerprint.
    let artifact = model.export_artifact();
    let path = std::env::temp_dir().join("ahntp_quickstart.ahntpsrv");
    std::fs::write(&path, artifact.encode_v2()).expect("write artifact");
    println!(
        "exported {} users × {} head dims to {}",
        artifact.n_users,
        artifact.head_dim,
        path.display()
    );

    // 3. Load it back into a scoring index and serve. Port 0 = let the OS
    //    pick; a deployment would pass a real address.
    let bytes = std::fs::read(&path).expect("read artifact");
    let index = TrustIndex::load(&bytes).expect("valid artifact");
    let server = serve(index, &ServeConfig::default()).expect("bind loopback");
    println!("serving on http://{}", server.addr());

    // 4. Query it like a client: health, a scored batch, a ranking.
    let mut conn = Client::connect(server.addr(), TIMEOUT).expect("connect");
    let Response { status, body, .. } = conn.get("/healthz").unwrap();
    println!("GET /healthz         -> {status} {body}");
    let Response { status, body, .. } = conn
        .post("/score", r#"{"pairs":[[0,1],[1,0],[2,3]]}"#)
        .unwrap();
    println!("POST /score          -> {status} {body}");
    let Response { status, body, .. } = conn.get("/topk?user=0&k=3").unwrap();
    println!("GET /topk?user=0&k=3 -> {status} {body}");

    // 5. A short closed-loop load run, then the server's own metrics view.
    let load = run_load(
        server.addr(),
        &LoadConfig {
            connections: 2,
            requests_per_connection: 50,
            pairs_per_request: 4,
            n_users: artifact.n_users,
        },
    );
    println!("load: {}", load.summary());
    let Response { status, body, .. } = conn.get("/metrics").unwrap();
    println!("GET /metrics         -> {status} ({} bytes)", body.len());

    server.shutdown();
    let _ = std::fs::remove_file(&path);
    println!("server stopped cleanly");
}
