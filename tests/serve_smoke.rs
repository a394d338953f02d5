//! End-to-end smoke test of the serving stack, as close to deployment as
//! a test gets: train a tiny model, export the `AHNTPSRV1` artifact,
//! serve it over a real TCP socket, and check that HTTP answers match
//! `Ahntp::predict` — then that metrics, the run ledger, and graceful
//! shutdown all hold up. This is the CI serve smoke step.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_bench::loadgen::{run_load, LoadConfig};
use ahntp_data::{DatasetConfig, LabeledPair, TrustDataset};
use ahntp_eval::TrustModel;
use ahntp_graph::{ppr, trust_prior, PprConfig};
use ahntp_serve::client::{Client, Response};
use ahntp_serve::{serve, DefensePrior, ServeConfig, TrustIndex};
use ahntp_telemetry::json::{parse, Json};
use ahntp_telemetry::RunLedger;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn trained_model() -> (TrustDataset, Vec<LabeledPair>, Ahntp) {
    let dataset = TrustDataset::generate(&DatasetConfig::ciao_like(80, 11));
    let split = dataset.split(0.8, 0.2, 2, 42);
    let mut model = Ahntp::new(
        &dataset.features,
        &dataset.attributes,
        &split.train_graph,
        &AhntpConfig {
            conv_dims: vec![16, 8],
            tower_dims: vec![8],
            seed: 11,
            ..AhntpConfig::default()
        },
    );
    for _ in 0..5 {
        model.train_epoch(&split.train);
    }
    let test = split.test.clone();
    (dataset, test, model)
}

#[test]
fn serve_smoke_end_to_end() {
    let (_dataset, test_pairs, model) = trained_model();
    // Under a context of its own, which the server inherits: `/metrics`
    // and the ledger count this run's requests and no other's.
    ahntp_par::Context::fresh().run(|| serve_smoke(&test_pairs, &model));
}

fn serve_smoke(test_pairs: &[LabeledPair], model: &Ahntp) {
    ahntp_telemetry::set_enabled(true);

    // Export → encode → decode → index: the full artifact path.
    let artifact = model.export_artifact();
    let index = TrustIndex::load(&artifact.encode_v2()).expect("exported artifact loads");
    assert_eq!(index.fingerprint(), model.architecture_fingerprint());
    let tol = 1e-6;

    // Direct index scores match the training-side forward pass.
    for pair in test_pairs.iter().take(20) {
        let served = index.score(pair.trustor, pair.trustee).unwrap();
        let trained = model.predict_pair(pair.trustor, pair.trustee);
        assert!(
            (f64::from(served) - f64::from(trained)).abs() < tol,
            "index {served} vs model {trained} for ({}, {})",
            pair.trustor,
            pair.trustee
        );
    }

    let server = serve(
        index,
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();

    // Health first.
    let mut conn = Client::connect(addr, TIMEOUT).expect("connect");
    let Response { status, body, .. } = conn.get("/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    let health = parse(&body).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("n_users").and_then(Json::as_f64), Some(80.0));

    // Scores over the wire match Ahntp::predict within 1e-6.
    let pairs: Vec<&LabeledPair> = test_pairs.iter().take(10).collect();
    let body_json = format!(
        "{{\"pairs\":[{}]}}",
        pairs
            .iter()
            .map(|p| format!("[{},{}]", p.trustor, p.trustee))
            .collect::<Vec<_>>()
            .join(",")
    );
    let Response { status, body, .. } = conn.post("/score", &body_json).unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    let Some(Json::Arr(scores)) = doc.get("scores") else {
        panic!("no scores array in {body}");
    };
    assert_eq!(scores.len(), pairs.len());
    for (pair, score) in pairs.iter().zip(scores) {
        let over_http = score.as_f64().unwrap();
        let direct = f64::from(model.predict_pair(pair.trustor, pair.trustee));
        assert!(
            (over_http - direct).abs() < tol,
            "http {over_http} vs model {direct} for ({}, {})",
            pair.trustor,
            pair.trustee
        );
    }
    // The response names the backend it was scored with.
    assert_eq!(
        doc.get("backend").and_then(Json::as_str),
        Some("exact"),
        "{body}"
    );

    // Top-k: sorted, and its head is the brute-force argmax over the
    // model itself.
    let Response { status, body, .. } = conn.get("/topk?user=0&k=5").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    let Some(Json::Arr(trustees)) = doc.get("trustees") else {
        panic!("no trustees in {body}");
    };
    assert_eq!(trustees.len(), 5, "{body}");
    let served: Vec<(usize, f64)> = trustees
        .iter()
        .map(|t| {
            (
                t.get("user").and_then(Json::as_f64).unwrap() as usize,
                t.get("score").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    for w in served.windows(2) {
        assert!(
            w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
            "top-k not in (score desc, id asc) order: {served:?}"
        );
    }
    let best_direct = (0..80usize)
        .filter(|&v| v != 0)
        .max_by(|&a, &b| {
            model
                .predict_pair(0, a)
                .total_cmp(&model.predict_pair(0, b))
        })
        .unwrap();
    assert_eq!(served[0].0, best_direct);

    // A burst of concurrent load, so the batch histograms see real traffic.
    let load = run_load(
        addr,
        &LoadConfig {
            connections: 3,
            requests_per_connection: 30,
            pairs_per_request: 4,
            n_users: 80,
        },
    );
    assert_eq!(load.failed, 0, "{}", load.summary());
    assert!(load.p50_us <= load.p99_us);
    assert!(load.throughput_rps > 0.0);

    // The /metrics snapshot carries the latency and batch-size histograms.
    let Response { status, body, .. } = conn.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let metrics = parse(&body).expect("metrics endpoint emits valid JSON");
    let number = |doc: &Json, field: &str| doc.get(field).and_then(Json::as_f64).unwrap();
    // /healthz, /score, /topk, the 90 of the burst, and this read.
    assert_eq!(number(&metrics, "serve.http.requests"), 94.0, "{body}");
    // Latency is recorded once a response is written: all 93 answered
    // requests, less the burst's last if its worker is still at it.
    let latency = metrics.get("serve.request.us").expect("latency histogram");
    assert!((92.0..=93.0).contains(&number(latency, "count")), "{body}");
    // Every scored pair went through exactly one batch: 10 + 90 × 4.
    let batches = metrics
        .get("serve.score.batch_size")
        .expect("batch-size histogram");
    assert_eq!(number(batches, "sum"), 370.0, "{body}");
    assert!((1.0..=91.0).contains(&number(batches, "count")), "{body}");

    // The same histograms land in a run ledger's run_end record.
    let dir = std::env::temp_dir().join(format!("ahntp-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ledger = RunLedger::create_in(&dir, "serve-smoke", Json::Null).expect("open ledger");
    let ledger_path = ledger.path().to_path_buf();
    ledger.finish([("endpoint", Json::from(addr.to_string()))]);
    let text = std::fs::read_to_string(&ledger_path).unwrap();
    let run_end = text
        .lines()
        .map(|l| parse(l).unwrap())
        .find(|r| r.get("kind").and_then(Json::as_str) == Some("run_end"))
        .expect("ledger has run_end");
    let ledger_metrics = run_end.get("metrics").expect("run_end carries metrics");
    assert!(ledger_metrics.get("serve.request.us").is_some());
    assert!(ledger_metrics.get("serve.score.batch_size").is_some());
    let _ = std::fs::remove_dir_all(&dir);

    // Graceful shutdown with requests still in flight: all clients either
    // complete or see a clean close, and shutdown() returns.
    let hammers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let Ok(mut c) = Client::connect(addr, TIMEOUT) else {
                        return;
                    };
                    if c.post("/score", r#"{"pairs":[[1,2]]}"#).is_err() {
                        return;
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    server.shutdown();
    for h in hammers {
        h.join().expect("client thread survived shutdown");
    }
}

/// Defended serving end-to-end: a PPR trust prior attached through
/// `ServeConfig::defense` reaches `/score` and `/topk`, `/healthz`
/// advertises it, and every served value is exactly the documented
/// `(1 − α)·calibrated + α·prior[trustee]` blend.
#[test]
fn defended_serve_smoke() {
    let (dataset, test_pairs, model) = trained_model();
    let artifact = model.export_artifact();
    let undefended = TrustIndex::load(&artifact.encode_v2()).expect("artifact loads");

    // The prior CI serves in production: personalized PageRank from a
    // handful of honest seeds, max-normalised into [0, 1].
    let alpha = 0.4f32;
    let mass = ppr(&dataset.graph, &[0, 1, 2, 3], &PprConfig::default());
    let prior = DefensePrior::new(alpha, trust_prior(&mass)).expect("valid prior");
    let local = undefended
        .clone()
        .with_defense(prior.clone())
        .expect("prior covers every user");

    let server = serve(
        undefended.clone(),
        &ServeConfig {
            workers: 1,
            defense: Some(prior.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr();
    let mut conn = Client::connect(addr, TIMEOUT).expect("connect");

    // Health advertises the defended state and the blend weight.
    let Response { status, body, .. } = conn.get("/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    let health = parse(&body).unwrap();
    assert!(
        matches!(health.get("defended"), Some(Json::Bool(true))),
        "{body}"
    );
    let advertised = health
        .get("defense_alpha")
        .and_then(Json::as_f64)
        .expect("defended health carries alpha");
    assert!((advertised - f64::from(alpha)).abs() < 1e-6, "{body}");

    // Served pair scores are the exact blend: compare against both the
    // defended local index and the formula spelled out from the
    // undefended score.
    let pairs: Vec<&LabeledPair> = test_pairs.iter().take(10).collect();
    let body_json = format!(
        "{{\"pairs\":[{}]}}",
        pairs
            .iter()
            .map(|p| format!("[{},{}]", p.trustor, p.trustee))
            .collect::<Vec<_>>()
            .join(",")
    );
    let Response { status, body, .. } = conn.post("/score", &body_json).unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    let Some(Json::Arr(scores)) = doc.get("scores") else {
        panic!("no scores array in {body}");
    };
    for (pair, served) in pairs.iter().zip(scores) {
        let served = served.as_f64().unwrap();
        let direct = f64::from(local.score(pair.trustor, pair.trustee).unwrap());
        let raw = f64::from(undefended.score(pair.trustor, pair.trustee).unwrap());
        let formula = (1.0 - f64::from(alpha)) * raw
            + f64::from(alpha) * f64::from(prior.trust()[pair.trustee]);
        assert!(
            (served - direct).abs() < 1e-6,
            "http {served} vs defended index {direct} for ({}, {})",
            pair.trustor,
            pair.trustee
        );
        assert!(
            (served - formula).abs() < 1e-6,
            "http {served} vs blend formula {formula} for ({}, {})",
            pair.trustor,
            pair.trustee
        );
    }

    // Defended top-k is served from the exhaustive blended scan: ids and
    // scores agree with the defended local index, in (score desc, id asc)
    // order.
    let Response { status, body, .. } = conn.get("/topk?user=0&k=5").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc = parse(&body).unwrap();
    let Some(Json::Arr(trustees)) = doc.get("trustees") else {
        panic!("no trustees in {body}");
    };
    let expected = local.top_k_trustees(0, 5).unwrap();
    assert_eq!(trustees.len(), expected.len(), "{body}");
    for (served, &(want_user, want_score)) in trustees.iter().zip(&expected) {
        let user = served.get("user").and_then(Json::as_f64).unwrap() as usize;
        let score = served.get("score").and_then(Json::as_f64).unwrap();
        assert_eq!(user, want_user, "{body}");
        assert!(
            (score - f64::from(want_score)).abs() < 1e-6,
            "served {score} vs defended index {want_score} for trustee {user}"
        );
    }
    for w in expected.windows(2) {
        assert!(
            w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
            "defended top-k not in (score desc, id asc) order"
        );
    }

    server.shutdown();
}
