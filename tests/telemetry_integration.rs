//! Telemetry across the full stack: a real training run emits a parseable
//! JSONL ledger with per-epoch records and kernel counters, and a real
//! autograd overflow is traced back to the op that produced it.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{DatasetConfig, LabeledPair, TrustDataset};
use ahntp_eval::{
    train_and_evaluate, train_and_evaluate_observed, LedgerObserver, TrainConfig, TrustModel,
};
use ahntp_telemetry::json::{parse, Json};

#[test]
fn real_training_run_emits_ledger_and_kernel_counters() {
    // Under a context of its own: the counters below, and the snapshot the
    // ledger embeds, are this run's and nobody else's.
    ahntp_par::Context::fresh().run(real_training_run);
}

fn real_training_run() {
    ahntp_telemetry::set_enabled(true);
    let dir = std::env::temp_dir().join(format!(
        "ahntp-telemetry-integration-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(60, 3));
    let split = ds.split(0.8, 0.2, 2, 42);
    let mut cfg = AhntpConfig::small();
    cfg.seed = 3;
    let mut model = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);

    let mut observer = LedgerObserver::in_dir(&dir);
    let report = train_and_evaluate_observed(
        &mut model,
        &split.train,
        &split.test,
        &TrainConfig {
            epochs: 3,
            patience: 0,
            ..TrainConfig::default()
        },
        &mut observer,
    );
    assert_eq!(report.epochs_run, 3);
    assert_eq!(report.epoch_losses.len(), 3);
    assert!(report.best_loss.is_finite());

    // Kernel counters accumulated during the run.
    assert!(
        ahntp_telemetry::counter_get("tensor.matmul.calls") > 0,
        "dense kernels must be counted"
    );
    assert!(
        ahntp_telemetry::counter_get("tensor.mul_dense.nnz_in") > 0,
        "sparse aggregation nnz must be counted"
    );
    assert!(
        ahntp_telemetry::counter_get("hypergraph.edges_added") > 0,
        "hypergraph construction must be counted"
    );

    // The ledger parses line-by-line with one record per epoch.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("ledger dir")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(files.len(), 1);
    let text = std::fs::read_to_string(&files[0]).expect("readable");
    let records: Vec<Json> = text
        .lines()
        .map(|l| parse(l).expect("valid JSONL line"))
        .collect();
    let epochs: Vec<&Json> = records
        .iter()
        .filter(|r| r.get("kind").and_then(Json::as_str) == Some("epoch"))
        .collect();
    assert_eq!(epochs.len(), 3, "one epoch record per epoch");
    for (i, r) in epochs.iter().enumerate() {
        assert_eq!(r.get("epoch").and_then(Json::as_f64), Some(i as f64));
        let loss = r.get("loss").and_then(Json::as_f64).expect("loss");
        assert!(loss.is_finite());
        assert!(r.get("wall_us").and_then(Json::as_f64).expect("wall") >= 0.0);
        // AHNTP trains with Adam, which publishes the grad-norm gauge.
        let gn = r
            .get("grad_norm")
            .and_then(Json::as_f64)
            .expect("grad_norm");
        assert!(gn.is_finite() && gn > 0.0, "grad norm {gn}");
    }
    let end = records.last().expect("non-empty ledger");
    assert_eq!(end.get("kind").and_then(Json::as_str), Some("run_end"));
    let metrics = end.get("metrics").expect("metrics snapshot in run_end");
    for name in [
        "tensor.matmul.calls",
        "tensor.mul_dense.nnz_in",
        "train.epochs",
    ] {
        assert_eq!(
            metrics.get(name).and_then(Json::as_f64),
            Some(ahntp_telemetry::counter_get(name) as f64),
            "{name}: the ledger embeds this run's counters exactly"
        );
    }
    assert_eq!(ahntp_telemetry::counter_get("train.epochs"), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A model whose forward pass overflows f32 through a real autograd graph.
struct Exploding;

impl TrustModel for Exploding {
    fn name(&self) -> String {
        "exploding".into()
    }
    fn train_epoch(&mut self, _pairs: &[LabeledPair]) -> f32 {
        let g = ahntp_autograd::Graph::new();
        let x = g.leaf(ahntp_tensor::Tensor::full(1, 1, 100.0));
        let loss = x.exp().sum(); // e^100 overflows f32 → inf
        loss.backward();
        loss.value().as_slice()[0]
    }
    fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
        vec![0.5; pairs.len()]
    }
}

#[test]
fn autograd_overflow_is_traced_to_the_op_in_the_panic() {
    ahntp_telemetry::set_finite_checks(true);
    ahntp_telemetry::clear_nonfinite();
    let pairs: Vec<LabeledPair> = (0..4)
        .map(|i| LabeledPair {
            trustor: i,
            trustee: i + 1,
            label: i % 2 == 0,
        })
        .collect();
    let result = std::panic::catch_unwind(|| {
        train_and_evaluate(&mut Exploding, &pairs, &pairs, &TrainConfig::default());
    });
    let err = result.expect_err("inf loss must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic payload is a String");
    assert!(msg.contains("training diverged"), "got: {msg}");
    assert!(msg.contains("at epoch 0"), "got: {msg}");
    assert!(
        msg.contains("first non-finite output from op `exp`"),
        "divergence provenance must name the op, got: {msg}"
    );
    ahntp_telemetry::set_finite_checks(false);
    ahntp_telemetry::clear_nonfinite();
}
