//! The mini-batch exactness harness: proves the defining invariant of the
//! mini-batch pipeline across the whole stack.
//!
//! 1. With sample ratio `1.0`, a single in-order batch, and accumulation
//!    `1`, the mini-batch trainer reproduces the full-batch loss
//!    trajectory **bitwise** — same epochs, same bits, same final
//!    parameters.
//! 2. The fixed-seed 3-epoch trajectories (full-batch and sampled
//!    mini-batch) are pinned in a checked-in golden file, bytes-exact, and
//!    identical under `AHNTP_THREADS ∈ {1, 4}` (the deterministic-kernel
//!    contract of `ahntp-par`).
//!
//! Regenerate the golden file after an *intentional* numeric change with
//! `AHNTP_REGEN_GOLDEN=1 cargo test --test minibatch_exactness`.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{sample_edges, DatasetConfig, MiniBatchConfig, Split, TrustDataset};
use ahntp_eval::{
    train_and_evaluate, train_and_evaluate_minibatch, BatchPlan, BatchTrustModel, TrainConfig,
    TrustModel,
};

fn setup() -> (TrustDataset, Split) {
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(60, 5));
    let split = ds.split(0.8, 0.2, 2, 42);
    (ds, split)
}

fn model(ds: &TrustDataset, split: &Split) -> Ahntp {
    let cfg = AhntpConfig {
        conv_dims: vec![8, 4],
        tower_dims: vec![4],
        ..AhntpConfig::default()
    };
    Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg)
}

fn three_epochs() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        patience: 0,
        ..TrainConfig::default()
    }
}

/// The tentpole invariant, end to end through the public trainer entry
/// points: ratio 1.0 + one batch + accumulation 1 must be *bitwise* the
/// full-batch run.
#[test]
fn exact_minibatch_reproduces_full_batch_bitwise() {
    let (ds, split) = setup();
    let mut full = model(&ds, &split);
    let full_report = train_and_evaluate(&mut full, &split.train, &split.test, &three_epochs());
    let mut mini = model(&ds, &split);
    let mini_report = train_and_evaluate_minibatch(
        &mut mini,
        &split.train,
        &split.test,
        &three_epochs(),
        &MiniBatchConfig::exact(7),
    );
    assert_eq!(full_report.epochs_run, mini_report.epochs_run);
    for (e, (a, b)) in full_report
        .epoch_losses
        .iter()
        .zip(&mini_report.epoch_losses)
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "epoch {e}: full-batch loss {a} != mini-batch loss {b} (bitwise)"
        );
    }
    // Identical trajectories must come from identical parameters.
    let pf = full.predict(&split.test);
    let pm = mini.predict(&split.test);
    assert_eq!(pf, pm, "post-training predictions diverge");
}

/// Sampled plans (ratio < 1.0, several micro-batches, accumulation > 1)
/// are deterministic per `(seed, epoch)`: two models fed the same plans
/// land on bitwise-identical losses and parameters.
#[test]
fn sampled_minibatch_is_deterministic() {
    let (ds, split) = setup();
    let mb = MiniBatchConfig::sampled(0.5, 64, 2, 11);
    let cfg = three_epochs();
    let mut a = model(&ds, &split);
    let ra = train_and_evaluate_minibatch(&mut a, &split.train, &split.test, &cfg, &mb);
    let mut b = model(&ds, &split);
    let rb = train_and_evaluate_minibatch(&mut b, &split.train, &split.test, &cfg, &mb);
    assert_eq!(
        ra.epoch_losses
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
        rb.epoch_losses
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
    );
    assert_eq!(a.predict(&split.test), b.predict(&split.test));
    // And the sampled trajectory genuinely differs from full batch — the
    // exactness above is not vacuous.
    let mut full = model(&ds, &split);
    let rf = train_and_evaluate(&mut full, &split.train, &split.test, &cfg);
    assert_ne!(ra.epoch_losses, rf.epoch_losses);
}

/// Renders the two fixed-seed trajectories as hex f32 bits, one loss per
/// line — the format of the checked-in golden file.
fn render_trajectories() -> String {
    let (ds, split) = setup();
    let cfg = three_epochs();
    let mut full = model(&ds, &split);
    let rf = train_and_evaluate(&mut full, &split.train, &split.test, &cfg);
    let mut mini = model(&ds, &split);
    let rm = train_and_evaluate_minibatch(
        &mut mini,
        &split.train,
        &split.test,
        &cfg,
        &MiniBatchConfig::sampled(0.5, 64, 2, 11),
    );
    let mut out = String::from(
        "# fixed-seed 3-epoch loss trajectories, f32 bits in hex\n\
         # regenerate: AHNTP_REGEN_GOLDEN=1 cargo test --test minibatch_exactness\n",
    );
    for l in &rf.epoch_losses {
        out.push_str(&format!("full {:08x}\n", l.to_bits()));
    }
    for l in &rm.epoch_losses {
        out.push_str(&format!("minibatch {:08x}\n", l.to_bits()));
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/minibatch_loss_trajectory.txt")
}

/// The golden determinism gate: the trajectories must match the checked-in
/// file byte-for-byte, and must be identical at 1 and 4 compute threads.
#[test]
fn golden_trajectory_bytes_exact_at_one_and_four_threads() {
    let at = |threads| {
        ahntp_par::with_pool(
            threads,
            ahntp_par::DEFAULT_PAR_THRESHOLD,
            render_trajectories,
        )
    };
    let (rendered_1, rendered_4) = (at(1), at(4));
    assert_eq!(
        rendered_1, rendered_4,
        "loss trajectory depends on the thread count — deterministic-kernel \
         contract violated"
    );
    let path = golden_path();
    if std::env::var("AHNTP_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &rendered_1).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} unreadable: {e}", path.display()));
    assert_eq!(
        rendered_1,
        golden,
        "trajectory drifted from {}; if the numeric change is intentional, \
         regenerate with AHNTP_REGEN_GOLDEN=1",
        path.display()
    );
}

/// Direct plan-level exactness, bypassing the trainer loop: a hand-built
/// identity plan equals `train_epoch` bitwise, epoch by epoch.
#[test]
fn identity_plan_equals_train_epoch() {
    let (ds, split) = setup();
    let mut a = model(&ds, &split);
    let mut b = model(&ds, &split);
    for _ in 0..2 {
        let la = a.train_epoch_planned(&BatchPlan::full(&split.train));
        let lb = b.train_epoch(&split.train);
        assert_eq!(la.to_bits(), lb.to_bits());
    }
}

/// The number of adaptive-convolution forward spans in the calling
/// context's collected trace.
fn conv_forward_spans() -> usize {
    use ahntp_telemetry::json::Json;
    let trace = ahntp_telemetry::chrome_trace_json();
    let Some(Json::Arr(events)) = trace.get("traceEvents") else {
        panic!("a Chrome trace document has a traceEvents array");
    };
    events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("nn.adaptive_hconv.forward"))
        .count()
}

/// Tripwire for "one objective per accumulation group": with the Eq. 23
/// term in the objective, a full-batch epoch — and one full sampled
/// accumulation group — runs each conv layer's forward exactly once per
/// tier, the Eq. 23 factor's two products once, and one backward. A forward per
/// micro-batch, a second one feeding the smoothness term, an Eq. 23 term
/// per micro-batch or a backward per micro-batch would raise a count.
#[test]
fn an_objective_runs_each_conv_layer_once_per_tier_per_accumulation_group() {
    ahntp_par::Context::fresh().run(|| {
        ahntp_telemetry::set_enabled(true);
        ahntp_telemetry::set_trace_collect(true);
        let (ds, split) = setup();
        let mut m = model(&ds, &split);
        assert!(
            m.config().smoothness_weight > 0.0,
            "Eq. 23 must be in the objective"
        );
        let per_objective = 2 * m.config().conv_dims.len(); // tiers × layers
        let counter = ahntp_telemetry::counter_get;
        m.train_epoch(&split.train);
        assert_eq!(conv_forward_spans(), per_objective);
        assert_eq!(counter("autograd.backward.calls"), 1);
        // Two sparse products per conv layer (vertex → edge, edge →
        // vertex) and the factor's two in Eq. 23 (`Bᵀ f`, then `B`
        // times that); the backward runs the transposed kernel.
        let products = counter("tensor.mul_dense.calls");
        assert_eq!(products, 2 * per_objective as u64 + 2);
        let mut plan =
            BatchPlan::for_epoch(&split.train, &MiniBatchConfig::sampled(0.5, 64, 2, 11), 0);
        assert!(plan.accumulation > 1 && plan.n_batches() > plan.accumulation);
        plan.batches.truncate(plan.accumulation);
        m.train_epoch_planned(&plan);
        assert_eq!(conv_forward_spans(), 2 * per_objective);
        assert_eq!(counter("autograd.backward.calls"), 2);
        assert_eq!(counter("tensor.mul_dense.calls"), 2 * products);
    });
}

/// The plan's counters count the plan: one `batch.micro_batches.run` per
/// micro-batch, one `batch.optimizer_steps` per accumulation group, and
/// `batch.sampled_edges` the hyperedge ids drawn each epoch.
#[test]
fn batch_counters_count_the_plan() {
    ahntp_par::Context::fresh().run(|| {
        ahntp_telemetry::set_enabled(true);
        let (ds, split) = setup();
        let mut m = model(&ds, &split);
        let mb = MiniBatchConfig::sampled(0.5, 64, 2, 11);
        let cfg = three_epochs();
        train_and_evaluate_minibatch(&mut m, &split.train, &split.test, &cfg, &mb);
        let epochs = cfg.epochs as u64;
        let batches = BatchPlan::for_epoch(&split.train, &mb, 0).n_batches() as u64;
        assert!(
            batches > 2,
            "the split must span several accumulation groups"
        );
        let (m_node, m_struct) = m.hyperedge_counts();
        // Which ids an epoch draws depends on the epoch, how many does not.
        let sampled = sample_edges(m_node, mb.edge_ratio, mb.seed, 0).len()
            + sample_edges(m_struct, mb.edge_ratio, mb.seed, 0).len();
        let counter = ahntp_telemetry::counter_get;
        assert_eq!(counter("batch.micro_batches.run"), batches * epochs);
        assert_eq!(
            counter("batch.optimizer_steps"),
            batches.div_ceil(mb.accumulation as u64) * epochs
        );
        assert_eq!(counter("batch.sampled_edges"), sampled as u64 * epochs);
    });
}
