//! `train_full` and `train_minibatch`: the researcher's loop. Same data
//! and model; one calls `train_epoch`, the other plans and runs sampled
//! micro-batches, so the same layers are used two different ways.

use std::time::Instant;

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{DatasetConfig, MiniBatchConfig, Split, TrustDataset};
use ahntp_eval::{auc, BatchPlan, BatchTrustModel, TrustModel};

use crate::host::{process_cpu_us, thread_cpu_us};
use crate::span::SpanLog;
use crate::workload::{fnv1a, Kind, Opts, Ready, Timed, Workload};

/// Users in the Epinions-like dataset (the repo's default scale).
pub const USERS: usize = 260;

/// The model the paper's tables train at reduced scale.
pub fn model_config(seed: u64) -> AhntpConfig {
    let mut cfg = AhntpConfig {
        conv_dims: vec![64, 32, 16],
        tower_dims: vec![16],
        seed,
        ..AhntpConfig::default()
    };
    cfg.adam.lr = 5e-3;
    cfg
}

/// The generator's own seed. `--seed` picks the split, the initial
/// weights, the sampled batches and every request stream, but not the
/// generated graph: its edge and hyperedge counts move an epoch's cost by
/// up to 13 % from one generator seed to the next, and that would sit in
/// every spread as if it were noise.
pub const DATA_SEED: u64 = 2024;

pub fn dataset(users: usize, seed: u64) -> (TrustDataset, Split) {
    let ds = TrustDataset::generate(&DatasetConfig::epinions_like(users, DATA_SEED));
    let split = ds.split(0.8, 0.2, 2, seed);
    (ds, split)
}

struct Train {
    minibatch: Option<MiniBatchConfig>,
    model: Ahntp,
    split: Split,
    epochs_done: u64,
    losses: Vec<f32>,
    corrupt: bool,
    quick: bool,
}

impl Train {
    /// One epoch, spans around each call into a layer.
    fn epoch(&mut self, log: &mut SpanLog) -> f32 {
        let op = self.epochs_done;
        self.epochs_done += 1;
        let root = log.begin("epoch", op, None);
        let loss = match &self.minibatch {
            None => {
                let s = log.begin("core.train_epoch", op, Some(root));
                let loss = self.model.train_epoch(&self.split.train);
                log.end(s);
                loss
            }
            Some(mb) => {
                let s = log.begin("eval.plan", op, Some(root));
                let plan = BatchPlan::for_epoch(&self.split.train, mb, op);
                log.end(s);
                let s = log.begin("core.train_epoch_planned", op, Some(root));
                let loss = self.model.train_epoch_planned(&plan);
                log.end(s);
                loss
            }
        };
        log.end(root);
        self.losses.push(loss);
        loss
    }
}

pub fn setup(kind: Kind, opts: &Opts) -> Ready {
    let started = process_cpu_us();
    let users = if opts.quick { 60 } else { USERS };
    let (ds, split) = dataset(users, opts.seed);
    let model = Ahntp::new(
        &ds.features,
        &ds.attributes,
        &split.train_graph,
        &model_config(opts.seed),
    );
    let minibatch =
        (kind == Kind::TrainMinibatch).then(|| MiniBatchConfig::sampled(0.5, 512, 2, opts.seed));
    let warmup = if minibatch.is_some() { 1 } else { 3 };
    let mut train = Train {
        minibatch,
        model,
        split,
        epochs_done: 0,
        losses: Vec::new(),
        corrupt: opts.corrupt,
        quick: opts.quick,
    };
    for _ in 0..warmup {
        train.epoch(&mut SpanLog::new(false, 0));
    }
    let setup_s = (process_cpu_us() - started) / 1e6;
    let fingerprint = fnv1a(train.losses.iter().flat_map(|l| l.to_bits().to_le_bytes()));
    Ready {
        workload: Box::new(train),
        setup_s,
        fingerprint,
    }
}

impl Workload for Train {
    fn measure(&mut self, seconds: f64, log: &mut SpanLog) -> Timed {
        let mut timed = Timed::default();
        let started = Instant::now();
        loop {
            // Time the thread ran, not time that passed: an epoch is one
            // thread computing, and what the hypervisor takes from it in
            // between says nothing about the code.
            let t = thread_cpu_us();
            std::hint::black_box(self.epoch(log));
            timed.samples_us.push(thread_cpu_us() - t);
            timed.work += self.split.train.len() as f64;
            timed.attempted += 1;
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        timed.wall_s = started.elapsed().as_secs_f64();
        timed
    }

    fn verify(&mut self, _log: &mut SpanLog) -> Vec<String> {
        let mut errors = Vec::new();
        let (first, last) = (self.losses[0], *self.losses.last().expect("warm-up ran"));
        if self.corrupt {
            self.losses[0] = f32::NAN;
        }
        if !self.losses.iter().all(|l| l.is_finite()) {
            errors.push("training loss went non-finite".to_string());
        }
        // A handful of tiny sampled epochs need not improve anything, so
        // the quality checks apply at full size only.
        if !self.quick && last >= first {
            errors.push(format!("training loss did not fall: {first} -> {last}"));
        }
        let scores = self.model.predict(&self.split.test);
        let labels: Vec<bool> = self.split.test.iter().map(|p| p.label).collect();
        let test_auc = auc(&scores, &labels);
        let (node_edges, struct_edges) = self.model.hyperedge_counts();
        eprintln!(
            "# {} epochs, loss {first:.4} -> {last:.4}, test AUC {test_auc:.4}; {} train pairs, {node_edges} + {struct_edges} hyperedges",
            self.losses.len(),
            self.split.train.len()
        );
        // Chance is 0.5; a model that trained at all clears it easily.
        if !self.quick && (test_auc.is_nan() || test_auc <= 0.5) {
            errors.push(format!("test AUC {test_auc} is not above chance"));
        }
        errors
    }
}
