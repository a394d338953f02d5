//! Reproducibility and evaluation-hygiene invariants of the whole pipeline.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{DatasetConfig, TrustDataset};
use ahntp_eval::TrustModel;

fn tiny_cfg() -> AhntpConfig {
    AhntpConfig {
        conv_dims: vec![16, 8],
        tower_dims: vec![8],
        ..AhntpConfig::default()
    }
}

#[test]
fn identical_seeds_give_identical_training_trajectories() {
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(90, 41));
    let split = ds.split(0.8, 0.2, 2, 5);
    let run = || -> (Vec<f32>, Vec<f32>) {
        let mut m = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_cfg(),
        );
        let losses: Vec<f32> = (0..5).map(|_| m.train_epoch(&split.train)).collect();
        (losses, m.predict(&split.test))
    };
    let (l1, p1) = run();
    let (l2, p2) = run();
    assert_eq!(l1, l2, "loss trajectory must be bit-reproducible");
    assert_eq!(p1, p2, "predictions must be bit-reproducible");
}

#[test]
fn different_seeds_give_different_models() {
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(90, 41));
    let split = ds.split(0.8, 0.2, 2, 5);
    let mut cfg_b = tiny_cfg();
    cfg_b.seed ^= 0xdead;
    let a = Ahntp::new(
        &ds.features,
        &ds.attributes,
        &split.train_graph,
        &tiny_cfg(),
    );
    let b = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg_b);
    assert_ne!(a.predict(&split.test), b.predict(&split.test));
}

#[test]
fn structure_is_built_from_training_edges_only() {
    // Remove a specific trust edge from training by splitting, then verify
    // the model can be built and the withheld edge is genuinely absent
    // from every structural input.
    let ds = TrustDataset::generate(&DatasetConfig::epinions_like(90, 43));
    let split = ds.split(0.6, 0.2, 2, 7);
    let withheld: Vec<_> = split.test.iter().filter(|p| p.label).collect();
    assert!(!withheld.is_empty());
    for p in &withheld {
        assert!(
            !split.train_graph.has_edge(p.trustor, p.trustee),
            "withheld edge ({}, {}) present in the training graph",
            p.trustor,
            p.trustee
        );
    }
    // The model sees only the train graph; influence scores therefore
    // cannot encode withheld edges: removing them changes the scores.
    let model = Ahntp::new(
        &ds.features,
        &ds.attributes,
        &split.train_graph,
        &tiny_cfg(),
    );
    let full_model = Ahntp::new(&ds.features, &ds.attributes, &ds.graph, &tiny_cfg());
    assert_ne!(
        model.influence_scores(),
        full_model.influence_scores(),
        "train-only structure must differ from full-graph structure"
    );
}

#[test]
fn dataset_regeneration_is_stable_across_calls() {
    let a = TrustDataset::generate(&DatasetConfig::epinions_like(120, 47));
    let b = TrustDataset::generate(&DatasetConfig::epinions_like(120, 47));
    assert_eq!(a.positives, b.positives);
    assert_eq!(a.features, b.features);
    assert_eq!(a.attributes, b.attributes);
    let s1 = a.split(0.7, 0.2, 2, 3);
    let s2 = b.split(0.7, 0.2, 2, 3);
    assert_eq!(s1.train, s2.train);
    assert_eq!(s1.test, s2.test);
}

#[test]
fn predictions_are_invariant_across_calls() {
    // predict() must be pure: no hidden state updates.
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(90, 53));
    let split = ds.split(0.8, 0.2, 2, 11);
    let mut m = Ahntp::new(
        &ds.features,
        &ds.attributes,
        &split.train_graph,
        &tiny_cfg(),
    );
    m.train_epoch(&split.train);
    let p1 = m.predict(&split.test);
    let p2 = m.predict(&split.test);
    assert_eq!(p1, p2);
}
