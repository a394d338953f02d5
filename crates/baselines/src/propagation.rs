//! A propagation-based trust method (§II-A-1 of the paper): trust decays
//! along directed paths in the social network and is aggregated over
//! parallel routes — the MoleTrust/TidalTrust family the paper's related
//! work discusses. Included as a non-neural reference point: it needs no
//! features and no training, so it shows how much of the task the raw
//! graph structure already solves.

use ahntp_data::LabeledPair;
use ahntp_eval::TrustModel;
use ahntp_graph::DiGraph;
use std::collections::VecDeque;

/// Trust propagation with multiplicative decay and noisy-OR aggregation
/// over parallel paths:
///
/// `p(u → v) = 1 − Π_w∈preds(v) (1 − decay · p(u → w))`, evaluated by a
/// breadth-first sweep from the trustor out to `max_hops`, seeded with
/// `p(u → u) = 1`.
pub struct TrustPropagation {
    graph: DiGraph,
    /// Per-hop trust decay in `(0, 1)`.
    decay: f32,
    /// Propagation horizon.
    max_hops: usize,
}

impl TrustPropagation {
    /// Creates the model over the training trust graph.
    ///
    /// # Panics
    ///
    /// Panics if `decay` is outside `(0, 1)` or `max_hops == 0`.
    pub fn new(graph: &DiGraph, decay: f32, max_hops: usize) -> TrustPropagation {
        assert!(
            decay > 0.0 && decay < 1.0,
            "TrustPropagation: decay must be in (0, 1), got {decay}"
        );
        assert!(max_hops >= 1, "TrustPropagation: max_hops must be >= 1");
        TrustPropagation {
            graph: graph.clone(),
            decay,
            max_hops,
        }
    }

    /// Propagated trust scores from `source` to every user (level-wise
    /// noisy-OR accumulation).
    pub fn propagate_from(&self, source: usize) -> Vec<f32> {
        let n = self.graph.n();
        let mut score = vec![0.0f32; n];
        let mut level = vec![usize::MAX; n];
        score[source] = 1.0;
        level[source] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            if level[u] == self.max_hops {
                continue;
            }
            let contribution = self.decay * score[u];
            for v in self.graph.out_neighbors(u) {
                if v == source {
                    continue;
                }
                if level[v] == usize::MAX {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
                // Aggregate parallel evidence from the frontier only:
                // contributions from deeper levels would feed back.
                if level[v] == level[u] + 1 {
                    score[v] = 1.0 - (1.0 - score[v]) * (1.0 - contribution);
                }
            }
        }
        score[source] = 0.0; // self-trust is not a prediction
        score
    }
}

impl TrustModel for TrustPropagation {
    fn name(&self) -> String {
        "TrustProp".into()
    }

    /// No trainable parameters: an epoch is a no-op with zero loss.
    fn train_epoch(&mut self, _pairs: &[LabeledPair]) -> f32 {
        0.0
    }

    fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
        // Group queries by trustor so each BFS is shared.
        let mut by_source: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (k, p) in pairs.iter().enumerate() {
            by_source.entry(p.trustor).or_default().push(k);
        }
        let mut out = vec![0.0f32; pairs.len()];
        for (source, queries) in by_source {
            let scores = self.propagate_from(source);
            for k in queries {
                out[k] = scores[pairs[k].trustee];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahntp_eval::binary_metrics;

    fn chain() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).expect("valid")
    }

    #[test]
    fn direct_edges_score_decay() {
        let m = TrustPropagation::new(&chain(), 0.7, 3);
        let s = m.propagate_from(0);
        assert!((s[1] - 0.7).abs() < 1e-6);
        assert!((s[2] - 0.49).abs() < 1e-6);
        assert!((s[3] - 0.343).abs() < 1e-6);
        assert_eq!(s[0], 0.0, "no self-trust prediction");
    }

    #[test]
    fn horizon_cuts_propagation() {
        let m = TrustPropagation::new(&chain(), 0.7, 1);
        let s = m.propagate_from(0);
        assert!(s[1] > 0.0);
        assert_eq!(s[2], 0.0);
    }

    #[test]
    fn parallel_paths_aggregate_upwards() {
        // Two routes 0→1→3 and 0→2→3 beat a single route.
        let diamond = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).expect("valid");
        let single = TrustPropagation::new(&chain(), 0.7, 3).propagate_from(0)[2];
        let double = TrustPropagation::new(&diamond, 0.7, 3).propagate_from(0)[3];
        assert!(
            double > single,
            "noisy-OR must reward parallel evidence: {double} vs {single}"
        );
        assert!(double < 1.0);
    }

    #[test]
    fn beats_chance_on_synthetic_trust() {
        use ahntp_data::{DatasetConfig, TrustDataset};
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(150, 71));
        let split = ds.split(0.8, 0.2, 2, 3);
        let m = TrustPropagation::new(&split.train_graph, 0.6, 3);
        let scores = m.predict(&split.test);
        let labels: Vec<bool> = split.test.iter().map(|p| p.label).collect();
        let metrics = binary_metrics(&scores, &labels, 0.5);
        assert!(
            metrics.auc > 0.6,
            "structure-only propagation should beat chance, AUC {:.3}",
            metrics.auc
        );
    }

    #[test]
    #[should_panic(expected = "decay must be in (0, 1)")]
    fn rejects_bad_decay() {
        TrustPropagation::new(&chain(), 1.0, 2);
    }
}
