//! The dataset container, Table III statistics, and train/test splitting
//! with negative sampling.

use ahntp_graph::DiGraph;
use ahntp_tensor::{SplitMix64, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A synthetic trust-prediction dataset (see [`crate`] docs for the
/// generation model).
#[derive(Debug, Clone)]
pub struct TrustDataset {
    /// Dataset label ("ciao-like" / "epinions-like").
    pub name: String,
    /// The full directed trust network (`R_U`).
    pub graph: DiGraph,
    /// User feature matrix `X` (`n × C`): category purchase histogram plus
    /// behavioural summaries. Identical input for every model, per §V-A-2.
    pub features: Tensor,
    /// Observable attribute ids per user (for the attribute hypergroup).
    pub attributes: Vec<Vec<usize>>,
    /// Latent community memberships (ground truth used only by tests and
    /// generator diagnostics — models never see this).
    pub communities: Vec<Vec<usize>>,
    /// All directed trust pairs (the positive class).
    pub positives: Vec<(usize, usize)>,
    /// Catalogue size (Table III "Number of Items").
    pub n_items: usize,
    /// Purchase count (Table III "Number of Purchase Behaviors").
    pub n_purchases: usize,
}

/// Table III-style statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of users.
    pub users: usize,
    /// Number of items.
    pub items: usize,
    /// Number of purchase behaviours.
    pub purchases: usize,
    /// Number of trust relations.
    pub trust_relations: usize,
    /// Trust-network density in percent (trust / (users · (users − 1))).
    pub sparsity_pct: f64,
}

/// One labelled user pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledPair {
    /// The trusting user (`u_i`).
    pub trustor: usize,
    /// The candidate trustee (`u_j`).
    pub trustee: usize,
    /// Whether the pair is a real trust relation.
    pub label: bool,
}

/// A train/test split.
///
/// `train_graph` contains only training positives: the hypergraph and all
/// other structural substrates must be built from it, never from the full
/// graph, so that test edges cannot leak into the model through structure.
#[derive(Debug, Clone)]
pub struct Split {
    /// Labelled training pairs (positives + sampled negatives, shuffled).
    pub train: Vec<LabeledPair>,
    /// Labelled test pairs (disjoint from training pairs).
    pub test: Vec<LabeledPair>,
    /// The social graph restricted to training positives.
    pub train_graph: DiGraph,
}

impl TrustDataset {
    /// Table III-style statistics of this dataset.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            users: self.graph.n(),
            items: self.n_items,
            purchases: self.n_purchases,
            trust_relations: self.positives.len(),
            sparsity_pct: self.graph.density() * 100.0,
        }
    }

    /// Feature dimension `C`.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Splits positives into train/test and samples `neg_per_pos` negatives
    /// per positive (the paper uses 2, §V-A-4), reproducing the paper's
    /// protocol: the test share is fixed (20% in §V-B) while the train
    /// share varies (50–80%) to probe robustness.
    ///
    /// Negatives are sampled from pairs that are unconnected in the *full*
    /// graph (no false negatives) and are disjoint between train and test.
    ///
    /// # Panics
    ///
    /// Panics if ratios are not in `(0, 1]` or overlap past 100%.
    pub fn split(&self, train_ratio: f64, test_ratio: f64, neg_per_pos: usize, seed: u64) -> Split {
        assert!(
            train_ratio > 0.0 && test_ratio > 0.0 && train_ratio + test_ratio <= 1.0 + 1e-9,
            "split: invalid ratios train={train_ratio}, test={test_ratio}"
        );
        let mut rng = StdRng::seed_from_u64(SplitMix64::derive(seed, "split"));
        let mut order = self.positives.clone();
        order.shuffle(&mut rng);
        let n_test = ((order.len() as f64) * test_ratio).round() as usize;
        let n_train = ((order.len() as f64) * train_ratio).round() as usize;
        let n_train = n_train.min(order.len() - n_test);
        let test_pos = &order[..n_test];
        let train_pos = &order[n_test..n_test + n_train];

        let positive_set: HashSet<(usize, usize)> = self.positives.iter().copied().collect();
        let mut used: HashSet<(usize, usize)> = positive_set.clone();
        let n = self.graph.n();
        let mut sample_negatives = |count: usize, rng: &mut StdRng| -> Vec<(usize, usize)> {
            let mut out = Vec::with_capacity(count);
            let mut guard = 0usize;
            while out.len() < count && guard < count * 100 {
                guard += 1;
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v || used.contains(&(u, v)) {
                    continue;
                }
                used.insert((u, v));
                out.push((u, v));
            }
            out
        };

        let train_neg = sample_negatives(train_pos.len() * neg_per_pos, &mut rng);
        let test_neg = sample_negatives(test_pos.len() * neg_per_pos, &mut rng);

        let mut train: Vec<LabeledPair> = train_pos
            .iter()
            .map(|&(u, v)| LabeledPair {
                trustor: u,
                trustee: v,
                label: true,
            })
            .chain(train_neg.iter().map(|&(u, v)| LabeledPair {
                trustor: u,
                trustee: v,
                label: false,
            }))
            .collect();
        train.shuffle(&mut rng);
        let mut test: Vec<LabeledPair> = test_pos
            .iter()
            .map(|&(u, v)| LabeledPair {
                trustor: u,
                trustee: v,
                label: true,
            })
            .chain(test_neg.iter().map(|&(u, v)| LabeledPair {
                trustor: u,
                trustee: v,
                label: false,
            }))
            .collect();
        test.shuffle(&mut rng);

        let train_graph =
            DiGraph::from_edges(n, train_pos).expect("training positives come from a valid graph");
        Split {
            train,
            test,
            train_graph,
        }
    }
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "users={} items={} purchases={} trust={} sparsity={:.5}%",
            self.users, self.items, self.purchases, self.trust_relations, self.sparsity_pct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetConfig;

    fn ds() -> TrustDataset {
        TrustDataset::generate(&DatasetConfig::ciao_like(150, 11))
    }

    #[test]
    fn stats_match_structure() {
        let d = ds();
        let s = d.stats();
        assert_eq!(s.users, 150);
        assert_eq!(s.trust_relations, d.positives.len());
        assert!(s.sparsity_pct > 0.0);
        assert!(s.to_string().contains("users=150"));
    }

    #[test]
    fn split_ratios_respected() {
        let d = ds();
        let split = d.split(0.8, 0.2, 2, 7);
        let n = d.positives.len() as f64;
        let train_pos = split.train.iter().filter(|p| p.label).count() as f64;
        let test_pos = split.test.iter().filter(|p| p.label).count() as f64;
        assert!((test_pos - n * 0.2).abs() <= n * 0.02 + 2.0);
        assert!((train_pos - n * 0.8).abs() <= n * 0.02 + 2.0);
        // Two negatives per positive.
        let train_neg = split.train.iter().filter(|p| !p.label).count() as f64;
        assert!((train_neg - 2.0 * train_pos).abs() <= 3.0);
    }

    #[test]
    fn split_train_smaller_ratio_keeps_test_fixed() {
        let d = ds();
        let s50 = d.split(0.5, 0.2, 2, 7);
        let s80 = d.split(0.8, 0.2, 2, 7);
        let t50 = s50.test.iter().filter(|p| p.label).count();
        let t80 = s80.test.iter().filter(|p| p.label).count();
        assert_eq!(t50, t80, "test share is fixed while train varies");
        assert!(
            s50.train.len() < s80.train.len(),
            "smaller train ratio → fewer training pairs"
        );
    }

    #[test]
    fn negatives_are_truly_unconnected_and_disjoint() {
        let d = ds();
        let split = d.split(0.7, 0.2, 2, 13);
        let pos: HashSet<(usize, usize)> = d.positives.iter().copied().collect();
        let mut seen = HashSet::new();
        for p in split.train.iter().chain(&split.test) {
            let key = (p.trustor, p.trustee);
            if !p.label {
                assert!(!pos.contains(&key), "negative {key:?} is a real edge");
            }
            assert!(p.trustor != p.trustee);
            assert!(
                seen.insert((key, p.label)) || p.label,
                "duplicate pair {key:?}"
            );
        }
    }

    #[test]
    fn train_graph_excludes_test_edges() {
        let d = ds();
        let split = d.split(0.8, 0.2, 2, 21);
        for p in &split.test {
            if p.label {
                assert!(
                    !split.train_graph.has_edge(p.trustor, p.trustee),
                    "test edge ({}, {}) leaked into the train graph",
                    p.trustor,
                    p.trustee
                );
            }
        }
        let train_pos = split.train.iter().filter(|p| p.label).count();
        assert_eq!(split.train_graph.n_edges(), train_pos);
    }

    #[test]
    fn split_is_seed_deterministic() {
        let d = ds();
        let a = d.split(0.8, 0.2, 2, 5);
        let b = d.split(0.8, 0.2, 2, 5);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        let c = d.split(0.8, 0.2, 2, 6);
        assert_ne!(a.train, c.train);
    }

    #[test]
    #[should_panic(expected = "invalid ratios")]
    fn split_rejects_overlapping_ratios() {
        ds().split(0.9, 0.2, 2, 1);
    }
}
