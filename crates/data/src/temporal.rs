//! Temporal trust networks — the extension the paper's conclusion names as
//! future work ("a model for dynamic social networks that contain dynamic
//! temporal information").
//!
//! A [`TemporalTrustDataset`] is a [`TrustDataset`] whose trust relations
//! carry creation timestamps. The synthetic generator creates edges
//! sequentially through its social mechanisms (homophily, influence,
//! triadic closure), so insertion order *is* a faithful event order:
//! triangle-closing edges really do appear after the edges they close,
//! and hub edges accumulate over time, exactly as in a growing network.
//!
//! The temporal split ([`TemporalTrustDataset::temporal_split`]) trains on
//! the oldest edges and tests on the newest — the realistic "predict who
//! will be trusted next" protocol, strictly harder than the random splits
//! of the paper's main evaluation because test edges are biased toward the
//! network's growth frontier.

use crate::{generator, DatasetConfig, LabeledPair, Split, TrustDataset};
use ahntp_graph::DiGraph;
use ahntp_tensor::SplitMix64;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A trust dataset with per-edge creation timestamps in `[0, 1)`.
#[derive(Debug, Clone)]
pub struct TemporalTrustDataset {
    /// The underlying dataset. `dataset.positives` is ordered by creation
    /// time and aligned with [`TemporalTrustDataset::timestamps`].
    pub dataset: TrustDataset,
    /// Creation time of each positive, normalised to `[0, 1)`,
    /// non-decreasing.
    pub timestamps: Vec<f64>,
}

impl TemporalTrustDataset {
    /// Generates a temporal dataset from the same configuration as
    /// [`TrustDataset::generate`]; the two share all non-temporal content
    /// for a given config.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn generate(cfg: &DatasetConfig) -> TemporalTrustDataset {
        let g = generator::generate(cfg);
        let n_edges = g.edge_order.len();
        let timestamps: Vec<f64> = (0..n_edges).map(|i| i as f64 / n_edges as f64).collect();
        let positives = g.edge_order.clone();
        let dataset = TrustDataset {
            name: format!("{}-temporal", cfg.name),
            graph: g.graph,
            features: g.features,
            attributes: g.attributes,
            communities: g.communities,
            positives,
            n_items: cfg.n_items,
            n_purchases: g.n_purchases,
        };
        TemporalTrustDataset {
            dataset,
            timestamps,
        }
    }

    /// The creation time of positive `i`.
    pub fn timestamp(&self, i: usize) -> f64 {
        self.timestamps[i]
    }

    /// The network as it existed at time `t`: only edges created before `t`.
    pub fn snapshot_at(&self, t: f64) -> DiGraph {
        let edges: Vec<(usize, usize)> = self
            .dataset
            .positives
            .iter()
            .zip(&self.timestamps)
            .filter_map(|(&e, &ts)| (ts < t).then_some(e))
            .collect();
        DiGraph::from_edges(self.dataset.graph.n(), &edges).expect("subset of a valid edge set")
    }

    /// Splits by time: the oldest `train_frac` of trust relations train,
    /// the remainder tests, each with `neg_per_pos` sampled negatives.
    /// The returned `train_graph` is the historical snapshot.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_frac < 1`.
    pub fn temporal_split(&self, train_frac: f64, neg_per_pos: usize, seed: u64) -> Split {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "temporal_split: train_frac must be in (0, 1), got {train_frac}"
        );
        let n = self.dataset.positives.len();
        let cut = ((n as f64) * train_frac).round() as usize;
        let cut = cut.clamp(1, n - 1);
        let train_pos = &self.dataset.positives[..cut];
        let test_pos = &self.dataset.positives[cut..];

        let mut rng = StdRng::seed_from_u64(SplitMix64::derive(seed, "temporal-split"));
        let all: HashSet<(usize, usize)> = self.dataset.positives.iter().copied().collect();
        let mut used = all.clone();
        let n_users = self.dataset.graph.n();
        let mut sample = |count: usize, rng: &mut StdRng| -> Vec<(usize, usize)> {
            let mut out = Vec::with_capacity(count);
            let mut guard = 0;
            while out.len() < count && guard < count * 100 {
                guard += 1;
                let u = rng.gen_range(0..n_users);
                let v = rng.gen_range(0..n_users);
                if u != v && !used.contains(&(u, v)) {
                    used.insert((u, v));
                    out.push((u, v));
                }
            }
            out
        };
        let train_neg = sample(train_pos.len() * neg_per_pos, &mut rng);
        let test_neg = sample(test_pos.len() * neg_per_pos, &mut rng);
        let to_pairs = |pos: &[(usize, usize)], neg: &[(usize, usize)], rng: &mut StdRng| {
            let mut v: Vec<LabeledPair> = pos
                .iter()
                .map(|&(a, b)| LabeledPair {
                    trustor: a,
                    trustee: b,
                    label: true,
                })
                .chain(neg.iter().map(|&(a, b)| LabeledPair {
                    trustor: a,
                    trustee: b,
                    label: false,
                }))
                .collect();
            v.shuffle(rng);
            v
        };
        let train = to_pairs(train_pos, &train_neg, &mut rng);
        let test = to_pairs(test_pos, &test_neg, &mut rng);
        let train_graph =
            DiGraph::from_edges(n_users, train_pos).expect("historical edges are valid");
        Split {
            train,
            test,
            train_graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temporal() -> TemporalTrustDataset {
        TemporalTrustDataset::generate(&DatasetConfig::ciao_like(120, 61))
    }

    #[test]
    fn timestamps_are_sorted_and_aligned() {
        let t = temporal();
        assert_eq!(t.timestamps.len(), t.dataset.positives.len());
        assert!(t.timestamps.windows(2).all(|w| w[0] <= w[1]));
        assert!(t.timestamps.iter().all(|&ts| (0.0..1.0).contains(&ts)));
        assert_eq!(t.timestamp(0), 0.0);
    }

    #[test]
    fn temporal_and_static_generation_agree_on_content() {
        let cfg = DatasetConfig::ciao_like(120, 61);
        let t = TemporalTrustDataset::generate(&cfg);
        let s = TrustDataset::generate(&cfg);
        assert_eq!(t.dataset.features, s.features);
        // Same edge set, different order (sorted vs temporal).
        let mut a = t.dataset.positives.clone();
        let mut b = s.positives.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshots_grow_monotonically() {
        let t = temporal();
        let early = t.snapshot_at(0.25);
        let late = t.snapshot_at(0.75);
        let full = t.snapshot_at(1.0);
        assert!(early.n_edges() < late.n_edges());
        assert!(late.n_edges() < full.n_edges());
        assert_eq!(full.n_edges(), t.dataset.positives.len());
        // Every early edge persists.
        for u in 0..early.n() {
            for v in early.out_neighbors(u) {
                assert!(late.has_edge(u, v));
            }
        }
    }

    #[test]
    fn temporal_split_respects_time_ordering() {
        let t = temporal();
        let split = t.temporal_split(0.8, 2, 9);
        let cut = ((t.dataset.positives.len() as f64) * 0.8).round() as usize;
        let train_pos: HashSet<_> = split
            .train
            .iter()
            .filter(|p| p.label)
            .map(|p| (p.trustor, p.trustee))
            .collect();
        // Every training positive is among the oldest `cut` edges.
        for (i, e) in t.dataset.positives.iter().enumerate() {
            if train_pos.contains(e) {
                assert!(i < cut, "edge {i} leaked into training from the future");
            }
        }
        // Train graph is the historical snapshot.
        assert_eq!(split.train_graph.n_edges(), train_pos.len());
        for p in split.test.iter().filter(|p| p.label) {
            assert!(!split.train_graph.has_edge(p.trustor, p.trustee));
        }
    }

    #[test]
    fn triadic_closures_arrive_after_their_wedges() {
        // Structural check: for a decent share of late edges (u, w) there
        // exists an intermediate v with both u→v and v→w created earlier —
        // the triadic mechanism leaves its footprint in time.
        let t = temporal();
        let n = t.dataset.positives.len();
        let early = t.snapshot_at(0.5);
        let late_edges = &t.dataset.positives[n / 2..];
        let closures = late_edges
            .iter()
            .filter(|&&(u, w)| early.out_neighbors(u).iter().any(|&v| early.has_edge(v, w)))
            .count();
        assert!(
            closures * 4 > late_edges.len(),
            "at least a quarter of late edges close earlier wedges, got {closures}/{}",
            late_edges.len()
        );
    }

    #[test]
    #[should_panic(expected = "train_frac must be in (0, 1)")]
    fn temporal_split_validates_fraction() {
        temporal().temporal_split(1.0, 2, 1);
    }
}
