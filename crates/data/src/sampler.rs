//! Deterministic hyperedge and pair sampling for mini-batch training.
//!
//! Both samplers are pure functions of `(seed, epoch)` — the same inputs
//! always produce the same sample, independent of thread count, call order,
//! or process — so mini-batch runs are exactly reproducible and the
//! exactness tests can pin them down. The degenerate settings are the
//! identity by construction: ratio `1.0` keeps every hyperedge in order,
//! and micro-batch size `0` keeps every pair in one in-order batch, which
//! is what lets the mini-batch path reproduce full-batch training bitwise.

use ahntp_tensor::SplitMix64;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Mini-batch training knobs consumed by the trainer's `BatchPlan`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiniBatchConfig {
    /// Fraction of each hypergraph's hyperedges sampled per epoch,
    /// in `(0, 1]`. `1.0` keeps every hyperedge (identity).
    pub edge_ratio: f64,
    /// Labelled pairs per micro-batch; `0` puts every pair in one batch.
    pub batch_size: usize,
    /// Micro-batches accumulated into one optimizer step (≥ 1).
    pub accumulation: usize,
    /// Base seed all per-epoch sampling derives from.
    pub seed: u64,
}

impl MiniBatchConfig {
    /// The exactness configuration: every edge, one in-order batch, one
    /// step per batch. Training through a plan built from this config is
    /// bitwise identical to full-batch training.
    pub fn exact(seed: u64) -> MiniBatchConfig {
        MiniBatchConfig {
            edge_ratio: 1.0,
            batch_size: 0,
            accumulation: 1,
            seed,
        }
    }

    /// A sampled configuration.
    pub fn sampled(
        edge_ratio: f64,
        batch_size: usize,
        accumulation: usize,
        seed: u64,
    ) -> MiniBatchConfig {
        MiniBatchConfig {
            edge_ratio,
            batch_size,
            accumulation,
            seed,
        }
    }

    /// Checks the knobs are usable.
    ///
    /// # Errors
    ///
    /// Describes the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.edge_ratio > 0.0 && self.edge_ratio <= 1.0) {
            return Err(format!(
                "edge_ratio must be in (0, 1], got {}",
                self.edge_ratio
            ));
        }
        if self.accumulation == 0 {
            return Err("accumulation must be >= 1".into());
        }
        Ok(())
    }
}

/// Per-`(seed, label, epoch)` StdRng, so every sampler draws from its own
/// independent, reproducible stream.
fn epoch_rng(seed: u64, label: &str, epoch: u64) -> StdRng {
    let base = SplitMix64::derive(seed, label);
    let mut mix = SplitMix64::new(base ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    StdRng::seed_from_u64(mix.next_u64())
}

/// Samples `ceil(ratio · n_edges)` distinct hyperedge ids for one epoch,
/// returned in ascending order (so sliced operators keep the relative edge
/// order of the full hypergraph).
///
/// `ratio >= 1.0` returns the identity selection `0..n_edges` — exactly,
/// not just up to reordering — which downstream caches recognise and serve
/// from the full-operator cache.
///
/// # Panics
///
/// Panics if `ratio` is not positive.
pub fn sample_edges(n_edges: usize, ratio: f64, seed: u64, epoch: u64) -> Vec<usize> {
    assert!(
        ratio > 0.0,
        "sample_edges: ratio must be positive, got {ratio}"
    );
    if ratio >= 1.0 || n_edges == 0 {
        return (0..n_edges).collect();
    }
    let k = ((ratio * n_edges as f64).ceil() as usize).clamp(1, n_edges);
    let mut ids: Vec<usize> = (0..n_edges).collect();
    let mut rng = epoch_rng(seed, "minibatch.edges", epoch);
    ids.shuffle(&mut rng);
    ids.truncate(k);
    ids.sort_unstable();
    ids
}

/// Splits `0..n_pairs` into micro-batches for one epoch.
///
/// `batch_size == 0` (or `>= n_pairs`) yields a single batch holding every
/// index *in order* — the identity plan full-batch exactness relies on.
/// Otherwise the indices are shuffled deterministically per `(seed, epoch)`
/// and chunked, so every pair appears in exactly one micro-batch.
pub fn plan_micro_batches(
    n_pairs: usize,
    batch_size: usize,
    seed: u64,
    epoch: u64,
) -> Vec<Vec<usize>> {
    if n_pairs == 0 {
        return Vec::new();
    }
    if batch_size == 0 || batch_size >= n_pairs {
        return vec![(0..n_pairs).collect()];
    }
    let mut order: Vec<usize> = (0..n_pairs).collect();
    let mut rng = epoch_rng(seed, "minibatch.pairs", epoch);
    order.shuffle(&mut rng);
    order.chunks(batch_size).map(<[usize]>::to_vec).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_one_is_the_identity() {
        assert_eq!(sample_edges(5, 1.0, 7, 3), vec![0, 1, 2, 3, 4]);
        assert_eq!(sample_edges(0, 1.0, 7, 3), Vec::<usize>::new());
        // Above 1.0 clamps to identity too.
        assert_eq!(sample_edges(3, 2.0, 7, 3), vec![0, 1, 2]);
    }

    #[test]
    fn sampling_is_deterministic_and_epoch_varying() {
        let a = sample_edges(100, 0.3, 42, 0);
        let b = sample_edges(100, 0.3, 42, 0);
        assert_eq!(a, b, "same (seed, epoch) → same sample");
        let c = sample_edges(100, 0.3, 42, 1);
        assert_ne!(a, c, "epochs draw different samples");
        let d = sample_edges(100, 0.3, 43, 0);
        assert_ne!(a, d, "seeds draw different samples");
    }

    #[test]
    fn sampled_ids_are_sorted_distinct_and_sized() {
        let ids = sample_edges(50, 0.37, 9, 4);
        assert_eq!(ids.len(), (0.37f64 * 50.0).ceil() as usize);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        assert!(ids.iter().all(|&e| e < 50));
        // Tiny ratios still keep at least one edge.
        assert_eq!(sample_edges(50, 1e-9, 9, 4).len(), 1);
    }

    #[test]
    #[should_panic(expected = "ratio must be positive")]
    fn zero_ratio_rejected() {
        sample_edges(10, 0.0, 1, 0);
    }

    #[test]
    fn batch_size_zero_is_one_in_order_batch() {
        assert_eq!(plan_micro_batches(4, 0, 1, 0), vec![vec![0, 1, 2, 3]]);
        assert_eq!(plan_micro_batches(4, 9, 1, 0), vec![vec![0, 1, 2, 3]]);
        assert!(plan_micro_batches(0, 0, 1, 0).is_empty());
    }

    #[test]
    fn micro_batches_partition_all_pairs() {
        let batches = plan_micro_batches(23, 5, 11, 2);
        assert_eq!(batches.len(), 5); // ceil(23 / 5)
        assert!(batches[..4].iter().all(|b| b.len() == 5));
        assert_eq!(batches[4].len(), 3);
        let mut seen: Vec<usize> = batches.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
    }

    #[test]
    fn micro_batches_are_deterministic_and_epoch_varying() {
        let a = plan_micro_batches(40, 8, 5, 0);
        assert_eq!(a, plan_micro_batches(40, 8, 5, 0));
        assert_ne!(a, plan_micro_batches(40, 8, 5, 1));
    }

    #[test]
    fn config_validation() {
        assert!(MiniBatchConfig::exact(1).validate().is_ok());
        assert!(MiniBatchConfig::sampled(0.5, 16, 2, 1).validate().is_ok());
        assert!(MiniBatchConfig::sampled(0.0, 16, 2, 1).validate().is_err());
        assert!(MiniBatchConfig::sampled(1.5, 16, 2, 1).validate().is_err());
        assert!(MiniBatchConfig::sampled(0.5, 16, 0, 1).validate().is_err());
    }
}
