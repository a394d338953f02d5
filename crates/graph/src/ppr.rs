//! Personalized PageRank from honest seed sets — the Sybil-defense prior.
//!
//! Classic PageRank teleports uniformly, so a dense fake cluster can
//! accumulate rank from its own internal edges. *Personalized* PageRank
//! teleports only to a trusted seed set: trust mass originates at honest
//! seeds and can reach a Sybil region only by crossing attack edges. That
//! yields the formal guarantee this module's callers test against
//! (SNIPPETS.md Snippet 1 / Yu et al.): at the fixed point
//! `s = d · Pᵀ s + (1 − d) · e_H` the total mass inside a Sybil region
//! `S` satisfies
//!
//! ```text
//! Σ_{v ∈ S} s(v)  ≤  (d / (1 − d)) · Σ_{(h → v) ∈ attack} s(h) / out(h)
//! ```
//!
//! — bounded by the attack-edge cut, *independent of how many Sybil nodes
//! sit behind it*. [`sybil_mass_bound`] computes the right-hand side from
//! a converged vector so tests can check the inequality directly.
//!
//! # Determinism
//!
//! The iteration is [`pagerank`](crate::pagerank)'s, with the teleport
//! vector uniform over the seeds: it multiplies by the transposed
//! row-normalised adjacency with [`CsrMatrix::mul_vec`], whose output is
//! row-banded across the `ahntp-par` pool. Each output entry is one
//! serially-computed dot, so the result is bitwise identical at every
//! `AHNTP_THREADS` setting — same discipline as every other kernel in the
//! workspace.

use crate::pagerank::power_iteration;
use crate::{DiGraph, PageRankConfig};
use ahntp_tensor::CsrMatrix;

/// Configuration for the personalized power iteration: the same damping,
/// tolerance and iteration cap as PageRank's, with the same defaults.
pub type PprConfig = PageRankConfig;

/// What the power iteration actually did — exposed so property tests can
/// assert the convergence contract instead of trusting it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PprStats {
    /// Iterations run (≥ 1 for any non-empty graph).
    pub iterations: usize,
    /// L1 residual of the last iterate.
    pub residual: f64,
    /// Whether the residual fell below the tolerance (false only when the
    /// iteration cap hit first).
    pub converged: bool,
}

/// Personalized PageRank over the graph's adjacency — see
/// [`ppr_from_seeds`].
pub fn ppr(g: &DiGraph, seeds: &[usize], cfg: &PprConfig) -> Vec<f64> {
    ppr_from_seeds(g.adjacency(), seeds, cfg)
}

/// Personalized PageRank mass per node, teleporting uniformly over
/// `seeds`: the fixed point of `s = d · Pᵀ s + (1 − d) · e_H` where `P`
/// is the row-normalised walk matrix and `e_H` is uniform over the seed
/// set. Dangling-row mass is redistributed to the *seeds* (not uniformly
/// — a uniform fix would leak trust into a disconnected Sybil region),
/// so `Σ s = 1` at every iterate.
///
/// Duplicate seed ids are collapsed; the teleport stays uniform over the
/// distinct seeds.
///
/// # Panics
///
/// Panics when `w` is not square, `damping` is outside `(0, 1)`, `seeds`
/// is empty (trust must originate somewhere), or a seed id is out of
/// range.
pub fn ppr_from_seeds(w: &CsrMatrix<f64>, seeds: &[usize], cfg: &PprConfig) -> Vec<f64> {
    ppr_from_seeds_with_stats(w, seeds, cfg).0
}

/// [`ppr_from_seeds`] plus the iteration's [`PprStats`].
pub fn ppr_from_seeds_with_stats(
    w: &CsrMatrix<f64>,
    seeds: &[usize],
    cfg: &PprConfig,
) -> (Vec<f64>, PprStats) {
    let n = w.rows();
    assert!(!seeds.is_empty(), "ppr: need at least one honest seed");
    let mut distinct: Vec<usize> = seeds.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if let Some(&bad) = distinct.iter().find(|&&u| u >= n) {
        panic!("ppr: seed {bad} out of range for a graph of {n} nodes");
    }
    let mut teleport = vec![0.0f64; n];
    let share = 1.0 / distinct.len() as f64;
    for &u in &distinct {
        teleport[u] = share;
    }
    power_iteration(w, &teleport, cfg)
}

/// Total trust mass inside a node region (e.g. the labelled Sybil set).
/// Duplicate ids are counted once.
pub fn region_mass(mass: &[f64], region: &[usize]) -> f64 {
    let mut distinct: Vec<usize> = region.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.iter().map(|&v| mass[v]).sum()
}

/// The Snippet 1 attack-edge bound, evaluated on a converged mass vector:
/// `(d / (1 − d)) · Σ_{(h → v) ∈ attack_edges} mass[h] · p(h, v)` where
/// `p` is the row-normalised walk probability of the attack edge. Any
/// region whose only inbound edges are `attack_edges` has
/// [`region_mass`] at most this value (plus convergence slack) — the
/// bound depends on the cut, never on the region's size or internal
/// density.
///
/// # Panics
///
/// Panics on an out-of-range node id or when `mass.len()` disagrees with
/// the matrix.
pub fn sybil_mass_bound(
    w: &CsrMatrix<f64>,
    mass: &[f64],
    attack_edges: &[(usize, usize)],
    damping: f64,
) -> f64 {
    assert_eq!(
        mass.len(),
        w.rows(),
        "ppr: mass length must match the graph"
    );
    let p = w.row_normalized();
    let inflow: f64 = attack_edges
        .iter()
        .map(|&(h, v)| {
            assert!(
                h < w.rows() && v < w.cols(),
                "ppr: attack edge ({h}, {v}) out of range"
            );
            let weight = p
                .row_entries(h)
                .find_map(|(col, val)| (col == v).then_some(val))
                .unwrap_or(0.0);
            mass[h] * weight
        })
        .sum();
    // An empty float sum is -0.0; keep the zero-cut bound at +0.0.
    damping / (1.0 - damping) * inflow.max(0.0)
}

/// Rescales raw PPR mass into per-node prior trust scores in `[0, 1]`
/// (max-normalised), the form the defended-score blend consumes: the
/// best-connected honest node gets prior 1, unreachable nodes get 0.
/// An all-zero (or empty) mass vector maps to all zeros.
pub fn trust_prior(mass: &[f64]) -> Vec<f32> {
    let max = mass.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return vec![0.0; mass.len()];
    }
    mass.iter().map(|&m| (m / max) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        DiGraph::from_edges(n, edges).expect("valid test graph")
    }

    #[test]
    fn mass_is_conserved_and_concentrated_on_seeds() {
        let g = graph(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (0, 3)]);
        let (s, stats) = ppr_from_seeds_with_stats(g.adjacency(), &[0], &PprConfig::default());
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(stats.converged, "residual {}", stats.residual);
        // The seed dominates its own cycle (the 3↔4 pair is a mass trap
        // and may legitimately hold more — that is what the attack-edge
        // bound, not raw mass comparison, is for).
        assert!(s[0] > s[1] && s[0] > s[2]);
        // Node 5 is unreachable from the seed: exactly zero, bit for bit.
        assert_eq!(s[5], 0.0);
    }

    #[test]
    fn duplicate_seeds_collapse() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let cfg = PprConfig::default();
        let a = ppr(&g, &[0, 2], &cfg);
        let b = ppr(&g, &[0, 2, 2, 0, 0], &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn dangling_mass_returns_to_seeds_not_to_strangers() {
        // 1 is dangling; 2 has no inbound path from the seed at all.
        let g = graph(3, &[(0, 1)]);
        let s = ppr(&g, &[0], &PprConfig::default());
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(s[2], 0.0, "dangling redistribution must not leak off-seed");
        assert!(s[0] > s[1]);
    }

    #[test]
    fn unreachable_region_gets_exactly_zero_mass() {
        // Two components; seeds live entirely in the first.
        let g = graph(6, &[(0, 1), (1, 0), (3, 4), (4, 5), (5, 3)]);
        let s = ppr(&g, &[0, 1], &PprConfig::default());
        assert_eq!(region_mass(&s, &[3, 4, 5]), 0.0);
        assert!((region_mass(&s, &[0, 1, 2]) - 1.0).abs() < 1e-9);
        // Duplicates in the region are counted once.
        assert_eq!(region_mass(&s, &[3, 3, 4, 5, 4]), 0.0);
    }

    #[test]
    fn attack_edge_bound_holds_on_a_dense_sybil_cluster() {
        // Honest ring 0..4, dense Sybil cluster 4..8, one attack edge 1→4.
        let mut edges = vec![(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)];
        for i in 4..8 {
            for j in 4..8 {
                if i != j {
                    edges.push((i, j));
                }
            }
        }
        let g = graph(8, &edges);
        let cfg = PprConfig {
            tolerance: 1e-14,
            ..PprConfig::default()
        };
        let s = ppr(&g, &[0, 1, 2, 3], &cfg);
        let sybil_mass = region_mass(&s, &[4, 5, 6, 7]);
        let bound = sybil_mass_bound(g.adjacency(), &s, &[(1, 4)], cfg.damping);
        assert!(
            sybil_mass <= bound + 1e-9,
            "sybil mass {sybil_mass} exceeds bound {bound}"
        );
        assert!(sybil_mass > 0.0, "one attack edge leaks some mass");
    }

    #[test]
    fn stats_report_cap_exhaustion() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (_, stats) = ppr_from_seeds_with_stats(
            g.adjacency(),
            &[0],
            &PprConfig {
                tolerance: 0.0,
                max_iterations: 3,
                ..PprConfig::default()
            },
        );
        assert_eq!(stats.iterations, 3);
        assert!(!stats.converged);
    }

    #[test]
    fn trust_prior_is_max_normalised() {
        let prior = trust_prior(&[0.2, 0.4, 0.0]);
        assert_eq!(prior, vec![0.5, 1.0, 0.0]);
        assert_eq!(trust_prior(&[0.0, 0.0]), vec![0.0, 0.0]);
        assert!(trust_prior(&[]).is_empty());
    }

    #[test]
    fn ppr_is_bitwise_thread_invariant() {
        let mut edges = Vec::new();
        for i in 0..40usize {
            edges.push((i, (i + 1) % 40));
            edges.push((i, (i * 7 + 3) % 40));
        }
        edges.sort_unstable();
        edges.dedup();
        let g = graph(40, &edges);
        let cfg = PprConfig::default();
        // Threshold 0 forces banding even at toy size.
        let bits_at = |t: usize| -> Vec<u64> {
            ahntp_par::with_pool(t, 0, || {
                ppr(&g, &[0, 3, 17], &cfg)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
        };
        let serial = bits_at(1);
        for t in [2usize, 4, 7] {
            assert_eq!(serial, bits_at(t), "ppr at {t} threads");
        }
    }

    #[test]
    #[should_panic(expected = "at least one honest seed")]
    fn empty_seed_set_rejected() {
        ppr(&graph(2, &[(0, 1)]), &[], &PprConfig::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seed_rejected() {
        ppr(&graph(2, &[(0, 1)]), &[5], &PprConfig::default());
    }

    #[test]
    #[should_panic(expected = "damping must be in (0, 1)")]
    fn bad_damping_rejected() {
        ppr(
            &graph(2, &[(0, 1)]),
            &[0],
            &PprConfig {
                damping: 1.0,
                ..PprConfig::default()
            },
        );
    }
}
