//! Property tests for the personalized-PageRank kernel (`ahntp_graph::ppr`):
//! walk-matrix rows stay sub-stochastic, teleport mass is conserved, the
//! convergence contract reported by `PprStats` is honest, and the Snippet 1
//! attack-edge bound holds on randomly generated Sybil topologies (host
//! dataset + `inject_sybil`), never depending on cluster size or density.

use ahntp_data::{inject_sybil, DatasetConfig, SybilConfig, TrustDataset};
use ahntp_graph::{
    ppr, ppr_from_seeds_with_stats, region_mass, sybil_mass_bound, trust_prior, DiGraph, PprConfig,
};
use proptest::prelude::*;
use proptest::TestRng;

/// Seed-driven random digraph: a ring (so every node has out-degree ≥ 1)
/// plus `2n` random chords.
fn random_graph(seed: u64, n: usize) -> DiGraph {
    let mut rng = TestRng::from_label(&format!("ppr-properties-{seed}"));
    let mut pick = |n: usize| ((rng.next_f64() * n as f64) as usize).min(n - 1);
    let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    for _ in 0..2 * n {
        let (u, v) = (pick(n), pick(n));
        if u != v {
            edges.push((u, v));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    DiGraph::from_edges(n, &edges).expect("valid random graph")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row-normalised walk rows sum to exactly 1 (or 0 for dangling
    /// rows), and the converged personalized mass is a probability
    /// distribution: non-negative, entrywise ≤ 1, summing to 1.
    #[test]
    fn rows_substochastic_and_teleport_mass_conserved(
        seed in 0u64..1_000_000,
        n in 4usize..48,
    ) {
        let g = random_graph(seed, n);
        let w = g.adjacency();
        let p = w.row_normalized();
        for r in 0..n {
            let sum: f64 = p.row_entries(r).map(|(_, v)| v).sum();
            prop_assert!(
                sum.abs() < 1e-9 || (sum - 1.0).abs() < 1e-9,
                "row {} sums to {}", r, sum
            );
        }
        let seeds = [0usize, n / 2, n - 1];
        let (s, stats) = ppr_from_seeds_with_stats(w, &seeds, &PprConfig::default());
        prop_assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-8, "mass leaked");
        prop_assert!(s.iter().all(|&v| (0.0..=1.0 + 1e-12).contains(&v)));
        prop_assert!(stats.iterations >= 1);
        // The prior form is always within [0, 1] with max exactly 1.
        let prior = trust_prior(&s);
        prop_assert!(prior.iter().all(|&v| (0.0..=1.0).contains(&v)));
        prop_assert!(prior.iter().copied().fold(0.0f32, f32::max) == 1.0);
    }

    /// `PprStats` tells the truth: a reachable tolerance converges under
    /// it, and an unreachable one reports cap exhaustion at exactly the
    /// configured iteration count.
    #[test]
    fn convergence_tolerance_honored(seed in 0u64..1_000_000, n in 4usize..32) {
        let g = random_graph(seed, n);
        let loose = PprConfig { tolerance: 1e-6, max_iterations: 500, ..PprConfig::default() };
        let (_, stats) = ppr_from_seeds_with_stats(g.adjacency(), &[0], &loose);
        prop_assert!(stats.converged, "residual {} after {} iters", stats.residual, stats.iterations);
        prop_assert!(stats.residual < loose.tolerance);
        prop_assert!(stats.iterations <= loose.max_iterations);
        let capped = PprConfig { tolerance: 0.0, max_iterations: 3, ..PprConfig::default() };
        let (_, stats) = ppr_from_seeds_with_stats(g.adjacency(), &[0], &capped);
        prop_assert!(!stats.converged);
        prop_assert_eq!(stats.iterations, 3);
    }

    /// On randomly generated Sybil topologies (random host, random
    /// cluster count / density / budget), escaped mass obeys the
    /// attack-edge bound: zero cut → exactly zero mass, any cut →
    /// bounded by `(d/(1−d)) · Σ mass[h] · p(h, v)` regardless of how
    /// dense or large the fake region is.
    #[test]
    fn attack_edge_bound_on_random_sybil_topologies(
        seed in 0u64..1_000_000,
        budget in 0usize..12,
        clusters in 1usize..4,
        density_pct in 30usize..100,
    ) {
        let host = TrustDataset::generate(&DatasetConfig::ciao_like(60, seed));
        let inj = inject_sybil(&host, &SybilConfig {
            sybil_fraction: 0.2,
            n_clusters: clusters,
            attack_edges: budget,
            intra_density: density_pct as f64 / 100.0,
            colluding_attributes: 2,
            seed,
        });
        let cfg = PprConfig { tolerance: 1e-13, ..PprConfig::default() };
        let mass = ppr(&inj.dataset.graph, &inj.honest, &cfg);
        let escaped = region_mass(&mass, &inj.sybil);
        if budget == 0 {
            prop_assert_eq!(escaped, 0.0, "no cut must mean exactly zero mass");
        } else {
            prop_assert!(escaped > 0.0, "a non-empty cut leaks some mass");
            let bound = sybil_mass_bound(
                inj.dataset.graph.adjacency(),
                &mass,
                &inj.attack_edges,
                cfg.damping,
            );
            prop_assert!(
                escaped <= bound + 1e-9,
                "escaped {} exceeds cut bound {} (budget {}, clusters {})",
                escaped, bound, budget, clusters
            );
        }
    }
}
