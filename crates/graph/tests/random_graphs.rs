//! Randomised cross-validation of the graph engine: motif adjacency versus
//! an independent brute-force counter, and PageRank invariants, over random
//! digraphs.

#![allow(clippy::needless_range_loop)] // index pairs (i, j) mirror the matrix API

use ahntp_graph::{
    motif_adjacency, motif_pagerank, pagerank, DiGraph, Motif, MotifPageRankConfig, PageRankConfig,
};
use proptest::prelude::*;

const N: usize = 9;

fn arb_digraph() -> impl Strategy<Value = DiGraph> {
    proptest::collection::vec(proptest::bool::weighted(0.25), N * N).prop_map(|bits| {
        let mut edges = Vec::new();
        for (k, &b) in bits.iter().enumerate() {
            let (u, v) = (k / N, k % N);
            if b && u != v {
                edges.push((u, v));
            }
        }
        DiGraph::from_edges(N, &edges).expect("indices in range")
    })
}

/// Independent oracle: classify each unordered triple by its exact edge
/// pattern (up to isomorphism) and add 1 to all six ordered co-occurrence
/// pairs per instance.
fn oracle(g: &DiGraph, motif: Motif) -> Vec<Vec<f64>> {
    let n = g.n();
    let edge = |u: usize, v: usize| g.has_edge(u, v);
    let uni = |u: usize, v: usize| edge(u, v) && !edge(v, u);
    let bi = |u: usize, v: usize| edge(u, v) && edge(v, u);
    let mut a = vec![vec![0.0f64; n]; n];
    for x in 0..n {
        for y in (x + 1)..n {
            for z in (y + 1)..n {
                let t = [x, y, z];
                // Count mutual and one-way edges inside the triple.
                let mut mutual = 0;
                let mut oneway = 0;
                for i in 0..3 {
                    for j in (i + 1)..3 {
                        if bi(t[i], t[j]) {
                            mutual += 1;
                        } else if uni(t[i], t[j]) || uni(t[j], t[i]) {
                            oneway += 1;
                        }
                    }
                }
                if mutual + oneway != 3 {
                    continue; // not a triangle
                }
                let is_instance = match motif {
                    Motif::M1 => {
                        mutual == 0
                            && (uni(x, y) && uni(y, z) && uni(z, x)
                                || uni(x, z) && uni(z, y) && uni(y, x))
                    }
                    Motif::M5 => {
                        // acyclic all-one-way triangle = not a 3-cycle
                        mutual == 0
                            && !(uni(x, y) && uni(y, z) && uni(z, x)
                                || uni(x, z) && uni(z, y) && uni(y, x))
                    }
                    Motif::M4 => mutual == 3,
                    Motif::M3 => mutual == 2,
                    Motif::M2 | Motif::M6 | Motif::M7 => {
                        if mutual != 1 {
                            false
                        } else {
                            // Identify the off-pair node `c` and the mutual
                            // pair (p, q).
                            let (p, q, c) = if bi(t[0], t[1]) {
                                (t[0], t[1], t[2])
                            } else if bi(t[0], t[2]) {
                                (t[0], t[2], t[1])
                            } else {
                                (t[1], t[2], t[0])
                            };
                            match motif {
                                // M6: some node points at both mutual members.
                                Motif::M6 => uni(c, p) && uni(c, q),
                                // M7: both mutual members point at c.
                                Motif::M7 => uni(p, c) && uni(q, c),
                                // M2: a directed path through c.
                                Motif::M2 => uni(p, c) && uni(c, q) || uni(q, c) && uni(c, p),
                                _ => unreachable!(),
                            }
                        }
                    }
                };
                if is_instance {
                    for &u in &t {
                        for &v in &t {
                            if u != v {
                                a[u][v] += 1.0;
                            }
                        }
                    }
                }
            }
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn motif_adjacency_matches_pattern_oracle(g in arb_digraph()) {
        for motif in Motif::ALL {
            let fast = motif_adjacency(&g, motif);
            let slow = oracle(&g, motif);
            for i in 0..g.n() {
                for j in 0..g.n() {
                    prop_assert_eq!(
                        fast.get(i, j),
                        slow[i][j],
                        "motif {} at ({}, {})", motif, i, j
                    );
                }
            }
        }
    }

    #[test]
    fn pagerank_is_a_distribution(g in arb_digraph()) {
        let s = pagerank(&g, &PageRankConfig::default());
        let total: f64 = s.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-8, "total {}", total);
        prop_assert!(s.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn motif_pagerank_is_a_distribution(g in arb_digraph()) {
        for motif in [Motif::M1, Motif::M4, Motif::M6] {
            let s = motif_pagerank(&g, motif, &MotifPageRankConfig::default());
            let total: f64 = s.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-8, "{}: total {}", motif, total);
        }
    }

    #[test]
    fn khop_neighborhoods_are_monotone(g in arb_digraph(), start in 0usize..N) {
        let mut prev: Vec<usize> = Vec::new();
        for k in 1..4 {
            let cur = g.k_hop_neighbors(start, k);
            prop_assert!(prev.iter().all(|v| cur.contains(v)), "k-hop sets must grow");
            prop_assert!(!cur.contains(&start));
            prev = cur;
        }
    }
}
