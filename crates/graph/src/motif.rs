//! Triangular motifs and motif-induced adjacency matrices (Fig. 4 and
//! Table II of the paper).
//!
//! `A^{M_k}_{ij}` counts how often users `i` and `j` co-occur in an instance
//! of motif `M_k` (Eq. 3). Following Table II (and its source, Zhao et al.
//! AAAI'18 / Benson et al., Science 2016), each count is a sum of masked
//! sparse products over the unidirectional (`UC`) and bidirectional (`BC`)
//! adjacency parts. Motifs M1–M3 and M5 yield asymmetric `C` and are
//! symmetrised as `C + Cᵀ`; M4, M6 and M7 produce `C` directly (M4's `C` is
//! already symmetric by construction).

use crate::DiGraph;
use ahntp_tensor::CsrMatrix;

/// The seven classical triangular motifs of Fig. 4.
///
/// In edge-notation (`→` one-way, `↔` mutual) over the triangle `{a, b, c}`:
///
/// | Motif | Structure |
/// |-------|-----------|
/// | M1    | a→b, b→c, c→a (directed 3-cycle) |
/// | M2    | a↔b, b→c, a→c (one mutual edge, cycle-free) |
/// | M3    | a↔b, b↔c, a→c (two mutual edges) |
/// | M4    | a↔b, b↔c, a↔c (fully mutual) |
/// | M5    | a→b, a→c, b→c (feed-forward / hierarchy) |
/// | M6    | a→b, a→c, b↔c (out-fan onto a mutual pair) |
/// | M7    | b→a, c→a, b↔c (in-fan from a mutual pair) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Motif {
    /// Directed 3-cycle.
    M1,
    /// One mutual edge + two one-way edges, acyclic.
    M2,
    /// Two mutual edges + one one-way edge.
    M3,
    /// Fully mutual triangle.
    M4,
    /// Feed-forward triangle.
    M5,
    /// Out-fan onto a mutual pair.
    M6,
    /// In-fan from a mutual pair.
    M7,
}

impl Motif {
    /// All seven motifs in Fig. 4 order.
    pub const ALL: [Motif; 7] = [
        Motif::M1,
        Motif::M2,
        Motif::M3,
        Motif::M4,
        Motif::M5,
        Motif::M6,
        Motif::M7,
    ];
}

impl std::fmt::Display for Motif {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", *self as usize + 1)
    }
}

/// Computes the motif-induced adjacency matrix `A^{M_k}` of Table II.
///
/// Entry `(i, j)` is the number of `M_k` instances containing both `i` and
/// `j` (summed over the possible positions of the third user), which is
/// exactly the co-occurrence count of Eq. 3. The matrix is symmetric with a
/// zero diagonal.
pub fn motif_adjacency(g: &DiGraph, motif: Motif) -> CsrMatrix<f64> {
    let bc = g.bidirectional();
    let uc = g.unidirectional();
    let uc_t = uc.transpose();
    // Shorthand for `(x · y) ⊙ mask`.
    let prod =
        |x: &CsrMatrix<f64>, y: &CsrMatrix<f64>, mask: &CsrMatrix<f64>| x.spmm_masked(y, mask);
    let c = match motif {
        Motif::M1 => prod(&uc, &uc, &uc_t),
        Motif::M2 => prod(&bc, &uc, &uc_t)
            .add(&prod(&uc, &bc, &uc_t))
            .add(&prod(&uc, &uc, &bc)),
        Motif::M3 => prod(&bc, &bc, &uc)
            .add(&prod(&bc, &uc, &bc))
            .add(&prod(&uc, &bc, &bc)),
        Motif::M4 => prod(&bc, &bc, &bc),
        Motif::M5 => prod(&uc, &uc, &uc)
            .add(&prod(&uc, &uc_t, &uc))
            .add(&prod(&uc_t, &uc, &uc)),
        Motif::M6 => prod(&uc, &bc, &uc)
            .add(&prod(&bc, &uc_t, &uc_t))
            .add(&prod(&uc_t, &uc, &bc)),
        Motif::M7 => prod(&uc_t, &bc, &uc_t)
            .add(&prod(&bc, &uc, &uc))
            .add(&prod(&uc, &uc_t, &bc)),
    };
    // Table II symmetrises M1–M3 and M5 as `C + Cᵀ`; for M4/M6/M7 the `C`
    // above is already symmetric and is used directly.
    match motif {
        Motif::M4 | Motif::M6 | Motif::M7 => c.prune(),
        _ => c.add(&c.transpose()).prune(),
    }
}

/// Total number of instances of `motif` in the graph. Each instance of a
/// triangular motif contributes to three co-occurrence pairs, each counted
/// symmetrically, so the instance count is `sum(A) / 6`.
pub fn motif_instance_count(g: &DiGraph, motif: Motif) -> f64 {
    let a = motif_adjacency(g, motif);
    a.row_sums().iter().sum::<f64>() / 6.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        DiGraph::from_edges(n, edges).expect("valid test graph")
    }

    /// Role pattern of each motif over ordered roles `(a, b, c)`, derived
    /// term by term from the Table II formulas (see the `Motif` doc table).
    fn role_pattern(
        motif: Motif,
        uni: &dyn Fn(usize, usize) -> bool,
        bi: &dyn Fn(usize, usize) -> bool,
        a: usize,
        b: usize,
        c: usize,
    ) -> bool {
        match motif {
            Motif::M1 => uni(a, b) && uni(b, c) && uni(c, a),
            Motif::M2 => bi(a, b) && uni(a, c) && uni(c, b),
            Motif::M3 => bi(a, b) && bi(b, c) && uni(a, c),
            Motif::M4 => bi(a, b) && bi(b, c) && bi(a, c),
            Motif::M5 => uni(a, b) && uni(b, c) && uni(a, c),
            Motif::M6 => uni(a, b) && uni(a, c) && bi(b, c),
            Motif::M7 => uni(b, a) && uni(c, a) && bi(b, c),
        }
    }

    const PERMS: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];

    /// Automorphism count of the motif pattern, computed on a canonical
    /// instance rather than hardcoded.
    fn symmetry(motif: Motif) -> usize {
        // Build the canonical instance on nodes {0, 1, 2} with roles
        // (a, b, c) = (0, 1, 2).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        {
            let mut add_uni = |u: usize, v: usize| edges.push((u, v));
            match motif {
                Motif::M1 => {
                    add_uni(0, 1);
                    add_uni(1, 2);
                    add_uni(2, 0);
                }
                Motif::M2 => {
                    add_uni(0, 1);
                    add_uni(1, 0);
                    add_uni(0, 2);
                    add_uni(2, 1);
                }
                Motif::M3 => {
                    add_uni(0, 1);
                    add_uni(1, 0);
                    add_uni(1, 2);
                    add_uni(2, 1);
                    add_uni(0, 2);
                }
                Motif::M4 => {
                    for (u, v) in [(0, 1), (1, 2), (0, 2)] {
                        add_uni(u, v);
                        add_uni(v, u);
                    }
                }
                Motif::M5 => {
                    add_uni(0, 1);
                    add_uni(1, 2);
                    add_uni(0, 2);
                }
                Motif::M6 => {
                    add_uni(0, 1);
                    add_uni(0, 2);
                    add_uni(1, 2);
                    add_uni(2, 1);
                }
                Motif::M7 => {
                    add_uni(1, 0);
                    add_uni(2, 0);
                    add_uni(1, 2);
                    add_uni(2, 1);
                }
            }
        }
        let g = DiGraph::from_edges(3, &edges).expect("canonical instance is valid");
        let edge = |u: usize, v: usize| g.has_edge(u, v);
        let uni = move |u: usize, v: usize| edge(u, v) && !edge(v, u);
        let bi = move |u: usize, v: usize| edge(u, v) && edge(v, u);
        PERMS
            .iter()
            .filter(|p| role_pattern(motif, &uni, &bi, p[0], p[1], p[2]))
            .count()
    }

    /// Brute-force motif co-occurrence counting over all node triples,
    /// used as ground truth for the masked-spmm implementation.
    fn brute_force(g: &DiGraph, motif: Motif) -> ahntp_tensor::Tensor {
        let n = g.n();
        let mut a = ahntp_tensor::Tensor::zeros(n, n);
        let edge = |u: usize, v: usize| g.has_edge(u, v);
        let uni = move |u: usize, v: usize| edge(u, v) && !edge(v, u);
        let bi = move |u: usize, v: usize| edge(u, v) && edge(v, u);
        let sym = symmetry(motif);
        assert!(sym >= 1, "pattern must match its own canonical instance");
        for x in 0..n {
            for y in (x + 1)..n {
                for z in (y + 1)..n {
                    let nodes = [x, y, z];
                    let instances = PERMS
                        .iter()
                        .filter(|p| {
                            role_pattern(motif, &uni, &bi, nodes[p[0]], nodes[p[1]], nodes[p[2]])
                        })
                        .count();
                    assert_eq!(instances % sym, 0, "symmetry accounting broken for {motif}");
                    let count = (instances / sym) as f32;
                    if count > 0.0 {
                        for &u in &nodes {
                            for &v in &nodes {
                                if u != v {
                                    a.set(u, v, a.get(u, v) + count);
                                }
                            }
                        }
                    }
                }
            }
        }
        a
    }

    /// A 7-node graph containing every motif at least once.
    fn rich_graph() -> DiGraph {
        graph(
            7,
            &[
                // M1 cycle: 0→1→2→0
                (0, 1),
                (1, 2),
                (2, 0),
                // M4 mutual triangle: 3↔4, 4↔5, 3↔5
                (3, 4),
                (4, 3),
                (4, 5),
                (5, 4),
                (3, 5),
                (5, 3),
                // M5 feed-forward: 0→5? keep separate: 0→6, 1→6, 0→1 exists
                (0, 6),
                (1, 6),
                // connect mutual pair to a spoke for M6/M7: 6→3, 6→4 gives
                // out-fan onto mutual pair (M6); 3→2, 4→2 would give M7.
                (6, 3),
                (6, 4),
                (3, 2),
                (4, 2),
                // one mutual edge + spokes for M2/M3
                (2, 5),
                (5, 2),
            ],
        )
    }

    #[test]
    fn motif_adjacency_matches_brute_force_on_rich_graph() {
        let g = rich_graph();
        for motif in Motif::ALL {
            let fast = motif_adjacency(&g, motif).to_dense();
            let slow = brute_force(&g, motif);
            assert_eq!(
                fast.as_slice(),
                slow.as_slice(),
                "motif {motif}: masked-spmm disagrees with brute force\nfast={fast:?}\nslow={slow:?}"
            );
        }
    }

    #[test]
    fn motif_adjacency_is_symmetric_with_zero_diagonal() {
        let g = rich_graph();
        for motif in Motif::ALL {
            let a = motif_adjacency(&g, motif);
            let d = a.to_dense();
            for i in 0..g.n() {
                assert_eq!(d.get(i, i), 0.0, "{motif}: nonzero diagonal at {i}");
                for j in 0..g.n() {
                    assert_eq!(d.get(i, j), d.get(j, i), "{motif}: asymmetric at ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn paper_fig6_m6_example() {
        // Fig. 6 of the paper: 6 nodes where A^{M6}_{15} = 2 because users
        // 1 and 5 co-occur in two M6 instances {1,6,5} and {1,5,4}.
        // Reconstruct: M6 = a→b, a→c, b↔c. Instances {a=1,(6,5)} and
        // {a=1,(5,4)}: edges 1→6, 1→5, 6↔5, 1→4, 5↔4. (0-indexed: 0-based
        // ids are node-1.)
        let g = graph(
            6,
            &[
                (0, 5), // 1→6
                (0, 4), // 1→5
                (5, 4), // 6↔5
                (4, 5),
                (0, 3), // 1→4
                (4, 3), // 5↔4
                (3, 4),
            ],
        );
        let a = motif_adjacency(&g, Motif::M6);
        assert_eq!(a.get(0, 4), 2.0, "A^M6 between users 1 and 5 must be 2");
        assert_eq!(a.get(4, 0), 2.0);
    }

    #[test]
    fn single_motif_graphs_count_one_instance() {
        // Pure M1 cycle.
        let m1 = graph(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(motif_instance_count(&m1, Motif::M1), 1.0);
        assert_eq!(motif_instance_count(&m1, Motif::M5), 0.0);
        // Pure M4 mutual triangle.
        let m4 = graph(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]);
        assert_eq!(motif_instance_count(&m4, Motif::M4), 1.0);
        assert_eq!(motif_instance_count(&m4, Motif::M1), 0.0);
        // Pure M5 feed-forward.
        let m5 = graph(3, &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(motif_instance_count(&m5, Motif::M5), 1.0);
        assert_eq!(motif_instance_count(&m5, Motif::M4), 0.0);
    }

    #[test]
    fn empty_graph_has_no_motifs() {
        let g = graph(4, &[]);
        for motif in Motif::ALL {
            assert_eq!(motif_adjacency(&g, motif).nnz(), 0);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Motif::M1.to_string(), "M1");
        assert_eq!(Motif::M7.to_string(), "M7");
    }
}
