//! PageRank and Motif-based PageRank (Eqs. 1–5 of the paper).

use crate::{motif_adjacency, DiGraph, Motif, PprStats};
use ahntp_tensor::CsrMatrix;

/// Configuration for the damped power iteration: PageRank (Eq. 2) and,
/// under its other name [`PprConfig`](crate::PprConfig), personalized
/// PageRank.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor `d ∈ (0, 1)`, the probability of following an edge
    /// rather than teleporting; the paper (and Brin–Page) use 0.85. For
    /// personalized PageRank the Sybil bound scales with `d / (1 − d)`, so
    /// a smaller `d` is a tighter defense at the cost of shorter-range
    /// trust propagation.
    pub damping: f64,
    /// Stop when the L1 residual between iterates falls below this.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: usize,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-10,
            max_iterations: 200,
        }
    }
}

/// Configuration for Motif-based PageRank (Eqs. 4–5).
#[derive(Debug, Clone, Copy)]
pub struct MotifPageRankConfig {
    /// Mixing weight `α` between the pairwise adjacency `R_U` and the
    /// motif-induced adjacency `A^{M_k}` (Eq. 4). The paper's best value is
    /// 0.8.
    pub alpha: f64,
    /// PageRank parameters for the mixed walk (Eq. 5).
    pub pagerank: PageRankConfig,
}

impl Default for MotifPageRankConfig {
    fn default() -> Self {
        MotifPageRankConfig {
            alpha: 0.8,
            pagerank: PageRankConfig::default(),
        }
    }
}

/// The damped power iteration behind both PageRanks: the fixed point of
/// `s = d · Pᵀ s + (1 − d) · t` over the row-normalised weight matrix `P`
/// of a non-negative `w` (Eq. 1) and a teleport distribution `t`
/// (`Σ t = 1`), starting from `t`. Mass that would leave through a
/// dangling row (no outgoing weight) returns along `t` too, so `Σ s = 1`
/// at every iterate; one step is
/// `s'_i = d · (Pᵀ s)_i + (1 − d) · t_i + d · m · t_i` with `m` the
/// dangling mass. Uniform `t` is Brin–Page PageRank, `t` uniform over a
/// seed set personalized PageRank.
///
/// `Pᵀ` is formed once, so each step's product runs through
/// [`CsrMatrix::mul_vec`]: every output entry is one dot over the rows of
/// `P` in order, the sum a scatter through `P` would take.
pub(crate) fn power_iteration(
    w: &CsrMatrix<f64>,
    teleport: &[f64],
    cfg: &PageRankConfig,
) -> (Vec<f64>, PprStats) {
    let n = w.rows();
    assert_eq!(n, w.cols(), "power_iteration: matrix must be square");
    let d = cfg.damping;
    assert!(
        d > 0.0 && d < 1.0,
        "power_iteration: damping must be in (0, 1), got {d}"
    );
    let p = w.row_normalized();
    let pt = p.transpose();
    let dangling: Vec<bool> = (0..n).map(|r| p.row_nnz(r) == 0).collect();
    let mut s = teleport.to_vec();
    let mut stats = PprStats {
        iterations: 0,
        residual: f64::INFINITY,
        converged: false,
    };
    for _ in 0..cfg.max_iterations {
        let dangling_mass: f64 = s
            .iter()
            .zip(&dangling)
            .filter_map(|(&v, &dang)| dang.then_some(v))
            .sum();
        let mut next = pt.mul_vec(&s);
        for (v, &t) in next.iter_mut().zip(teleport) {
            *v = d * *v + (1.0 - d) * t + d * dangling_mass * t;
        }
        stats.residual = next.iter().zip(&s).map(|(a, b)| (a - b).abs()).sum();
        stats.iterations += 1;
        s = next;
        if stats.residual < cfg.tolerance {
            stats.converged = true;
            break;
        }
    }
    (s, stats)
}

/// Basic PageRank score `s` over the social graph (Eqs. 1–2).
pub fn pagerank(g: &DiGraph, cfg: &PageRankConfig) -> Vec<f64> {
    uniform_pagerank(g.adjacency(), cfg)
}

/// [`power_iteration`] with the uniform teleport of Eq. 2.
fn uniform_pagerank(w: &CsrMatrix<f64>, cfg: &PageRankConfig) -> Vec<f64> {
    let n = w.rows();
    power_iteration(w, &vec![1.0 / n as f64; n], cfg).0
}

/// Motif-based PageRank `s'` (Eqs. 3–5): mixes the pairwise adjacency with
/// the motif-induced adjacency `A^{M_k}` as
/// `W_c = α · R_U + (1 − α) · A^{M_k}` and runs the damped power iteration
/// on the row-normalised `W_c`.
///
/// # Panics
///
/// Panics if `alpha` is outside `[0, 1]`.
pub fn motif_pagerank(g: &DiGraph, motif: Motif, cfg: &MotifPageRankConfig) -> Vec<f64> {
    assert!(
        (0.0..=1.0).contains(&cfg.alpha),
        "motif_pagerank: alpha must be in [0, 1], got {}",
        cfg.alpha
    );
    let a_m = motif_adjacency(g, motif);
    let wc = g
        .adjacency()
        .scale(cfg.alpha)
        .add(&a_m.scale(1.0 - cfg.alpha))
        .prune();
    uniform_pagerank(&wc, &cfg.pagerank)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        DiGraph::from_edges(n, edges).expect("valid test graph")
    }

    #[test]
    fn pagerank_sums_to_one() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 0), (3, 0), (0, 4)]);
        let s = pagerank(&g, &PageRankConfig::default());
        let total: f64 = s.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
        assert!(s.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn pagerank_of_cycle_is_uniform() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = pagerank(&g, &PageRankConfig::default());
        for &v in &s {
            assert!((v - 0.25).abs() < 1e-9, "cycle node score {v}");
        }
    }

    #[test]
    fn hub_outranks_spokes() {
        // Star pointing at node 0.
        let g = graph(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let s = pagerank(&g, &PageRankConfig::default());
        for i in 1..5 {
            assert!(s[0] > s[i], "hub must dominate spoke {i}");
        }
    }

    #[test]
    fn dangling_nodes_keep_total_mass() {
        // Node 2 has no out-edges at all.
        let g = graph(3, &[(0, 1), (1, 2)]);
        let s = pagerank(&g, &PageRankConfig::default());
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Deeper in the chain means more rank.
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn empty_graph_yields_empty_scores() {
        let g = graph(0, &[]);
        assert!(pagerank(&g, &PageRankConfig::default()).is_empty());
    }

    #[test]
    fn isolated_nodes_get_teleport_mass_only() {
        let g = graph(4, &[(0, 1), (1, 0)]);
        let s = pagerank(&g, &PageRankConfig::default());
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s[0] > s[2] && s[1] > s[3]);
        assert!(s[2] > 0.0, "isolated nodes keep teleport mass");
    }

    #[test]
    fn motif_pagerank_alpha_one_equals_plain_pagerank() {
        let g = graph(5, &[(0, 1), (0, 2), (1, 2), (2, 1), (0, 4), (4, 3)]);
        let cfg = MotifPageRankConfig {
            alpha: 1.0,
            pagerank: PageRankConfig::default(),
        };
        let mpr = motif_pagerank(&g, Motif::M6, &cfg);
        let pr = pagerank(&g, &PageRankConfig::default());
        for (a, b) in mpr.iter().zip(&pr) {
            assert!((a - b).abs() < 1e-9, "alpha=1 must reduce to PageRank");
        }
    }

    #[test]
    fn motif_pagerank_boosts_triangle_members() {
        // Fig. 2-style graph: the {0,1,2} triangle (with 1↔2 mutual) plus a
        // pendant follow 0→4. Under M6-based MPR, user 2 (inside the
        // triangular structure) must outrank user 4 (outside it).
        let g = graph(5, &[(0, 1), (0, 2), (1, 2), (2, 1), (0, 4)]);
        let mpr = motif_pagerank(&g, Motif::M6, &MotifPageRankConfig::default());
        assert!(
            mpr[2] > mpr[4],
            "triangle member {} must outrank pendant {}",
            mpr[2],
            mpr[4]
        );
        assert!((mpr.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn motif_pagerank_alpha_changes_ranking_weighting() {
        let g = graph(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 1),
                (0, 4),
                (4, 5),
                (5, 4),
                (3, 4),
            ],
        );
        let lo = motif_pagerank(
            &g,
            Motif::M6,
            &MotifPageRankConfig {
                alpha: 0.1,
                pagerank: PageRankConfig::default(),
            },
        );
        let hi = motif_pagerank(
            &g,
            Motif::M6,
            &MotifPageRankConfig {
                alpha: 0.9,
                pagerank: PageRankConfig::default(),
            },
        );
        // Different mixes produce measurably different score vectors.
        let diff: f64 = lo.iter().zip(&hi).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "alpha must influence the scores");
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn motif_pagerank_rejects_bad_alpha() {
        let g = graph(2, &[(0, 1)]);
        motif_pagerank(
            &g,
            Motif::M1,
            &MotifPageRankConfig {
                alpha: 1.5,
                pagerank: PageRankConfig::default(),
            },
        );
    }

    #[test]
    #[should_panic(expected = "damping must be in (0, 1)")]
    fn pagerank_rejects_bad_damping() {
        let g = graph(2, &[(0, 1)]);
        pagerank(
            &g,
            &PageRankConfig {
                damping: 1.0,
                ..PageRankConfig::default()
            },
        );
    }
}
