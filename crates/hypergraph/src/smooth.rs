//! The Eq. 23 smoothness term's Laplacian in factored form.
//!
//! The normalised Laplacian of Eq. 24 is `Δ = I − B Bᵀ` with
//! `B = D_v^{-1/2} H (W D_e^{-1})^{1/2}`: column `j` of `B` is a hyperedge
//! `e`, holding `√(w_e / |e|) / √d_v` on each member `v`, where `d_v` sums
//! the weights of the hyperedges `v` sees. So `Δf = f − B (Bᵀ f)` costs two
//! products over Σ|e| entries, where `Δ` itself holds up to Σ|e|² — the
//! attribute hypergroup's largest hyperedge has over a thousand members
//! at the paper's sizes. A vertex no hyperedge reaches has an empty row of
//! `B`, so `Δ` keeps its identity row.
//!
//! The factor spans several hypergraphs over one vertex set (the model's
//! two tiers), each restricted to a selection of its hyperedges, and is
//! read off the tier caches' member and incident-edge lists in time linear
//! in its entries.

use crate::AggregationCache;
use ahntp_tensor::CsrMatrix;
use std::rc::Rc;

/// `B` of Eq. 24's `Δ = I − B Bᵀ`, as both of its CSR orientations.
pub struct SmoothnessFactor {
    /// `Bᵀ` (`m × n`): row `j` on the members of the `j`-th kept hyperedge.
    pub bt: Rc<CsrMatrix<f32>>,
    /// `B` (`n × m`): row `v` on the kept hyperedges incident to `v`.
    pub b: Rc<CsrMatrix<f32>>,
}

impl SmoothnessFactor {
    /// The factor of the hypergraph made of every tier's kept hyperedges:
    /// `tiers` pairs a cache with the ids it keeps (strictly ascending, as
    /// `sample_edges` returns them) or `None` for all of them. Columns run
    /// tier by tier, ids ascending within a tier, and every vertex degree
    /// sums the weights of its kept hyperedges in that order.
    ///
    /// # Panics
    ///
    /// Panics if the tiers disagree on the vertex count, or a selection is
    /// not strictly ascending and in range.
    pub fn build(tiers: &[(&AggregationCache, Option<&[usize]>)]) -> SmoothnessFactor {
        let _k = ahntp_telemetry::KernelSpan::enter(
            "hypergraph.smoothness_factor",
            ahntp_telemetry::KernelKind::CacheBuild,
        );
        let n = tiers.first().map_or(0, |(c, _)| c.n_vertices());
        // Per tier, each hyperedge's column (`None` when not kept).
        let mut offset = 0;
        let columns: Vec<Vec<Option<usize>>> = tiers
            .iter()
            .map(|&(cache, ids)| {
                assert_eq!(
                    cache.n_vertices(),
                    n,
                    "SmoothnessFactor::build: tiers over different vertex sets"
                );
                let m = cache.n_edges();
                let mut column = vec![None; m];
                match ids {
                    None => column.iter_mut().enumerate().for_each(|(e, c)| *c = Some(e)),
                    Some(ids) => {
                        assert!(
                            ids.windows(2).all(|w| w[0] < w[1]) && ids.last().is_none_or(|&e| e < m),
                            "SmoothnessFactor::build: hyperedge ids must be strictly ascending and in range"
                        );
                        ids.iter().enumerate().for_each(|(j, &e)| column[e] = Some(j));
                    }
                }
                let kept = column.iter().flatten().count();
                column.iter_mut().flatten().for_each(|c| *c += offset);
                offset += kept;
                column
            })
            .collect();
        let n_cols = offset;
        let scale = |cache: &AggregationCache, e: usize| {
            (cache.hypergraph().weights()[e] / cache.hypergraph().edge(e).len() as f32).sqrt()
        };
        // `B` row by row off the incident-edge lists; the degrees come out
        // of the same walk.
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let (mut cols, mut values) = (Vec::new(), Vec::new());
        let mut inv_sqrt_degree = Vec::with_capacity(n);
        for v in 0..n {
            let mut degree = 0.0f32;
            for (&(cache, _), column) in tiers.iter().zip(&columns) {
                for &e in &cache.adjacency()[v] {
                    if let Some(j) = column[e] {
                        degree += cache.hypergraph().weights()[e];
                        cols.push(j);
                        values.push(scale(cache, e));
                    }
                }
            }
            let d = if degree > 0.0 {
                1.0 / degree.sqrt()
            } else {
                0.0
            };
            values[row_ptr[v]..].iter_mut().for_each(|x| *x *= d);
            inv_sqrt_degree.push(d);
            row_ptr.push(cols.len());
        }
        let b = CsrMatrix::from_csr(n, n_cols, row_ptr, cols, values);
        // `Bᵀ` row by row off the member lists.
        let mut row_ptr = Vec::with_capacity(n_cols + 1);
        row_ptr.push(0);
        let (mut cols, mut values) = (Vec::new(), Vec::new());
        for (&(cache, _), column) in tiers.iter().zip(&columns) {
            for (e, _) in column.iter().enumerate().filter(|(_, c)| c.is_some()) {
                let s = scale(cache, e);
                for &v in cache.hypergraph().edge(e) {
                    cols.push(v);
                    values.push(s * inv_sqrt_degree[v]);
                }
                row_ptr.push(cols.len());
            }
        }
        let bt = CsrMatrix::from_csr(n_cols, n, row_ptr, cols, values);
        SmoothnessFactor {
            bt: Rc::new(bt),
            b: Rc::new(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hypergraph;

    /// Two tiers over five vertices: vertex 4 in no hyperedge, a singleton
    /// edge, weights other than 1.
    fn tiers() -> (AggregationCache, AggregationCache) {
        let mut a = Hypergraph::new(5);
        a.add_edge(&[0, 1, 2]).expect("valid");
        a.add_weighted_edge(&[3], 2.0).expect("valid");
        let mut b = Hypergraph::new(5);
        b.add_weighted_edge(&[1, 3], 0.5).expect("valid");
        b.add_edge(&[0, 2, 3]).expect("valid");
        (AggregationCache::new(a), AggregationCache::new(b))
    }

    #[test]
    fn the_two_orientations_are_transposes() {
        let (a, b) = tiers();
        for sel in [None, Some(&[1usize][..])] {
            let f = SmoothnessFactor::build(&[(&a, sel), (&b, None)]);
            assert_eq!(f.b.to_dense(), f.bt.to_dense().transpose());
            assert_eq!(f.bt.rows(), if sel.is_some() { 3 } else { 4 });
        }
    }

    #[test]
    fn i_minus_b_bt_is_the_laplacian_of_the_kept_edges() {
        let (a, b) = tiers();
        let whole = Hypergraph::concat(&[a.hypergraph(), b.hypergraph()]);
        for (sel_a, sel_b, ids) in [
            (None, None, vec![0, 1, 2, 3]),
            (Some(&[0usize][..]), Some(&[1usize][..]), vec![0, 3]),
            (Some(&[][..]), Some(&[0usize, 1][..]), vec![2, 3]),
        ] {
            let f = SmoothnessFactor::build(&[(&a, sel_a), (&b, sel_b)]);
            let bbt = f.b.to_dense().matmul(&f.bt.to_dense());
            let lap = whole.laplacian_for_edges(&ids).to_dense();
            for r in 0..5 {
                for c in 0..5 {
                    let identity = if r == c { 1.0 } else { 0.0 };
                    let got = identity - bbt.get(r, c);
                    assert!(
                        (got - lap.get(r, c)).abs() < 1e-6,
                        "edges {ids:?}: Δ[{r}][{c}] {got} vs {}",
                        lap.get(r, c)
                    );
                }
            }
            // The isolated vertex keeps an empty row.
            assert_eq!(f.b.row_ptr()[5] - f.b.row_ptr()[4], 0);
        }
    }

    #[test]
    fn an_explicit_identity_selection_is_bitwise_all_edges() {
        let (a, b) = tiers();
        let all = SmoothnessFactor::build(&[(&a, None), (&b, None)]);
        let ids = SmoothnessFactor::build(&[(&a, Some(&[0, 1])), (&b, Some(&[0, 1]))]);
        assert_eq!(*all.b, *ids.b);
        assert_eq!(*all.bt, *ids.bt);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_selection_must_ascend() {
        let (a, b) = tiers();
        SmoothnessFactor::build(&[(&a, Some(&[1, 0])), (&b, None)]);
    }
}
