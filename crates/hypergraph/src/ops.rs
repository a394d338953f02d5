//! The constant aggregation-operator set a hypergraph convolution consumes
//! (Eqs. 10–16), for the full hypergraph or a sampled hyperedge subset.
//!
//! Layers used to extract this structure privately from a [`Hypergraph`] at
//! construction; mini-batch training needs the same bundle *per sampled
//! edge set*, built through the CSR slicing kernels
//! (`CsrMatrix::select_rows` / `select_cols` / `scale_rows`) so slices are
//! cheap and — at the identity selection — bitwise identical to the full
//! operators.
//!
//! A layer reads the set in two halves: the hyperedge side (`v2e` and
//! `edge_ids`, Eqs. 10–11) and the vertex side ([`VertexRows`], Eqs.
//! 12–16). A live refresh builds each half for a few rows only
//! ([`crate::AggregationCache::edge_rows`] /
//! [`crate::AggregationCache::vertex_rows`]).

use crate::Hypergraph;
use ahntp_tensor::CsrMatrix;
use std::rc::Rc;

/// Everything a hypergraph convolution needs about the (possibly sampled)
/// incidence structure: the two mean-aggregation operators, the attention
/// index vectors, and — for slices — the global ids of the edges kept.
///
/// All fields are `Rc`-shared so one extraction serves a whole layer stack.
#[derive(Clone)]
pub struct AggregationOps {
    /// `m × n` vertex→edge mean operator (Eq. 10); `m` is the number of
    /// *selected* edges for a slice.
    pub v2e: Rc<CsrMatrix<f32>>,
    /// `n × m` edge→vertex mean operator (Eq. 12), renormalised over the
    /// selected edges.
    pub e2v: Rc<CsrMatrix<f32>>,
    /// Incidence pairs `(vertex, local edge)` sorted by vertex, for the
    /// attention of Eqs. 14–16.
    pub pairs: Rc<Vec<(usize, usize)>>,
    /// Row index per pair: the central vertex (to gather `x_i`, and the
    /// softmax group of Eq. 15).
    pub pair_vertices: Rc<Vec<usize>>,
    /// Row index per pair: the local hyperedge (to gather `h_e`).
    pub pair_edges: Rc<Vec<usize>>,
    /// Global hyperedge id per local edge — `Some` only for slices, where
    /// layers must gather their per-edge weights through it. `None` means
    /// "full hypergraph, local ids are global ids".
    pub edge_ids: Option<Rc<Vec<usize>>>,
    /// Number of vertices (rows of the convolution output).
    pub n_vertices: usize,
}

/// The vertex side of an operator set: what Eqs. 12–16 read for a run of
/// output rows. Row `i` of `e2v` and the pairs with `pair_vertices == i`
/// belong to output row `i`; `pair_edges` index the hyperedge-feature
/// matrix the layer aggregates, so for a live refresh they are global
/// hyperedge ids.
#[derive(Clone)]
pub struct VertexRows {
    /// `rows × m` edge→vertex mean operator (Eq. 12).
    pub e2v: Rc<CsrMatrix<f32>>,
    /// Incidence pairs `(row, edge)` sorted by row (Eqs. 14–16).
    pub pairs: Rc<Vec<(usize, usize)>>,
    /// The row of each pair: what Eq. 14 gathers `x'_i` by and the
    /// softmax group of Eq. 15.
    pub pair_vertices: Rc<Vec<usize>>,
    /// The hyperedge of each pair: what Eq. 14 gathers `W h̃_e` by.
    pub pair_edges: Rc<Vec<usize>>,
}

impl VertexRows {
    /// Number of output rows.
    pub fn n_rows(&self) -> usize {
        self.e2v.rows()
    }
}

impl AggregationOps {
    /// Extracts the full-hypergraph operator set (the classic layer
    /// construction path).
    pub fn full(h: &Hypergraph) -> AggregationOps {
        let (pairs, pair_vertices) = h.incidence_pairs();
        let pair_edges = pairs.iter().map(|&(_, e)| e).collect::<Vec<_>>();
        AggregationOps {
            v2e: Rc::new(h.vertex_to_edge_mean()),
            e2v: Rc::new(h.edge_to_vertex_mean()),
            pairs: Rc::new(pairs),
            pair_vertices: Rc::new(pair_vertices),
            pair_edges: Rc::new(pair_edges),
            edge_ids: None,
            n_vertices: h.n_vertices(),
        }
    }

    /// Extracts the operator set restricted to the given hyperedges,
    /// recomputing the full incidence and vertex→edge operators first.
    /// [`crate::AggregationCache`] keeps those two cached and calls
    /// [`AggregationOps::sliced_from`] instead; this standalone entry point
    /// exists for tests and one-off extractions.
    ///
    /// # Panics
    ///
    /// Panics if any edge id is out of range.
    pub fn sliced(h: &Hypergraph, edge_ids: &[usize]) -> AggregationOps {
        Self::sliced_from(&h.incidence(), &h.vertex_to_edge_mean(), edge_ids)
    }

    /// Builds the sliced operator set from the full incidence matrix and
    /// the full vertex→edge operator via the CSR slicing kernels.
    ///
    /// With the identity selection every matrix is bitwise identical to the
    /// [`AggregationOps::full`] extraction: `select_rows` copies rows
    /// verbatim, `select_cols` preserves the per-row entry order, and
    /// `1.0 * x == x` exactly for the renormalised edge→vertex values.
    ///
    /// # Panics
    ///
    /// Panics if any edge id is out of range.
    pub fn sliced_from(
        incidence: &CsrMatrix<f32>,
        v2e_full: &CsrMatrix<f32>,
        edge_ids: &[usize],
    ) -> AggregationOps {
        // Eq. 10 operator: row e of the full operator already holds
        // 1/|N_e| on the members; sampling edges just selects rows.
        let v2e = v2e_full.select_rows(edge_ids);
        // Incidence restricted to the sampled edges (columns), then
        // renormalised per vertex over the edges *it still sees* (Eq. 12
        // with N_u ∩ S in place of N_u).
        let inc_s = incidence.select_cols(edge_ids);
        let inv_counts: Vec<f32> = (0..inc_s.rows())
            .map(|v| {
                let c = inc_s.row_nnz(v);
                if c > 0 {
                    1.0 / c as f32
                } else {
                    0.0
                }
            })
            .collect();
        let e2v = inc_s.scale_rows(&inv_counts);
        // Attention index vectors: row-major iteration over the sliced
        // incidence is exactly "(vertex, local edge) sorted by vertex".
        let mut pairs = Vec::with_capacity(inc_s.nnz());
        for v in 0..inc_s.rows() {
            for (e, _) in inc_s.row_entries(v) {
                pairs.push((v, e));
            }
        }
        let pair_vertices = pairs.iter().map(|&(v, _)| v).collect::<Vec<_>>();
        let pair_edges = pairs.iter().map(|&(_, e)| e).collect::<Vec<_>>();
        AggregationOps {
            n_vertices: inc_s.rows(),
            v2e: Rc::new(v2e),
            e2v: Rc::new(e2v),
            pairs: Rc::new(pairs),
            pair_vertices: Rc::new(pair_vertices),
            pair_edges: Rc::new(pair_edges),
            edge_ids: Some(Rc::new(edge_ids.to_vec())),
        }
    }

    /// The vertex side of this set, every vertex a row (shares the
    /// buffers).
    pub fn vertex_rows(&self) -> VertexRows {
        VertexRows {
            e2v: Rc::clone(&self.e2v),
            pairs: Rc::clone(&self.pairs),
            pair_vertices: Rc::clone(&self.pair_vertices),
            pair_edges: Rc::clone(&self.pair_edges),
        }
    }

    /// Number of (selected) hyperedges this operator set aggregates over.
    pub fn n_edges(&self) -> usize {
        self.v2e.rows()
    }

    /// Rows of sparse operator state resident for this set — the
    /// vertex-row count plus the selected-edge row count. The "peak
    /// resident rows" figure the bench reports for full-batch vs
    /// mini-batch epochs.
    pub fn resident_rows(&self) -> usize {
        self.n_vertices + self.n_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        let mut h = Hypergraph::new(5);
        h.add_edge(&[0, 1, 2]).expect("valid");
        h.add_edge(&[2, 3]).expect("valid");
        h.add_weighted_edge(&[0, 3, 4], 2.0).expect("valid");
        h
    }

    #[test]
    fn full_matches_hypergraph_operators() {
        let h = sample();
        let ops = AggregationOps::full(&h);
        assert_eq!(*ops.v2e, h.vertex_to_edge_mean());
        assert_eq!(*ops.e2v, h.edge_to_vertex_mean());
        let (pairs, pair_vertices) = h.incidence_pairs();
        assert_eq!(*ops.pairs, pairs);
        assert_eq!(*ops.pair_vertices, pair_vertices);
        assert!(ops.edge_ids.is_none());
        assert_eq!(ops.n_edges(), 3);
        assert_eq!(ops.resident_rows(), 5 + 3);
    }

    #[test]
    fn identity_slice_is_bitwise_full() {
        let h = sample();
        let full = AggregationOps::full(&h);
        let sliced = AggregationOps::sliced(&h, &[0, 1, 2]);
        assert_eq!(*sliced.v2e, *full.v2e);
        assert_eq!(*sliced.e2v, *full.e2v);
        assert_eq!(*sliced.pairs, *full.pairs);
        assert_eq!(*sliced.pair_vertices, *full.pair_vertices);
        assert_eq!(*sliced.pair_edges, *full.pair_edges);
        assert_eq!(sliced.edge_ids.as_deref(), Some(&vec![0, 1, 2]));
    }

    #[test]
    fn slice_renormalises_vertex_means() {
        let h = sample();
        // Keep edges {0, 2}: vertex 0 sees both, vertex 2 only edge 0,
        // vertex 1 only edge 0, vertices 3/4 only edge 2 → all weights are
        // means over the *remaining* incident edges.
        let ops = AggregationOps::sliced(&h, &[0, 2]);
        ops.v2e.validate().unwrap();
        ops.e2v.validate().unwrap();
        assert_eq!(ops.n_edges(), 2);
        assert_eq!(ops.e2v.get(0, 0), 0.5);
        assert_eq!(ops.e2v.get(0, 1), 0.5);
        assert_eq!(ops.e2v.get(2, 0), 1.0);
        assert_eq!(ops.e2v.get(3, 1), 1.0);
        // Vertex 2 lost edge 1: its row over local edges sums to 1.
        let sums = ops.e2v.row_sums();
        assert_eq!(sums[2], 1.0);
        // pairs reference local edge ids.
        assert!(ops.pairs.iter().all(|&(_, e)| e < 2));
        assert_eq!(ops.edge_ids.as_deref(), Some(&vec![0, 2]));
    }

    #[test]
    fn out_of_order_slice_is_well_formed() {
        let h = sample();
        let ops = AggregationOps::sliced(&h, &[2, 0]);
        ops.v2e.validate().unwrap();
        ops.e2v.validate().unwrap();
        // Local edge 0 is global edge 2 ({0, 3, 4}).
        assert_eq!(ops.v2e.row_nnz(0), 3);
        assert_eq!(ops.v2e.row_nnz(1), 3);
        // Pair vertices stay sorted (softmax grouping requirement).
        assert!(ops.pair_vertices.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn vertex_rows_share_the_sets_buffers() {
        let ops = AggregationOps::sliced(&sample(), &[2, 0]);
        let rows = ops.vertex_rows();
        assert_eq!(rows.n_rows(), ops.n_vertices);
        assert!(Rc::ptr_eq(&rows.e2v, &ops.e2v));
        assert!(Rc::ptr_eq(&rows.pairs, &ops.pairs));
        assert!(Rc::ptr_eq(&rows.pair_vertices, &ops.pair_vertices));
        assert!(Rc::ptr_eq(&rows.pair_edges, &ops.pair_edges));
    }

    #[test]
    fn empty_slice_is_well_formed() {
        let h = sample();
        let ops = AggregationOps::sliced(&h, &[]);
        assert_eq!(ops.n_edges(), 0);
        assert_eq!(ops.e2v.nnz(), 0);
        assert!(ops.pairs.is_empty());
    }
}
