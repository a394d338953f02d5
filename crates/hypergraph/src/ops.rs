//! The constant aggregation-operator set a hypergraph convolution consumes
//! (Eqs. 10–16), for the full hypergraph or a sampled hyperedge subset,
//! and the one builder every such set comes from.
//!
//! A layer reads the set in two halves: the hyperedge side (`v2e` and
//! `edge_ids`, Eqs. 10–11) and the vertex side ([`VertexRows`], Eqs.
//! 12–16). The vertex side is one CSR matrix, `e2v`: its values are Eq.
//! 12's means, and its pattern is the incidence that Eqs. 14–16 score,
//! normalise and aggregate over, so the attention reads no other index.
//! Row `j` of the hyperedge side is read off the member list of its
//! hyperedge, row `i` of the vertex side off the incident-edge list of its
//! vertex. Both lists ascend, so every row comes out in CSR order with
//! no sort, in time linear in its entries. The same two readers build the
//! full set ([`AggregationOps::full`],
//! [`crate::AggregationCache::full_ops`]), a sampled slice
//! ([`crate::AggregationCache::slice_ops`]) and the few rows a live refresh
//! recomputes ([`crate::AggregationCache::edge_rows`] /
//! [`crate::AggregationCache::vertex_rows`]).

use crate::Hypergraph;
use ahntp_tensor::CsrMatrix;
use std::rc::Rc;

/// Everything a hypergraph convolution needs about the (possibly sampled)
/// incidence structure: the vertex→edge mean operator, the vertex side
/// every vertex a row, and — for slices — the global ids of the edges
/// kept.
///
/// All fields are `Rc`-shared so one extraction serves a whole layer stack.
#[derive(Clone)]
pub struct AggregationOps {
    /// `m × n` vertex→edge mean operator (Eq. 10); `m` is the number of
    /// *selected* edges for a slice.
    pub v2e: Rc<CsrMatrix<f32>>,
    /// The vertex side, row `i` for vertex `i`: the `n × m` edge→vertex
    /// mean operator (Eq. 12), renormalised over the selected edges.
    pub rows: VertexRows,
    /// Global hyperedge id per local edge — `Some` only for slices, where
    /// layers must gather their per-edge weights through it. `None` means
    /// "full hypergraph, local ids are global ids".
    pub edge_ids: Option<Rc<Vec<usize>>>,
}

/// The vertex side of an operator set: what Eqs. 12–16 read for a run of
/// output rows. Row `i` of `e2v` belongs to output row `i`; its columns
/// index the hyperedge-feature matrix the layer aggregates, so for a live
/// refresh they are global hyperedge ids. Its entries, rows ascending and
/// each row's columns ascending, are the incidence pairs `(row, edge)` of
/// Eqs. 14–16 in the order the attention nodes read them.
#[derive(Clone)]
pub struct VertexRows {
    /// `rows × m` edge→vertex mean operator (Eq. 12).
    pub e2v: Rc<CsrMatrix<f32>>,
}

impl VertexRows {
    /// Number of output rows.
    pub fn n_rows(&self) -> usize {
        self.e2v.rows()
    }
}

impl AggregationOps {
    /// Extracts the full-hypergraph operator set. The incident-edge lists
    /// are built here, fresh from `h`'s member lists, so the result does
    /// not depend on any cache's maintained lists.
    pub fn full(h: &Hypergraph) -> AggregationOps {
        Self::build(h, &incident_lists(h), None)
    }

    /// The operator set of `h`, whose incident-edge lists are `adj`: every
    /// hyperedge, or only `edge_ids`, each renamed to its position there.
    /// A vertex's `e2v` row then averages over the edges it still sees
    /// (Eq. 12 with `N_u ∩ S` in place of `N_u`).
    ///
    /// # Panics
    ///
    /// Panics unless `edge_ids` is strictly ascending and in range.
    pub(crate) fn build(
        h: &Hypergraph,
        adj: &[Vec<usize>],
        edge_ids: Option<&[usize]>,
    ) -> AggregationOps {
        let (n, m) = (h.n_vertices(), h.n_edges());
        let Some(ids) = edge_ids else {
            return AggregationOps {
                v2e: Rc::new(edge_rows(h, 0..m)),
                rows: vertex_rows(adj, 0..n, m, Some),
                edge_ids: None,
            };
        };
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "slice_ops: hyperedge ids must be strictly ascending"
        );
        if let Some(&e) = ids.last() {
            assert!(
                e < m,
                "slice_ops: hyperedge id {e} out of range for {m} hyperedges"
            );
        }
        // Ascending ids rename monotonically, so each row stays ascending.
        let mut local = vec![None; m];
        for (j, &e) in ids.iter().enumerate() {
            local[e] = Some(j);
        }
        AggregationOps {
            v2e: Rc::new(edge_rows(h, ids.iter().copied())),
            rows: vertex_rows(adj, 0..n, ids.len(), |e| local[e]),
            edge_ids: Some(Rc::new(ids.to_vec())),
        }
    }

    /// Number of (selected) hyperedges this operator set aggregates over.
    pub fn n_edges(&self) -> usize {
        self.v2e.rows()
    }
}

/// Per-vertex incident hyperedge ids of `h`, ascending.
pub(crate) fn incident_lists(h: &Hypergraph) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); h.n_vertices()];
    for (e, members) in h.edges().iter().enumerate() {
        for &v in members {
            adj[v].push(e);
        }
    }
    adj
}

/// Rows of the vertex→edge operator of Eq. 10 over global vertex ids: row
/// `j` holds `1 / |N_e|` on the members of the `j`-th hyperedge `e` of
/// `edges`, read off its member list into arrays sized up front.
///
/// # Panics
///
/// Panics if an edge id is out of range.
pub(crate) fn edge_rows(
    h: &Hypergraph,
    edges: impl ExactSizeIterator<Item = usize> + Clone,
) -> CsrMatrix<f32> {
    let n_rows = edges.len();
    let mut row_ptr = Vec::with_capacity(n_rows + 1);
    row_ptr.push(0);
    let nnz = edges.clone().map(|e| h.edge(e).len()).sum();
    let (mut cols, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    for e in edges {
        let members = h.edge(e);
        cols.extend_from_slice(members);
        values.resize(cols.len(), 1.0 / members.len() as f32);
        row_ptr.push(cols.len());
    }
    CsrMatrix::from_csr(n_rows, h.n_vertices(), row_ptr, cols, values)
}

/// The vertex side for the output rows `vertices`. Row `i` reads the
/// incident-edge list of the `i`-th vertex, keeps each edge `e` that
/// `column(e)` maps to a column, and holds `1 / (edges kept)` there (Eq.
/// 12). `column` must increase along each list, so the row stays
/// ascending.
///
/// # Panics
///
/// Panics if a vertex id is out of range.
pub(crate) fn vertex_rows(
    adj: &[Vec<usize>],
    vertices: impl ExactSizeIterator<Item = usize> + Clone,
    n_cols: usize,
    column: impl Fn(usize) -> Option<usize>,
) -> VertexRows {
    let n_rows = vertices.len();
    let mut row_ptr = Vec::with_capacity(n_rows + 1);
    row_ptr.push(0);
    // Every list entry at most, exactly for the full set and live rows.
    let nnz = vertices.clone().map(|v| adj[v].len()).sum();
    let (mut edges, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
    for (i, v) in vertices.enumerate() {
        edges.extend(adj[v].iter().filter_map(|&e| column(e)));
        let kept = edges.len() - row_ptr[i];
        values.resize(edges.len(), 1.0 / kept as f32);
        row_ptr.push(edges.len());
    }
    VertexRows {
        e2v: Rc::new(CsrMatrix::from_csr(n_rows, n_cols, row_ptr, edges, values)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AggregationCache;

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
        assert_eq!(*ops.rows.e2v, h.edge_to_vertex_mean());
        assert!(ops.edge_ids.is_none());
        assert_eq!((ops.n_edges(), ops.rows.n_rows()), (3, 5));
    }

    #[test]
    fn identity_slice_is_bitwise_full() {
        // `slice_ops` hands the identity selection the full set; the
        // slice arithmetic itself must agree with it there too.
        let h = sample();
        let full = AggregationOps::full(&h);
        let cache = AggregationCache::new(h.clone());
        let shared = cache.slice_ops(&[0, 1, 2]);
        let sliced = AggregationOps::build(&h, cache.adjacency(), Some(&[0, 1, 2]));
        for ops in [&*shared, &sliced] {
            assert_eq!(*ops.v2e, *full.v2e);
            assert_eq!(*ops.rows.e2v, *full.rows.e2v);
        }
        assert_eq!(sliced.edge_ids.as_deref(), Some(&vec![0, 1, 2]));
    }

    #[test]
    fn slice_renormalises_vertex_means() {
        // Keep edges {0, 2}: vertex 0 sees both, vertex 2 only edge 0,
        // vertex 1 only edge 0, vertices 3/4 only edge 2 → all weights are
        // means over the *remaining* incident edges.
        let ops = AggregationCache::new(sample()).slice_ops(&[0, 2]);
        let e2v = &ops.rows.e2v;
        ops.v2e.validate().unwrap();
        e2v.validate().unwrap();
        assert_eq!(ops.n_edges(), 2);
        assert_eq!(e2v.get(0, 0), 0.5);
        assert_eq!(e2v.get(0, 1), 0.5);
        assert_eq!(e2v.get(2, 0), 1.0);
        assert_eq!(e2v.get(3, 1), 1.0);
        // Vertex 2 lost edge 1: its row over local edges sums to 1.
        assert_eq!(e2v.row_sums()[2], 1.0);
        // Its columns are local edge ids.
        assert_eq!(e2v.cols(), 2);
        assert_eq!(ops.edge_ids.as_deref(), Some(&vec![0, 2]));
    }

    #[test]
    fn empty_slice_is_well_formed() {
        let ops = AggregationCache::new(sample()).slice_ops(&[]);
        assert_eq!(ops.n_edges(), 0);
        assert_eq!((ops.rows.n_rows(), ops.rows.e2v.nnz()), (5, 0));
    }
}
