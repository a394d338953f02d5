//! Cached aggregation operators for training and streaming.
//!
//! The cache owns the hypergraph and its per-vertex incident-edge lists,
//! and builds every operator set off those lists and the member lists (see
//! the builder in [`AggregationOps`]): the full set once, shared until a
//! mutation drops it, and a sampled slice each time one is asked for. An
//! epoch asks for one slice per tier and the next epoch draws new ids, so
//! slices are not kept.
//!
//! One rule covers mutation: CSR is not an updatable format, so a live
//! mutation ([`AggregationCache::apply_add`] / [`AggregationCache::apply_remove`]
//! / [`AggregationCache::apply_reweight`] / [`AggregationCache::apply_decay`])
//! updates only the two lists whose update really is `O(|e|)` — the
//! [`Hypergraph`]'s member lists and weights, and the per-vertex incident
//! edge lists — and drops every derived matrix it invalidates. Those are
//! rebuilt on next use from the lists. The streaming path never asks for
//! them: it walks the two lists ([`AggregationCache::closure`], and
//! [`AggregationCache::hop`] once per layer) and reads the operator rows
//! it recomputes straight off them ([`AggregationCache::edge_rows`],
//! [`AggregationCache::vertex_rows`]) with the same row readers.

use crate::ops::{edge_rows, incident_lists, vertex_rows};
use crate::{AggregationOps, Hypergraph, HypergraphError, RemovedEdge, VertexRows};
use ahntp_telemetry::KernelKind;
use ahntp_tensor::CsrMatrix;
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

/// Owns a [`Hypergraph`] plus what is derived from it:
///
/// * the per-vertex incident-edge lists, built on first use and kept in
///   step with every mutation;
/// * the full operator set and Laplacian, built on first use and shared.
///
/// Requesting the identity selection returns the cached *full* set — a
/// slice of every hyperedge is bitwise the full set, so sharing is safe
/// and free. Training reads Eq. 23 off the lists as a
/// [`crate::SmoothnessFactor`]; the Laplacian matrix is kept for reference
/// and measurement.
///
/// A structural mutation drops both cached matrices; a weight-only one
/// drops the Laplacian (the operators aggregate by *count*, Eqs. 10/12,
/// and stay shared). Telemetry: one `hypergraph.cache.misses` per operator
/// set (slices included) or Laplacian built, one `hypergraph.cache.hits`
/// per cached one handed out, and one `hypergraph.cache.delta_*` counter
/// per applied mutation kind.
pub struct AggregationCache {
    h: Hypergraph,
    /// Per-vertex incident hyperedge ids, ascending.
    adj: OnceCell<Vec<Vec<usize>>>,
    full: Cached<AggregationOps>,
    full_lap: Cached<CsrMatrix<f32>>,
}

/// A lazily-built shared value, absent until first use.
type Cached<T> = RefCell<Option<Rc<T>>>;

impl AggregationCache {
    /// Wraps a hypergraph; nothing is extracted until first use.
    pub fn new(h: Hypergraph) -> AggregationCache {
        AggregationCache {
            h,
            adj: OnceCell::new(),
            full: RefCell::new(None),
            full_lap: RefCell::new(None),
        }
    }

    /// The underlying hypergraph.
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.h
    }

    /// Number of hyperedges (the sampling universe).
    pub fn n_edges(&self) -> usize {
        self.h.n_edges()
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.h.n_vertices()
    }

    // --- mutation ------------------------------------------------------------

    /// Adds a hyperedge and returns its id.
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::add_weighted_edge`]; on error nothing changes.
    pub fn apply_add(&mut self, members: &[usize], weight: f32) -> Result<usize, HypergraphError> {
        let e = self.h.add_weighted_edge(members, weight)?;
        ahntp_telemetry::counter_add("hypergraph.cache.delta_add", 1);
        if let Some(adj) = self.adj.get_mut() {
            // The new id is the maximum, so appending keeps lists ascending.
            for &v in self.h.edge(e) {
                adj[v].push(e);
            }
        }
        self.drop_operators();
        Ok(e)
    }

    /// Removes hyperedge `e` (swap-remove id semantics, see
    /// [`Hypergraph::remove_edge`]).
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::remove_edge`]; on error nothing changes.
    pub fn apply_remove(&mut self, e: usize) -> Result<RemovedEdge, HypergraphError> {
        let removed = self.h.remove_edge(e)?;
        ahntp_telemetry::counter_add("hypergraph.cache.delta_remove", 1);
        if let Some(adj) = self.adj.get_mut() {
            for &v in &removed.members {
                if let Ok(pos) = adj[v].binary_search(&e) {
                    adj[v].remove(pos);
                }
            }
            if let Some(moved) = &removed.moved {
                for &v in &moved.members {
                    // The old id was the maximum, so it sits at the tail.
                    debug_assert_eq!(adj[v].last(), Some(&moved.old_id));
                    adj[v].pop();
                    let pos = adj[v].partition_point(|&x| x < e);
                    adj[v].insert(pos, e);
                }
            }
        }
        self.drop_operators();
        Ok(removed)
    }

    /// Reweights hyperedge `e`, returning the old weight. The aggregation
    /// operators are weight-independent (Eqs. 10/12 aggregate by *count*),
    /// so only the Laplacian is dropped.
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::reweight_edge`]; on error nothing changes.
    pub fn apply_reweight(&mut self, e: usize, weight: f32) -> Result<f32, HypergraphError> {
        let old = self.h.reweight_edge(e, weight)?;
        ahntp_telemetry::counter_add("hypergraph.cache.delta_reweight", 1);
        self.full_lap.get_mut().take();
        Ok(old)
    }

    /// Scales every hyperedge weight by `factor` — the batched time-decay
    /// reweight. Weight-only, as [`AggregationCache::apply_reweight`].
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::scale_weights`]; on error nothing changes.
    pub fn apply_decay(&mut self, factor: f32) -> Result<(), HypergraphError> {
        self.h.scale_weights(factor)?;
        ahntp_telemetry::counter_add("hypergraph.cache.delta_decay", 1);
        self.full_lap.get_mut().take();
        Ok(())
    }

    fn drop_operators(&mut self) {
        self.full.get_mut().take();
        self.full_lap.get_mut().take();
    }

    // --- the live lists and the operator rows read off them -----------------

    /// The per-vertex incident-hyperedge lists (ascending ids per vertex),
    /// built on first use and kept in step with every mutation.
    pub fn adjacency(&self) -> &[Vec<usize>] {
        self.adj.get_or_init(|| incident_lists(&self.h))
    }

    /// Vertices within `hops` hyperedge expansions of `seed` (including the
    /// seed itself), sorted ascending. One hop takes a vertex to every
    /// member of every hyperedge incident to it — the dependency footprint
    /// of one convolution layer. A hop reads each hyperedge's members at
    /// most once, however many frontier vertices it touches; when fewer
    /// vertices lie outside the set than in the frontier it is read from
    /// the outside vertices' lists instead. The walk stops as soon as the
    /// set holds every vertex (`0..n` is then the answer, whatever hops are
    /// left).
    pub fn closure(&self, seed: &[usize], hops: usize) -> Vec<usize> {
        let _k = ahntp_telemetry::KernelSpan::enter("hypergraph.cone", KernelKind::Other);
        let (mut cone, mut frontier) = (Cone::new(self), Vec::new());
        cone.insert(seed, &mut frontier);
        for _ in 0..hops {
            if frontier.is_empty() || cone.is_full() {
                break;
            }
            frontier = cone.expand(&frontier, false);
        }
        cone.vertices()
    }

    /// One hop of the walk from `rows`: the hyperedges incident to any of
    /// them, ascending, and `closure(rows, 1)` — what one layer of a live
    /// refresh recomputes, from one pass over the incident-edge lists (of
    /// `rows`, or of the vertices outside them when those are fewer). The
    /// edges come off a bitmap scan, not a sort; once the set holds every
    /// vertex the walk only marks edges and reads no more members.
    pub fn hop(&self, rows: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let _k = ahntp_telemetry::KernelSpan::enter("hypergraph.cone", KernelKind::Other);
        let (mut cone, mut frontier) = (Cone::new(self), Vec::new());
        cone.insert(rows, &mut frontier);
        cone.expand(&frontier, true);
        (cone.edges(), cone.vertices())
    }

    /// All hyperedges incident to any of `vertices`, sorted ascending: the
    /// edge half of [`AggregationCache::hop`].
    pub fn incident_edges(&self, vertices: &[usize]) -> Vec<usize> {
        self.hop(vertices).0
    }

    /// Rows `edges` of the vertex→edge operator of Eq. 10, over global
    /// vertex ids: row `j` holds `1 / |N_e|` on the members of
    /// `e = edges[j]`, bitwise row `e` of [`AggregationCache::full_ops`]'s
    /// `v2e` (the same reader builds both). Not cached — a live refresh
    /// asks for different rows every time.
    ///
    /// # Panics
    ///
    /// Panics if an edge id is out of range.
    pub fn edge_rows(&self, edges: &[usize]) -> CsrMatrix<f32> {
        let _k = ahntp_telemetry::KernelSpan::enter("hypergraph.rows", KernelKind::CacheBuild);
        edge_rows(&self.h, edges.iter().copied())
    }

    /// Rows `vertices` of the vertex side of the operator set, over global
    /// hyperedge ids: row `i` of `e2v` holds `1 / |N_v|` on the edges
    /// incident to `v = vertices[i]`, bitwise row `v` of
    /// [`AggregationCache::full_ops`]'s `e2v` (pattern included, so the
    /// attention pairs of row `i` are the full set's pairs of `v`). Not
    /// cached, as [`AggregationCache::edge_rows`].
    ///
    /// # Panics
    ///
    /// Panics if a vertex id is out of range.
    pub fn vertex_rows(&self, vertices: &[usize]) -> VertexRows {
        let _k = ahntp_telemetry::KernelSpan::enter("hypergraph.rows", KernelKind::CacheBuild);
        vertex_rows(
            self.adjacency(),
            vertices.iter().copied(),
            self.h.n_edges(),
            Some,
        )
    }

    /// The full-hypergraph operator set, built once.
    pub fn full_ops(&self) -> Rc<AggregationOps> {
        if let Some(ops) = self.full.borrow().as_ref() {
            ahntp_telemetry::counter_add("hypergraph.cache.hits", 1);
            return Rc::clone(ops);
        }
        let ops = Rc::new(self.build("hypergraph.cache.build", None));
        *self.full.borrow_mut() = Some(Rc::clone(&ops));
        ops
    }

    /// The operator set restricted to `edge_ids`, each hyperedge renamed
    /// to its position there; built on every call. The identity selection
    /// (every edge, in order) short-circuits to
    /// [`AggregationCache::full_ops`].
    ///
    /// # Panics
    ///
    /// Panics unless `edge_ids` is strictly ascending (as `sample_edges`
    /// returns them) and in range.
    pub fn slice_ops(&self, edge_ids: &[usize]) -> Rc<AggregationOps> {
        if self.is_identity(edge_ids) {
            return self.full_ops();
        }
        Rc::new(self.build("hypergraph.cache.slice", Some(edge_ids)))
    }

    /// Every operator set the cache hands out is built here, off the
    /// maintained lists: one miss, and the failpoint and span `site`.
    fn build(&self, site: &'static str, edge_ids: Option<&[usize]>) -> AggregationOps {
        ahntp_telemetry::counter_add("hypergraph.cache.misses", 1);
        ahntp_faultz::enforce(site);
        let _k = ahntp_telemetry::KernelSpan::enter(site, KernelKind::CacheBuild);
        AggregationOps::build(&self.h, self.adjacency(), edge_ids)
    }

    /// The full-hypergraph Laplacian (Eq. 24), built once.
    pub fn full_laplacian(&self) -> Rc<CsrMatrix<f32>> {
        if let Some(lap) = self.full_lap.borrow().as_ref() {
            ahntp_telemetry::counter_add("hypergraph.cache.hits", 1);
            return Rc::clone(lap);
        }
        ahntp_telemetry::counter_add("hypergraph.cache.misses", 1);
        let _k = ahntp_telemetry::KernelSpan::enter(
            "hypergraph.cache.laplacian",
            KernelKind::CacheBuild,
        );
        let lap = Rc::new(self.h.laplacian());
        *self.full_lap.borrow_mut() = Some(Rc::clone(&lap));
        lap
    }

    fn is_identity(&self, edge_ids: &[usize]) -> bool {
        edge_ids.len() == self.h.n_edges() && edge_ids.iter().enumerate().all(|(i, &e)| i == e)
    }
}

/// The one walk behind [`AggregationCache::closure`] and
/// [`AggregationCache::hop`]: the vertex set and the hyperedges already
/// expanded, as bitmaps over the cache's ids.
struct Cone<'a> {
    h: &'a Hypergraph,
    adj: &'a [Vec<usize>],
    in_set: Vec<bool>,
    expanded: Vec<bool>,
    size: usize,
}

impl<'a> Cone<'a> {
    fn new(cache: &'a AggregationCache) -> Cone<'a> {
        Cone {
            h: &cache.h,
            adj: cache.adjacency(),
            in_set: vec![false; cache.h.n_vertices()],
            expanded: vec![false; cache.h.n_edges()],
            size: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.size == self.in_set.len()
    }

    /// Adds `vertices` to the set, pushing those it did not hold onto
    /// `added` in order of first appearance.
    fn insert(&mut self, vertices: &[usize], added: &mut Vec<usize>) {
        for &v in vertices {
            if !std::mem::replace(&mut self.in_set[v], true) {
                self.size += 1;
                added.push(v);
            }
        }
    }

    /// Expands every hyperedge incident to `frontier` that no earlier hop
    /// expanded, and returns the vertices it added. Once the set is full no
    /// member list is read: the walk stops there, or with `all_edges` goes
    /// on only marking the frontier's hyperedges. When fewer vertices lie
    /// outside the set than in `frontier`, the hop is walked from outside
    /// instead.
    fn expand(&mut self, frontier: &[usize], all_edges: bool) -> Vec<usize> {
        if self.in_set.len() - self.size < frontier.len() {
            return self.expand_from_outside(all_edges);
        }
        let (h, adj) = (self.h, self.adj);
        let mut next = Vec::new();
        for &v in frontier {
            if self.is_full() && !all_edges {
                break;
            }
            for &e in &adj[v] {
                if !std::mem::replace(&mut self.expanded[e], true) && !self.is_full() {
                    self.insert(h.edge(e), &mut next);
                }
            }
        }
        next
    }

    /// The same hop read off the lists of the vertices outside the set: one
    /// joins when a hyperedge of its own has a member inside. Earlier hops
    /// expanded every hyperedge that meets the set but not the frontier, so
    /// this adds the same vertices. With `all_edges` every hyperedge of an
    /// outside vertex is read, and the expanded ones become those that meet
    /// the set: every hyperedge no outside vertex belongs to does, since
    /// none is empty. Without, a vertex stops at its first such hyperedge
    /// and the marks are left as they were.
    fn expand_from_outside(&mut self, all_edges: bool) -> Vec<usize> {
        let (h, adj) = (self.h, self.adj);
        let mut meets: Vec<Option<bool>> = vec![None; self.expanded.len()];
        let mut next = Vec::new();
        for u in (0..self.in_set.len()).filter(|&u| !self.in_set[u]) {
            let mut joins = false;
            for &e in &adj[u] {
                let inside =
                    *meets[e].get_or_insert_with(|| h.edge(e).iter().any(|&w| self.in_set[w]));
                joins |= inside;
                if joins && !all_edges {
                    break;
                }
            }
            if joins {
                next.push(u);
            }
        }
        for &u in &next {
            self.in_set[u] = true;
        }
        self.size += next.len();
        if all_edges {
            for (expanded, meets) in self.expanded.iter_mut().zip(meets) {
                *expanded = meets != Some(false);
            }
        }
        next
    }

    /// The set, ascending.
    fn vertices(&self) -> Vec<usize> {
        (0..self.in_set.len()).filter(|&v| self.in_set[v]).collect()
    }

    /// The expanded hyperedges, ascending.
    fn edges(&self) -> Vec<usize> {
        (0..self.expanded.len())
            .filter(|&e| self.expanded[e])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        let mut h = Hypergraph::new(4);
        h.add_edge(&[0, 1, 2]).expect("valid");
        h.add_edge(&[2, 3]).expect("valid");
        h.add_edge(&[0, 3]).expect("valid");
        h
    }

    #[test]
    fn full_ops_are_extracted_once_and_shared() {
        let cache = AggregationCache::new(sample());
        let a = cache.full_ops();
        let b = cache.full_ops();
        assert!(Rc::ptr_eq(&a, &b), "second request hits the cache");
        assert!(Rc::ptr_eq(&cache.full_laplacian(), &cache.full_laplacian()));
    }

    #[test]
    fn hit_and_miss_counters_count_builds_and_reuses_exactly() {
        ahntp_telemetry::Scope::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            let cache = AggregationCache::new(sample());
            cache.full_ops();
            cache.full_ops();
            cache.slice_ops(&[1, 2]);
            cache.slice_ops(&[1, 2]);
            cache.slice_ops(&[0, 1, 2]);
            let counts = ["hypergraph.cache.misses", "hypergraph.cache.hits"]
                .map(ahntp_telemetry::counter_get);
            assert_eq!(
                counts,
                [3, 2],
                "one miss per build, slices included; one hit per full set reused"
            );
        });
    }

    #[test]
    fn identity_slice_shares_the_full_set() {
        let cache = AggregationCache::new(sample());
        let full = cache.full_ops();
        let id = cache.slice_ops(&[0, 1, 2]);
        assert!(Rc::ptr_eq(&full, &id), "identity slice is the full set");
        assert!(id.edge_ids.is_none());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_slice_rejects_unsorted_ids() {
        AggregationCache::new(sample()).slice_ops(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn a_slice_rejects_repeated_ids() {
        AggregationCache::new(sample()).slice_ops(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "hyperedge id 3 out of range for 3 hyperedges")]
    fn a_slice_rejects_an_out_of_range_id() {
        AggregationCache::new(sample()).slice_ops(&[0, 3]);
    }

    #[test]
    fn structure_change_invalidates_everything() {
        let mut cache = AggregationCache::new(sample());
        let before = cache.full_ops();
        let lap_before = cache.full_laplacian();
        cache.apply_add(&[1, 3], 1.0).expect("valid");
        assert_eq!(cache.n_edges(), 4);
        let after = cache.full_ops();
        assert!(!Rc::ptr_eq(&before, &after), "full set rebuilt");
        assert!(!Rc::ptr_eq(&lap_before, &cache.full_laplacian()));
        assert_eq!(after.n_edges(), 4);
        // A slice reads the new lists: vertex 1 now also sits in edge 3,
        // which the slice leaves out, so its row still averages edge 0.
        let slice = cache.slice_ops(&[0, 1]);
        assert_eq!(slice.n_edges(), 2);
        assert_eq!(row_bits(&slice.rows.e2v, 1), vec![(0, 1.0f32.to_bits())]);
    }

    #[test]
    fn laplacian_slice_matches_direct_computation() {
        // The factor of a slice, multiplied out, is the slice's Laplacian.
        let cache = AggregationCache::new(sample());
        let f = crate::SmoothnessFactor::build(&[(&cache, Some(&[0, 2]))]);
        let bbt = f.b.to_dense().matmul(&f.bt.to_dense());
        let lap = cache.hypergraph().laplacian_for_edges(&[0, 2]).to_dense();
        for r in 0..cache.n_vertices() {
            for c in 0..cache.n_vertices() {
                let delta = if r == c { 1.0 } else { 0.0 } - bbt.get(r, c);
                assert!((delta - lap.get(r, c)).abs() < 1e-6, "Δ[{r}][{c}]");
            }
        }
    }

    /// A CSR row as `(column, value bits)` pairs.
    fn row_bits(m: &CsrMatrix<f32>, r: usize) -> Vec<(usize, u32)> {
        m.row_entries(r).map(|(c, v)| (c, v.to_bits())).collect()
    }

    /// Asserts the operator rows read off the lists for `edges` and
    /// `vertices` equal, bitwise, the same rows of the cache's full set:
    /// `v2e` per edge, `e2v` (values and pattern) per vertex.
    fn assert_rows_match_full(cache: &AggregationCache, edges: &[usize], vertices: &[usize]) {
        let full = cache.full_ops();
        let v2e = cache.edge_rows(edges);
        assert_eq!((v2e.rows(), v2e.cols()), (edges.len(), full.v2e.cols()));
        for (j, &e) in edges.iter().enumerate() {
            assert_eq!(
                row_bits(&v2e, j),
                row_bits(&full.v2e, e),
                "v2e row of edge {e}"
            );
        }
        let rows = cache.vertex_rows(vertices);
        assert_eq!(
            (rows.n_rows(), rows.e2v.cols()),
            (vertices.len(), full.rows.e2v.cols())
        );
        for (i, &v) in vertices.iter().enumerate() {
            assert_eq!(
                row_bits(&rows.e2v, i),
                row_bits(&full.rows.e2v, v),
                "e2v row of vertex {v}"
            );
        }
    }

    /// Asserts the maintained lists, the operator rows read off them and
    /// every (re)built matrix equal a from-scratch rebuild bitwise, and the
    /// full set the triplet-built operators of [`Hypergraph`].
    fn assert_matches_rebuild(cache: &AggregationCache) {
        let h = cache.hypergraph();
        let rebuilt = AggregationCache::new(h.clone());
        assert_eq!(cache.adjacency(), rebuilt.adjacency(), "adjacency drifted");
        let every_edge: Vec<usize> = (0..h.n_edges()).rev().collect();
        assert_rows_match_full(cache, &every_edge, &[3, 0, 2]);
        assert_rows_match_full(cache, &every_edge[every_edge.len() / 2..], &[1]);
        let cached = cache.full_ops();
        assert_eq!(*cached.v2e, h.vertex_to_edge_mean(), "v2e drifted");
        assert_eq!(*cached.rows.e2v, h.edge_to_vertex_mean(), "e2v drifted");
        assert_eq!(*cache.full_laplacian(), h.laplacian(), "Laplacian drifted");
    }

    /// Forces every cache entry to exist, so a mutation has the lists to
    /// update and every matrix to drop.
    fn warm(cache: &AggregationCache) {
        cache.adjacency();
        cache.full_ops();
        cache.full_laplacian();
    }

    #[test]
    fn add_on_warm_cache_matches_rebuild() {
        let mut cache = AggregationCache::new(sample());
        warm(&cache);
        cache.apply_add(&[1, 3], 2.5).expect("valid");
        assert_matches_rebuild(&cache);
        cache.apply_add(&[0], 0.25).expect("singleton is fine");
        assert_matches_rebuild(&cache);
    }

    #[test]
    fn remove_on_warm_cache_matches_rebuild_including_swap() {
        let mut cache = AggregationCache::new(sample());
        warm(&cache);
        // Removing edge 0 swap-moves edge 2 into its slot.
        let removed = cache.apply_remove(0).expect("valid");
        assert_eq!(removed.members, vec![0, 1, 2]);
        assert_eq!(removed.moved.as_ref().expect("swap happened").old_id, 2);
        assert_matches_rebuild(&cache);
        // Removing the last edge moves nothing.
        let removed = cache.apply_remove(1).expect("valid");
        assert!(removed.moved.is_none());
        assert_matches_rebuild(&cache);
        // Down to the empty hypergraph: isolated vertices get identity rows.
        cache.apply_remove(0).expect("valid");
        assert_eq!(cache.n_edges(), 0);
        assert_matches_rebuild(&cache);
    }

    #[test]
    fn reweight_and_decay_keep_operators_and_drop_laplacians() {
        let mut cache = AggregationCache::new(sample());
        warm(&cache);
        let ops_before = cache.full_ops();
        let old = cache.apply_reweight(1, 4.0).expect("valid");
        assert_eq!(old, 1.0);
        // Aggregation operators are weight-independent: not even rebuilt.
        assert!(Rc::ptr_eq(&ops_before, &cache.full_ops()));
        assert_eq!(*cache.full_laplacian(), cache.hypergraph().laplacian());
        assert_matches_rebuild(&cache);
        cache.apply_decay(0.5).expect("valid");
        assert_eq!(cache.hypergraph().weights()[1], 2.0);
        assert!(Rc::ptr_eq(&ops_before, &cache.full_ops()));
        assert_matches_rebuild(&cache);
    }

    #[test]
    fn mutation_on_cold_cache_still_consistent() {
        // Nothing built: mutation touches the hypergraph only, and later
        // builds (lists and matrices) see the post-mutation hypergraph.
        let mut cache = AggregationCache::new(sample());
        cache.apply_add(&[1, 3], 1.5).expect("valid");
        cache.apply_remove(1).expect("valid");
        assert_matches_rebuild(&cache);
    }

    #[test]
    fn a_live_event_builds_no_matrix_and_slices_none() {
        ahntp_telemetry::Scope::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            let mut cache = AggregationCache::new(sample());
            warm(&cache);
            // Every operator set or Laplacian built, slices included,
            // records one miss.
            let misses = || ahntp_telemetry::counter_get("hypergraph.cache.misses");
            let warm_misses = misses();
            let e = cache.apply_add(&[1, 3], 2.0).expect("valid");
            let targets = cache.closure(&[1, 3], 1);
            let edges = cache.incident_edges(&[1, 3]);
            assert_eq!(edges, vec![0, 1, 2, 3]);
            assert_eq!(cache.edge_rows(&edges).rows(), 4);
            assert_eq!(cache.vertex_rows(&targets).n_rows(), 4);
            cache.apply_remove(e).expect("valid");
            assert_eq!(misses(), warm_misses, "the live path reads lists only");
            cache.full_ops();
            assert_eq!(misses(), warm_misses + 1, "the next reader rebuilds");
            cache.slice_ops(&[0, 2]);
            assert_eq!(misses(), warm_misses + 2, "a slice is a build");
        });
    }

    #[test]
    fn failed_mutation_leaves_cache_untouched() {
        let mut cache = AggregationCache::new(sample());
        warm(&cache);
        let ops = cache.full_ops();
        assert!(cache.apply_remove(9).is_err());
        assert!(cache.apply_reweight(0, f32::NAN).is_err());
        assert!(cache.apply_add(&[0, 99], 1.0).is_err());
        assert!(Rc::ptr_eq(&ops, &cache.full_ops()), "caches kept");
        assert_matches_rebuild(&cache);
    }

    #[test]
    fn closure_and_incident_edges_walk_the_live_structure() {
        let mut cache = AggregationCache::new(sample());
        assert_eq!(cache.closure(&[1], 0), vec![1]);
        assert_eq!(cache.closure(&[1], 1), vec![0, 1, 2]);
        assert_eq!(cache.closure(&[1], 2), vec![0, 1, 2, 3]);
        assert_eq!(cache.incident_edges(&[0]), vec![0, 2]);
        cache.apply_remove(2).expect("valid");
        assert_eq!(cache.incident_edges(&[0]), vec![0]);
        assert_eq!(cache.closure(&[3], 1), vec![2, 3]);
    }

    #[test]
    fn closure_expands_each_hyperedge_once() {
        // Vertices 0..3 all sit in edge 0, so a walk that expanded an edge
        // per frontier vertex would read its members four times.
        let mut h = Hypergraph::new(6);
        h.add_edge(&[0, 1, 2, 3]).expect("valid");
        h.add_edge(&[0, 4]).expect("valid");
        h.add_edge(&[3, 5]).expect("valid");
        let cache = AggregationCache::new(h);
        assert_eq!(cache.closure(&[0, 1, 2, 3], 1), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(cache.closure(&[4], 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(cache.closure(&[5, 5], 0), vec![5]);
    }

    #[test]
    fn edge_and_vertex_rows_match_the_full_rows() {
        let mut cache = AggregationCache::new(sample());
        assert_rows_match_full(&cache, &[2, 0], &[3, 1]);
        assert_rows_match_full(&cache, &[], &[]);
        assert_eq!(
            cache.edge_rows(&[0, 1]),
            *cache.slice_ops(&[0, 1]).v2e,
            "rows of Eq. 10 are a slice's"
        );
        // An isolated vertex is an empty row.
        cache.apply_remove(1).expect("valid");
        let rows = cache.vertex_rows(&[2, 3]);
        assert_eq!(
            (rows.e2v.row_ptr(), rows.e2v.col_indices()),
            (&[0, 1, 2][..], &[0, 1][..])
        );
        cache.apply_remove(1).expect("valid");
        let rows = cache.vertex_rows(&[3]);
        assert_eq!(rows.e2v.nnz(), 0);
        assert_rows_match_full(&cache, &[0], &[0, 1, 2, 3]);
    }
}
