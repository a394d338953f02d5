//! Cached aggregation operators for mini-batch training and streaming.
//!
//! Building the operator set of [`AggregationOps`] (and the Laplacian) is
//! the expensive structural part of a training step. The cache owns the
//! hypergraph, extracts the full operators once, keeps the most recent
//! hyperedge slice alive across the micro-batches of an epoch, and —
//! since the streaming tier — *delta-maintains* the full operators under
//! hyperedge mutation: [`AggregationCache::apply_add`] /
//! [`AggregationCache::apply_remove`] / [`AggregationCache::apply_reweight`]
//! / [`AggregationCache::apply_decay`] patch exactly the incidence-operator
//! rows, degree entries, and Laplacian rows the mutated edge's members
//! touch, instead of wholesale invalidation. Patched state is bitwise
//! identical to a fresh rebuild: row patches replay the original
//! constructors' per-row arithmetic (same expressions, same accumulation
//! order), which the mutation proptests and the stream exactness harness
//! enforce at every step.

use crate::{AggregationOps, Hypergraph, HypergraphError, RemovedEdge};
use ahntp_tensor::CsrMatrix;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Owns a [`Hypergraph`] plus lazily built, structure-versioned caches of
/// its aggregation operators:
///
/// * the full operator set and Laplacian, built once and shared;
/// * the operator set / Laplacian of the most recent hyperedge slice,
///   reused while consecutive requests ask for the same edge ids (the
///   common case: one slice per epoch, many micro-batches).
///
/// Requesting the identity selection returns the cached *full* set — the
/// sliced construction is bitwise identical there (see
/// [`AggregationOps::sliced_from`]), so sharing is safe and free.
///
/// Structural mutation goes through [`AggregationCache::add_edge`] /
/// [`AggregationCache::add_weighted_edge`], which clear every cached
/// operator. Telemetry: `hypergraph.cache.hits` / `.misses` counters and a
/// `hypergraph.cache.resident_rows` gauge per slice build.
pub struct AggregationCache {
    h: Hypergraph,
    full_inputs: Cached<(CsrMatrix<f32>, CsrMatrix<f32>)>,
    full: Cached<AggregationOps>,
    full_lap: Cached<CsrMatrix<f32>>,
    slice: SliceCached<AggregationOps>,
    slice_lap: SliceCached<CsrMatrix<f32>>,
    /// Per-vertex incident hyperedge ids, ascending — the adjacency index
    /// the delta paths patch rows from (and closures/cones walk).
    adj: Cached<Vec<Vec<usize>>>,
    /// Maintained weighted vertex degrees (`D_vv` diagonal), bitwise equal
    /// to `Hypergraph::vertex_degrees` at all times.
    dv: Cached<Vec<f32>>,
}

/// A lazily-built shared value, absent until first use.
type Cached<T> = RefCell<Option<Rc<T>>>;
/// A one-entry slice cache keyed by the sorted hyperedge selection.
type SliceCached<T> = RefCell<Option<(Vec<usize>, Rc<T>)>>;

impl AggregationCache {
    /// Wraps a hypergraph; nothing is extracted until first use.
    pub fn new(h: Hypergraph) -> AggregationCache {
        AggregationCache {
            h,
            full_inputs: RefCell::new(None),
            full: RefCell::new(None),
            full_lap: RefCell::new(None),
            slice: RefCell::new(None),
            slice_lap: RefCell::new(None),
            adj: RefCell::new(None),
            dv: RefCell::new(None),
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

    /// Adds a unit-weight hyperedge, delta-patching the cached operators.
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::add_edge`].
    pub fn add_edge(&mut self, members: &[usize]) -> Result<usize, HypergraphError> {
        self.apply_add(members, 1.0)
    }

    /// Adds a weighted hyperedge, delta-patching the cached operators.
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::add_weighted_edge`].
    pub fn add_weighted_edge(
        &mut self,
        members: &[usize],
        weight: f32,
    ) -> Result<usize, HypergraphError> {
        self.apply_add(members, weight)
    }

    /// Drops every cached operator and maintained index.
    pub fn invalidate(&mut self) {
        self.full_inputs.borrow_mut().take();
        self.full.borrow_mut().take();
        self.full_lap.borrow_mut().take();
        self.slice.borrow_mut().take();
        self.slice_lap.borrow_mut().take();
        self.adj.borrow_mut().take();
        self.dv.borrow_mut().take();
    }

    // --- delta maintenance -------------------------------------------------

    /// Adds a hyperedge and patches (rather than rebuilds) every cached
    /// structure: the new `v2e` row is appended, the members' incidence and
    /// `e2v` rows are respliced, their degree entries re-summed, and the
    /// Laplacian rows of the members and their hyperedge neighbours
    /// recomputed with the original constructors' row arithmetic. Returns
    /// the new hyperedge id.
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::add_weighted_edge`]; on error nothing changes.
    pub fn apply_add(
        &mut self,
        members: &[usize],
        weight: f32,
    ) -> Result<usize, HypergraphError> {
        self.ensure_adj();
        let e = self.h.add_weighted_edge(members, weight)?;
        ahntp_telemetry::counter_add("hypergraph.cache.delta_add", 1);
        let members: Vec<usize> = self.h.edge(e).to_vec(); // canonical: sorted, unique
        let m = self.h.n_edges();
        // Adjacency: the new id is the maximum, so appending keeps order.
        {
            let adj = self.adj_mut();
            for &v in &members {
                adj[v].push(e);
            }
        }
        self.repatch_degrees(&members);
        // (incidence, v2e) slice inputs.
        let rows = self.incidence_rows(&members);
        if let Some(rc) = self.full_inputs.get_mut().as_mut() {
            let (inc, v2e) = Rc::make_mut(rc);
            inc.set_cols(m);
            for (v, row) in &rows {
                inc.set_row(*v, row);
            }
            let inv = 1.0 / members.len() as f32;
            let new_row: Vec<(usize, f32)> = members.iter().map(|&v| (v, inv)).collect();
            v2e.push_row(&new_row);
        }
        // Full operator set.
        if self.full.get_mut().is_some() {
            let mut v2e = (*self.full_ops_ref().v2e).clone();
            let mut e2v = (*self.full_ops_ref().e2v).clone();
            let inv = 1.0 / members.len() as f32;
            let new_row: Vec<(usize, f32)> = members.iter().map(|&v| (v, inv)).collect();
            v2e.push_row(&new_row);
            e2v.set_cols(m);
            for (v, row) in self.e2v_rows(&members) {
                e2v.set_row(v, &row);
            }
            self.replace_full_ops(v2e, e2v);
        }
        // Laplacian rows of members and their hyperedge neighbours.
        let dirty = self.neighbourhood(&members);
        self.repatch_laplacian_rows(&dirty);
        self.slice.get_mut().take();
        self.slice_lap.get_mut().take();
        Ok(e)
    }

    /// Removes hyperedge `e` (swap-remove id semantics, see
    /// [`Hypergraph::remove_edge`]) and patches the cached structures: the
    /// `v2e` row is swap-removed, the rows of the removed *and* moved
    /// edges' members are respliced from the adjacency index, and the
    /// affected Laplacian rows recomputed.
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::remove_edge`]; on error nothing changes.
    pub fn apply_remove(&mut self, e: usize) -> Result<RemovedEdge, HypergraphError> {
        self.ensure_adj();
        let removed = self.h.remove_edge(e)?;
        ahntp_telemetry::counter_add("hypergraph.cache.delta_remove", 1);
        let m = self.h.n_edges();
        let last = m; // the moved edge's old id
        // Union of vertices whose incidence rows change.
        let mut affected: BTreeSet<usize> = removed.members.iter().copied().collect();
        if let Some(moved) = &removed.moved {
            affected.extend(moved.members.iter().copied());
        }
        let affected: Vec<usize> = affected.into_iter().collect();
        {
            let adj = self.adj_mut();
            for &v in &removed.members {
                if let Ok(pos) = adj[v].binary_search(&e) {
                    adj[v].remove(pos);
                }
            }
            if let Some(moved) = &removed.moved {
                for &v in &moved.members {
                    // The old id was the maximum, so it sits at the tail.
                    debug_assert_eq!(adj[v].last(), Some(&last));
                    adj[v].pop();
                    let pos = adj[v].partition_point(|&x| x < e);
                    adj[v].insert(pos, e);
                }
            }
        }
        self.repatch_degrees(&affected);
        let rows = self.incidence_rows(&affected);
        if let Some(rc) = self.full_inputs.get_mut().as_mut() {
            let (inc, v2e) = Rc::make_mut(rc);
            for (v, row) in &rows {
                inc.set_row(*v, row);
            }
            inc.set_cols(m);
            v2e.swap_remove_row(e);
        }
        if self.full.get_mut().is_some() {
            let mut v2e = (*self.full_ops_ref().v2e).clone();
            let mut e2v = (*self.full_ops_ref().e2v).clone();
            v2e.swap_remove_row(e);
            for (v, row) in self.e2v_rows(&affected) {
                e2v.set_row(v, &row);
            }
            e2v.set_cols(m);
            self.replace_full_ops(v2e, e2v);
        }
        let dirty = self.neighbourhood(&affected);
        self.repatch_laplacian_rows(&dirty);
        self.slice.get_mut().take();
        self.slice_lap.get_mut().take();
        Ok(removed)
    }

    /// Reweights hyperedge `e`, returning the old weight. The aggregation
    /// operators are weight-independent (Eqs. 10/12 aggregate by *count*),
    /// so only the maintained degrees and the Laplacian rows touched by the
    /// edge's members change.
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::reweight_edge`]; on error nothing changes.
    pub fn apply_reweight(&mut self, e: usize, weight: f32) -> Result<f32, HypergraphError> {
        self.ensure_adj();
        let old = self.h.reweight_edge(e, weight)?;
        ahntp_telemetry::counter_add("hypergraph.cache.delta_reweight", 1);
        let members: Vec<usize> = self.h.edge(e).to_vec();
        self.repatch_degrees(&members);
        let dirty = self.neighbourhood(&members);
        self.repatch_laplacian_rows(&dirty);
        // Structure is unchanged: the operator caches (full and sliced)
        // stay valid; only the Laplacian slice is weight-dependent.
        self.slice_lap.get_mut().take();
        Ok(old)
    }

    /// Scales every hyperedge weight by `factor` — the batched time-decay
    /// reweight. Degrees and the full Laplacian are recomputed wholesale
    /// (every row is touched anyway); the aggregation operators stay
    /// untouched because they are weight-independent.
    ///
    /// # Errors
    ///
    /// As [`Hypergraph::scale_weights`]; on error nothing changes.
    pub fn apply_decay(&mut self, factor: f32) -> Result<(), HypergraphError> {
        self.ensure_adj();
        self.h.scale_weights(factor)?;
        ahntp_telemetry::counter_add("hypergraph.cache.delta_decay", 1);
        if self.dv.get_mut().is_some() {
            let fresh = self.h.vertex_degrees();
            *Rc::make_mut(self.dv.get_mut().as_mut().expect("checked above")) = fresh;
        }
        if self.full_lap.get_mut().is_some() {
            *self.full_lap.get_mut() = Some(Rc::new(self.h.laplacian()));
        }
        self.slice_lap.get_mut().take();
        Ok(())
    }

    // --- maintained indexes and cone extraction ----------------------------

    /// The per-vertex incident-hyperedge index (ascending ids per vertex),
    /// built on first use and delta-maintained thereafter.
    pub fn adjacency(&self) -> Rc<Vec<Vec<usize>>> {
        if let Some(adj) = self.adj.borrow().as_ref() {
            return Rc::clone(adj);
        }
        let adj = Rc::new(Self::build_adj(&self.h));
        *self.adj.borrow_mut() = Some(Rc::clone(&adj));
        adj
    }

    /// The maintained weighted vertex-degree vector, bitwise equal to
    /// [`Hypergraph::vertex_degrees`] at all times.
    pub fn degree_vector(&self) -> Rc<Vec<f32>> {
        if let Some(dv) = self.dv.borrow().as_ref() {
            return Rc::clone(dv);
        }
        let dv = Rc::new(self.h.vertex_degrees());
        *self.dv.borrow_mut() = Some(Rc::clone(&dv));
        dv
    }

    /// Vertices within `hops` hyperedge expansions of `seed` (including the
    /// seed itself), sorted ascending. One hop takes a vertex to every
    /// member of every hyperedge incident to it — the dependency footprint
    /// of one convolution layer.
    pub fn closure(&self, seed: &[usize], hops: usize) -> Vec<usize> {
        let adj = self.adjacency();
        let n = self.h.n_vertices();
        let mut in_set = vec![false; n];
        let mut frontier: Vec<usize> = Vec::new();
        for &v in seed {
            if !in_set[v] {
                in_set[v] = true;
                frontier.push(v);
            }
        }
        for _ in 0..hops {
            let mut next = Vec::new();
            for &v in &frontier {
                for &e in &adj[v] {
                    for &u in self.h.edge(e) {
                        if !in_set[u] {
                            in_set[u] = true;
                            next.push(u);
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        (0..n).filter(|&v| in_set[v]).collect()
    }

    /// All hyperedges incident to any of `vertices`, sorted ascending.
    pub fn incident_edges(&self, vertices: &[usize]) -> Vec<usize> {
        let adj = self.adjacency();
        let mut seen = vec![false; self.h.n_edges()];
        let mut out = Vec::new();
        for &v in vertices {
            for &e in &adj[v] {
                if !seen[e] {
                    seen[e] = true;
                    out.push(e);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The cone operator set over the given (sorted) hyperedge and vertex
    /// subsets, cut from the cached slice inputs. Not cached — streaming
    /// cones change every refresh.
    pub fn cone_ops(&self, edge_ids: &[usize], vertex_ids: &[usize]) -> AggregationOps {
        let inputs = self.full_slice_inputs();
        AggregationOps::cone_from(&inputs.0, &inputs.1, edge_ids, vertex_ids)
    }

    // --- private delta helpers ---------------------------------------------

    fn build_adj(h: &Hypergraph) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); h.n_vertices()];
        for (e, members) in h.edges().iter().enumerate() {
            for &v in members {
                adj[v].push(e);
            }
        }
        adj
    }

    /// Builds adjacency + degrees if absent (delta methods patch them, so
    /// they must exist before the mutation).
    fn ensure_adj(&mut self) {
        if self.adj.get_mut().is_none() {
            *self.adj.get_mut() = Some(Rc::new(Self::build_adj(&self.h)));
        }
        if self.dv.get_mut().is_none() {
            *self.dv.get_mut() = Some(Rc::new(self.h.vertex_degrees()));
        }
    }

    fn adj_mut(&mut self) -> &mut Vec<Vec<usize>> {
        Rc::make_mut(self.adj.get_mut().as_mut().expect("ensure_adj ran"))
    }

    /// Re-sums the weighted degree of each listed vertex over its incident
    /// edges in ascending id order — the same per-vertex accumulation order
    /// as `Hypergraph::vertex_degrees`, hence bitwise identical.
    fn repatch_degrees(&mut self, vertices: &[usize]) {
        let adj = Rc::clone(self.adj.get_mut().as_ref().expect("ensure_adj ran"));
        let weights = self.h.weights().to_vec();
        let dv = Rc::make_mut(self.dv.get_mut().as_mut().expect("ensure_adj ran"));
        for &v in vertices {
            let mut d = 0.0f32;
            for &e in &adj[v] {
                d += weights[e];
            }
            dv[v] = d;
        }
    }

    /// Fresh incidence rows (`(col, 1.0)` per incident edge) for the listed
    /// vertices, from the maintained adjacency.
    fn incidence_rows(&self, vertices: &[usize]) -> Vec<(usize, Vec<(usize, f32)>)> {
        let adj = self.adjacency();
        vertices
            .iter()
            .map(|&v| (v, adj[v].iter().map(|&e| (e, 1.0f32)).collect()))
            .collect()
    }

    /// Fresh `e2v` rows (`(col, 1/|N_v|)`) for the listed vertices — the
    /// same `1.0 / count as f32` expression as
    /// `Hypergraph::edge_to_vertex_mean`.
    fn e2v_rows(&self, vertices: &[usize]) -> Vec<(usize, Vec<(usize, f32)>)> {
        let adj = self.adjacency();
        vertices
            .iter()
            .map(|&v| {
                let inv = 1.0 / adj[v].len() as f32;
                (v, adj[v].iter().map(|&e| (e, inv)).collect())
            })
            .collect()
    }

    /// Replaces the cached full operator set with one rebuilt from patched
    /// matrices plus attention vectors regenerated from the adjacency (a
    /// row-major pass — the same (vertex, edge) order as
    /// `Hypergraph::incidence_pairs`).
    fn replace_full_ops(&mut self, v2e: CsrMatrix<f32>, e2v: CsrMatrix<f32>) {
        let adj = Rc::clone(self.adj.get_mut().as_ref().expect("ensure_adj ran"));
        let mut pairs = Vec::new();
        for (v, edges) in adj.iter().enumerate() {
            for &e in edges {
                pairs.push((v, e));
            }
        }
        let segments: Vec<usize> = pairs.iter().map(|&(v, _)| v).collect();
        let pair_vertices = segments.clone();
        let pair_edges: Vec<usize> = pairs.iter().map(|&(_, e)| e).collect();
        *self.full.get_mut() = Some(Rc::new(AggregationOps {
            v2e: Rc::new(v2e),
            e2v: Rc::new(e2v),
            pairs: Rc::new(pairs),
            segments: Rc::new(segments),
            pair_vertices: Rc::new(pair_vertices),
            pair_edges: Rc::new(pair_edges),
            edge_ids: None,
            n_vertices: self.h.n_vertices(),
        }));
    }

    fn full_ops_ref(&mut self) -> Rc<AggregationOps> {
        Rc::clone(self.full.get_mut().as_ref().expect("caller checked"))
    }

    /// Vertices whose Laplacian rows a mutation of edges touching `seed`
    /// can change: the seed plus every vertex sharing a hyperedge with it.
    fn neighbourhood(&self, seed: &[usize]) -> Vec<usize> {
        let adj = self.adjacency();
        let mut set: BTreeSet<usize> = seed.iter().copied().collect();
        for &v in seed {
            for &e in &adj[v] {
                set.extend(self.h.edge(e).iter().copied());
            }
        }
        set.into_iter().collect()
    }

    /// Recomputes the listed Laplacian rows in place, replaying
    /// `Hypergraph::laplacian`'s per-row arithmetic exactly: the Gustavson
    /// accumulation over `(incident edge ascending) × (member ascending)`
    /// with the same `dv^{-1/2} · sqrt(w_e/|N_e|)` factor pair, then the
    /// `I - Θ` merge with explicit zeros pruned.
    fn repatch_laplacian_rows(&mut self, rows: &[usize]) {
        if self.full_lap.get_mut().is_none() {
            return;
        }
        let adj = Rc::clone(self.adj.get_mut().as_ref().expect("ensure_adj ran"));
        let dv = Rc::clone(self.dv.get_mut().as_ref().expect("ensure_adj ran"));
        let n = self.h.n_vertices();
        let inv_sqrt = |d: f32| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 };
        let mut acc = vec![0.0f32; n];
        let mut seen = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        let lap = Rc::make_mut(self.full_lap.get_mut().as_mut().expect("checked above"));
        for &v in rows {
            let div_v = inv_sqrt(dv[v]);
            for &e in &adj[v] {
                let members = self.h.edge(e);
                let scale = self.h.weights()[e] / members.len() as f32;
                let s = scale.sqrt();
                let a_ve = div_v * s;
                for &u in members {
                    if !seen[u] {
                        seen[u] = true;
                        touched.push(u);
                    }
                    acc[u] += a_ve * (inv_sqrt(dv[u]) * s);
                }
            }
            touched.sort_unstable();
            let mut row: Vec<(usize, f32)> = Vec::with_capacity(touched.len() + 1);
            let mut saw_diag = false;
            for &u in &touched {
                let val = if u == v {
                    saw_diag = true;
                    1.0 - acc[u]
                } else {
                    0.0 - acc[u]
                };
                if val != 0.0 {
                    row.push((u, val));
                }
                acc[u] = 0.0;
                seen[u] = false;
            }
            touched.clear();
            if !saw_diag {
                let pos = row.partition_point(|&(c, _)| c < v);
                row.insert(pos, (v, 1.0));
            }
            lap.set_row(v, &row);
        }
    }

    /// The full-hypergraph operator set, extracted once.
    pub fn full_ops(&self) -> Rc<AggregationOps> {
        if let Some(ops) = self.full.borrow().as_ref() {
            ahntp_telemetry::counter_add("hypergraph.cache.hits", 1);
            return Rc::clone(ops);
        }
        ahntp_telemetry::counter_add("hypergraph.cache.misses", 1);
        ahntp_faultz::enforce("hypergraph.cache.build");
        let _k = ahntp_telemetry::KernelSpan::enter(
            "hypergraph.cache.build",
            ahntp_telemetry::KernelKind::CacheBuild,
        );
        let ops = Rc::new(AggregationOps::full(&self.h));
        ahntp_telemetry::gauge_set(
            "hypergraph.cache.resident_rows",
            ops.resident_rows() as f64,
        );
        *self.full.borrow_mut() = Some(Rc::clone(&ops));
        ops
    }

    /// The operator set restricted to `edge_ids`, reusing the previous
    /// slice when the ids match. The identity selection (every edge, in
    /// order) short-circuits to [`AggregationCache::full_ops`].
    ///
    /// # Panics
    ///
    /// Panics if any edge id is out of range.
    pub fn slice_ops(&self, edge_ids: &[usize]) -> Rc<AggregationOps> {
        if self.is_identity(edge_ids) {
            return self.full_ops();
        }
        if let Some((ids, ops)) = self.slice.borrow().as_ref() {
            if ids == edge_ids {
                ahntp_telemetry::counter_add("hypergraph.cache.hits", 1);
                return Rc::clone(ops);
            }
        }
        ahntp_telemetry::counter_add("hypergraph.cache.misses", 1);
        ahntp_faultz::enforce("hypergraph.cache.slice");
        let _k = ahntp_telemetry::KernelSpan::enter(
            "hypergraph.cache.slice",
            ahntp_telemetry::KernelKind::CacheBuild,
        );
        let (inc, v2e) = &*self.full_slice_inputs();
        let ops = Rc::new(AggregationOps::sliced_from(inc, v2e, edge_ids));
        ahntp_telemetry::gauge_set(
            "hypergraph.cache.resident_rows",
            ops.resident_rows() as f64,
        );
        *self.slice.borrow_mut() = Some((edge_ids.to_vec(), Rc::clone(&ops)));
        ops
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
            ahntp_telemetry::KernelKind::CacheBuild,
        );
        let lap = Rc::new(self.h.laplacian());
        *self.full_lap.borrow_mut() = Some(Rc::clone(&lap));
        lap
    }

    /// The Laplacian of the sub-hypergraph induced by `edge_ids`, reusing
    /// the previous slice when the ids match; the identity selection
    /// short-circuits to [`AggregationCache::full_laplacian`].
    ///
    /// # Panics
    ///
    /// Panics if any edge id is out of range.
    pub fn slice_laplacian(&self, edge_ids: &[usize]) -> Rc<CsrMatrix<f32>> {
        if self.is_identity(edge_ids) {
            return self.full_laplacian();
        }
        if let Some((ids, lap)) = self.slice_lap.borrow().as_ref() {
            if ids == edge_ids {
                ahntp_telemetry::counter_add("hypergraph.cache.hits", 1);
                return Rc::clone(lap);
            }
        }
        ahntp_telemetry::counter_add("hypergraph.cache.misses", 1);
        let _k = ahntp_telemetry::KernelSpan::enter(
            "hypergraph.cache.laplacian_slice",
            ahntp_telemetry::KernelKind::CacheBuild,
        );
        let lap = Rc::new(self.h.laplacian_for_edges(edge_ids));
        *self.slice_lap.borrow_mut() = Some((edge_ids.to_vec(), Rc::clone(&lap)));
        lap
    }

    /// The cached (incidence, v2e) pair slices are cut from.
    fn full_slice_inputs(&self) -> Rc<(CsrMatrix<f32>, CsrMatrix<f32>)> {
        if let Some(inputs) = self.full_inputs.borrow().as_ref() {
            return Rc::clone(inputs);
        }
        let inputs = Rc::new((self.h.incidence(), self.h.vertex_to_edge_mean()));
        *self.full_inputs.borrow_mut() = Some(Rc::clone(&inputs));
        inputs
    }

    fn is_identity(&self, edge_ids: &[usize]) -> bool {
        edge_ids.len() == self.h.n_edges() && edge_ids.iter().enumerate().all(|(i, &e)| i == e)
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
            let counts = ["hypergraph.cache.misses", "hypergraph.cache.hits"]
                .map(ahntp_telemetry::counter_get);
            assert_eq!(counts, [2, 2], "one miss per distinct build, one hit per reuse");
        });
    }

    #[test]
    fn identity_slice_shares_the_full_set() {
        let cache = AggregationCache::new(sample());
        let full = cache.full_ops();
        let id = cache.slice_ops(&[0, 1, 2]);
        assert!(Rc::ptr_eq(&full, &id), "identity slice is the full set");
        assert!(id.edge_ids.is_none());
        let lap = cache.full_laplacian();
        assert!(Rc::ptr_eq(&lap, &cache.slice_laplacian(&[0, 1, 2])));
    }

    #[test]
    fn repeated_slice_requests_hit_the_cache() {
        let cache = AggregationCache::new(sample());
        let a = cache.slice_ops(&[2, 0]);
        let b = cache.slice_ops(&[2, 0]);
        assert!(Rc::ptr_eq(&a, &b), "same ids → cached slice");
        let c = cache.slice_ops(&[1]);
        assert!(!Rc::ptr_eq(&a, &c), "different ids → rebuild");
        assert_eq!(c.n_edges(), 1);
        // Slice matches the standalone extraction.
        let standalone = AggregationOps::sliced(cache.hypergraph(), &[2, 0]);
        assert_eq!(*cache.slice_ops(&[2, 0]).v2e, *standalone.v2e);
    }

    #[test]
    fn structure_change_invalidates_everything() {
        let mut cache = AggregationCache::new(sample());
        let before = cache.full_ops();
        let slice_before = cache.slice_ops(&[0, 1]);
        cache.add_edge(&[1, 3]).expect("valid");
        assert_eq!(cache.n_edges(), 4);
        let after = cache.full_ops();
        assert!(!Rc::ptr_eq(&before, &after), "full set rebuilt");
        assert_eq!(after.n_edges(), 4);
        let slice_after = cache.slice_ops(&[0, 1]);
        assert!(!Rc::ptr_eq(&slice_before, &slice_after), "slice rebuilt");
        // The rebuilt slice reflects the new structure: vertex 3 now also
        // sees the new edge, but the slice only keeps edges {0, 1}.
        assert_eq!(slice_after.n_edges(), 2);
    }

    #[test]
    fn laplacian_slice_matches_direct_computation() {
        let cache = AggregationCache::new(sample());
        let lap = cache.slice_laplacian(&[0, 2]);
        assert_eq!(*lap, cache.hypergraph().laplacian_for_edges(&[0, 2]));
        // Cached on repeat.
        assert!(Rc::ptr_eq(&lap, &cache.slice_laplacian(&[0, 2])));
    }

    /// Asserts every cached structure equals a from-scratch rebuild bitwise.
    fn assert_matches_rebuild(cache: &AggregationCache) {
        let h = cache.hypergraph();
        let fresh = AggregationOps::full(h);
        let cached = cache.full_ops();
        assert_eq!(*cached.v2e, *fresh.v2e, "v2e drifted");
        assert_eq!(*cached.e2v, *fresh.e2v, "e2v drifted");
        assert_eq!(*cached.pairs, *fresh.pairs, "pairs drifted");
        assert_eq!(*cached.segments, *fresh.segments, "segments drifted");
        assert_eq!(*cached.pair_vertices, *fresh.pair_vertices);
        assert_eq!(*cached.pair_edges, *fresh.pair_edges);
        assert_eq!(*cache.full_laplacian(), h.laplacian(), "Laplacian drifted");
        assert_eq!(*cache.degree_vector(), h.vertex_degrees(), "degrees drifted");
        let inputs = cache.full_slice_inputs();
        assert_eq!(inputs.0, h.incidence(), "incidence input drifted");
        assert_eq!(inputs.1, h.vertex_to_edge_mean(), "v2e input drifted");
    }

    /// Forces every cache entry to exist so the delta paths must patch
    /// (not lazily rebuild) them.
    fn warm(cache: &AggregationCache) {
        cache.full_ops();
        cache.full_laplacian();
        cache.full_slice_inputs();
        cache.degree_vector();
    }

    #[test]
    fn delta_add_matches_rebuild() {
        let mut cache = AggregationCache::new(sample());
        warm(&cache);
        cache.apply_add(&[1, 3], 2.5).expect("valid");
        assert_matches_rebuild(&cache);
        cache.apply_add(&[0], 0.25).expect("singleton is fine");
        assert_matches_rebuild(&cache);
    }

    #[test]
    fn delta_remove_matches_rebuild_including_swap() {
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
    fn delta_reweight_and_decay_match_rebuild() {
        let mut cache = AggregationCache::new(sample());
        warm(&cache);
        let ops_before = cache.full_ops();
        let old = cache.apply_reweight(1, 4.0).expect("valid");
        assert_eq!(old, 1.0);
        // Aggregation operators are weight-independent: not even rebuilt.
        assert!(Rc::ptr_eq(&ops_before, &cache.full_ops()));
        assert_matches_rebuild(&cache);
        cache.apply_decay(0.5).expect("valid");
        assert_eq!(cache.hypergraph().weights()[1], 2.0);
        assert_matches_rebuild(&cache);
    }

    #[test]
    fn delta_on_cold_cache_still_consistent() {
        // Nothing warmed: mutation maintains adjacency/degrees only, and
        // later builds see the post-mutation hypergraph.
        let mut cache = AggregationCache::new(sample());
        cache.apply_add(&[1, 3], 1.5).expect("valid");
        cache.apply_remove(1).expect("valid");
        assert_matches_rebuild(&cache);
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
    fn cone_ops_match_slice_rows() {
        let cache = AggregationCache::new(sample());
        // Cone for edges {0, 1} over the union of their members.
        let cone = cache.cone_ops(&[0, 1], &[0, 1, 2, 3]);
        let slice = AggregationOps::sliced(cache.hypergraph(), &[0, 1]);
        assert_eq!(*cone.v2e, *slice.v2e, "same edges, all vertices kept");
        assert_eq!(cone.n_vertices, 4);
    }
}
