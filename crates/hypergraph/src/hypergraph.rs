//! The weighted hypergraph incidence structure.

use ahntp_tensor::{CsrMatrix, Tensor};

/// Errors from hypergraph construction.
#[derive(Debug, Clone, PartialEq)]
pub enum HypergraphError {
    /// A hyperedge member is outside `0..n_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// Number of vertices in the hypergraph.
        n: usize,
    },
    /// A hyperedge with no members was supplied.
    EmptyHyperedge,
    /// A non-positive hyperedge weight was supplied.
    NonPositiveWeight(f32),
    /// A hyperedge id outside `0..n_edges` was supplied to a mutation.
    EdgeOutOfRange {
        /// The offending hyperedge id.
        edge: usize,
        /// Number of hyperedges in the hypergraph.
        n_edges: usize,
    },
}

impl std::fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HypergraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range for {n} vertices")
            }
            HypergraphError::EmptyHyperedge => write!(f, "hyperedges must be non-empty"),
            HypergraphError::NonPositiveWeight(w) => {
                write!(f, "hyperedge weight must be positive, got {w}")
            }
            HypergraphError::EdgeOutOfRange { edge, n_edges } => {
                write!(f, "hyperedge {edge} out of range for {n_edges} hyperedges")
            }
        }
    }
}

impl std::error::Error for HypergraphError {}

/// A weighted hypergraph `G = (V, E, W)` over vertices `0..n`.
///
/// Hyperedges store sorted, deduplicated member lists. Duplicate *edges*
/// (same member set) are allowed — the hypergroups of Eqs. 6–9 are
/// concatenations in which the same group of users may legitimately recur
/// with different semantics (e.g. as both an attribute circle and a 1-hop
/// neighbourhood).
#[derive(Debug, Clone, PartialEq)]
pub struct Hypergraph {
    n_vertices: usize,
    edges: Vec<Vec<usize>>,
    weights: Vec<f32>,
}

impl Hypergraph {
    /// An empty hypergraph over `n` vertices.
    pub fn new(n_vertices: usize) -> Hypergraph {
        Hypergraph {
            n_vertices,
            edges: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Adds a hyperedge with unit weight.
    ///
    /// # Errors
    ///
    /// See [`Hypergraph::add_weighted_edge`].
    pub fn add_edge(&mut self, members: &[usize]) -> Result<usize, HypergraphError> {
        self.add_weighted_edge(members, 1.0)
    }

    /// Adds a hyperedge with the given positive weight, returning its index.
    /// Members are sorted and deduplicated.
    ///
    /// # Errors
    ///
    /// Rejects empty member lists, out-of-range vertices, and non-positive
    /// weights.
    pub fn add_weighted_edge(
        &mut self,
        members: &[usize],
        weight: f32,
    ) -> Result<usize, HypergraphError> {
        if members.is_empty() {
            return Err(HypergraphError::EmptyHyperedge);
        }
        // `is_nan` check folded in: NaN fails the strict comparison too.
        if weight.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(HypergraphError::NonPositiveWeight(weight));
        }
        for &v in members {
            if v >= self.n_vertices {
                return Err(HypergraphError::VertexOutOfRange {
                    vertex: v,
                    n: self.n_vertices,
                });
            }
        }
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        ahntp_telemetry::counter_add("hypergraph.edges_added", 1);
        ahntp_telemetry::counter_add("hypergraph.incidences_added", sorted.len() as u64);
        self.edges.push(sorted);
        self.weights.push(weight);
        Ok(self.edges.len() - 1)
    }

    fn check_edge(&self, e: usize) -> Result<(), HypergraphError> {
        if e >= self.edges.len() {
            Err(HypergraphError::EdgeOutOfRange {
                edge: e,
                n_edges: self.edges.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Removes hyperedge `e` in O(1) id bookkeeping: the last hyperedge is
    /// moved into slot `e` (`Vec::swap_remove`), so exactly one other edge
    /// is renamed. The returned [`RemovedEdge`] records the removed edge's
    /// members and weight plus, when a rename happened, the old id and
    /// members of the moved edge — a per-vertex incident-edge index needs
    /// both to know which of its lists to update.
    ///
    /// # Errors
    ///
    /// Returns [`HypergraphError::EdgeOutOfRange`] for an unknown id.
    pub fn remove_edge(&mut self, e: usize) -> Result<RemovedEdge, HypergraphError> {
        self.check_edge(e)?;
        let last = self.edges.len() - 1;
        let members = self.edges.swap_remove(e);
        let weight = self.weights.swap_remove(e);
        let moved = (e != last).then(|| MovedEdge {
            old_id: last,
            members: self.edges[e].clone(),
        });
        ahntp_telemetry::counter_add("hypergraph.edges_removed", 1);
        ahntp_telemetry::counter_add("hypergraph.incidences_removed", members.len() as u64);
        Ok(RemovedEdge {
            members,
            weight,
            moved,
        })
    }

    /// Replaces the weight of hyperedge `e`, returning the previous weight.
    /// Validation mirrors [`Hypergraph::add_weighted_edge`]: the new weight
    /// must be strictly positive (NaN fails the comparison too).
    ///
    /// # Errors
    ///
    /// Returns [`HypergraphError::EdgeOutOfRange`] for an unknown id and
    /// [`HypergraphError::NonPositiveWeight`] for a non-positive or NaN
    /// weight.
    pub fn reweight_edge(&mut self, e: usize, weight: f32) -> Result<f32, HypergraphError> {
        self.check_edge(e)?;
        if weight.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(HypergraphError::NonPositiveWeight(weight));
        }
        let old = std::mem::replace(&mut self.weights[e], weight);
        ahntp_telemetry::counter_add("hypergraph.edges_reweighted", 1);
        Ok(old)
    }

    /// Scales every hyperedge weight by `factor` — the batched-reweight
    /// primitive behind time decay (`w_e ← w_e · e^{-λ·Δt}`). Results are
    /// clamped up to `f32::MIN_POSITIVE` so repeated decay can never
    /// underflow a weight to zero and break the positive-weight invariant.
    ///
    /// # Errors
    ///
    /// Returns [`HypergraphError::NonPositiveWeight`] when `factor` is not
    /// a strictly positive finite number.
    pub fn scale_weights(&mut self, factor: f32) -> Result<(), HypergraphError> {
        if factor.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !factor.is_finite() {
            return Err(HypergraphError::NonPositiveWeight(factor));
        }
        for w in &mut self.weights {
            *w = (*w * factor).max(f32::MIN_POSITIVE);
        }
        ahntp_telemetry::counter_add("hypergraph.weights_decayed", 1);
        Ok(())
    }

    /// Concatenates several hypergroups over the same vertex set — the `||`
    /// of Eqs. 6–9: the hyperedge lists are appended.
    ///
    /// # Panics
    ///
    /// Panics if vertex counts differ.
    pub fn concat(parts: &[&Hypergraph]) -> Hypergraph {
        assert!(!parts.is_empty(), "Hypergraph::concat: no parts");
        let n = parts[0].n_vertices;
        let mut out = Hypergraph::new(n);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(
                p.n_vertices, n,
                "Hypergraph::concat: part {i} has {} vertices, expected {n}",
                p.n_vertices
            );
            out.edges.extend(p.edges.iter().cloned());
            out.weights.extend_from_slice(&p.weights);
        }
        if ahntp_telemetry::enabled() {
            let s = out.stats();
            ahntp_telemetry::debug!(
                "hypergraph",
                "concat of {} hypergroups: {} vertices, {} hyperedges, mean size {:.2}, max size {}, {} isolated",
                parts.len(),
                s.n_vertices,
                s.n_edges,
                s.mean_edge_size,
                s.max_edge_size,
                s.isolated_vertices
            );
            ahntp_telemetry::gauge_set("hypergraph.concat.n_edges", s.n_edges as f64);
            ahntp_telemetry::gauge_set("hypergraph.concat.mean_edge_size", s.mean_edge_size);
            ahntp_telemetry::gauge_set(
                "hypergraph.concat.isolated_vertices",
                s.isolated_vertices as f64,
            );
        }
        out
    }

    /// Number of vertices.
    #[inline]
    pub fn n_vertices(&self) -> usize {
        self.n_vertices
    }

    /// Number of hyperedges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Members of hyperedge `e` (sorted, unique).
    pub fn edge(&self, e: usize) -> &[usize] {
        &self.edges[e]
    }

    /// All hyperedges.
    pub fn edges(&self) -> &[Vec<usize>] {
        &self.edges
    }

    /// Hyperedge weights (the diagonal of `W`).
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Hyperedge degree `D_ee(e) = |N_e|` (member count).
    pub fn edge_degree(&self, e: usize) -> usize {
        self.edges[e].len()
    }

    /// Vertex degree `D_vv(v) = Σ_{e ∋ v} w_e` (weighted incidence count).
    pub fn vertex_degrees(&self) -> Vec<f32> {
        let mut d = vec![0.0f32; self.n_vertices];
        for (members, &w) in self.edges.iter().zip(&self.weights) {
            for &v in members {
                d[v] += w;
            }
        }
        d
    }

    /// Number of hyperedges incident to each vertex (`|N_{u_i}|` of Eq. 12).
    pub fn vertex_edge_counts(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.n_vertices];
        for members in &self.edges {
            for &v in members {
                d[v] += 1;
            }
        }
        d
    }

    /// The incidence matrix `H ∈ {0,1}^{n×m}`.
    pub fn incidence(&self) -> CsrMatrix<f32> {
        let mut trips = Vec::new();
        for (e, members) in self.edges.iter().enumerate() {
            for &v in members {
                trips.push((v, e, 1.0f32));
            }
        }
        CsrMatrix::from_triplets(self.n_vertices, self.n_edges(), &trips)
            .expect("members validated at insertion")
    }

    /// The vertex→hyperedge mean-aggregation operator of Eq. 10: an
    /// `m × n` matrix with row `e` holding `1 / |N_e|` on its members, so
    /// that `M @ X` computes `Mess_e = Σ_{u ∈ N_e} x_u / |N_e|`.
    pub fn vertex_to_edge_mean(&self) -> CsrMatrix<f32> {
        let mut trips = Vec::new();
        for (e, members) in self.edges.iter().enumerate() {
            let inv = 1.0 / members.len() as f32;
            for &v in members {
                trips.push((e, v, inv));
            }
        }
        CsrMatrix::from_triplets(self.n_edges(), self.n_vertices, &trips)
            .expect("members validated at insertion")
    }

    /// The hyperedge→vertex mean-aggregation operator of Eq. 12: an
    /// `n × m` matrix with row `v` holding `1 / |N_v|` on its incident
    /// hyperedges, so that `M @ h` computes
    /// `Mess_{u} = Σ_{e ∈ N_u} h_e / |N_u|`.
    pub fn edge_to_vertex_mean(&self) -> CsrMatrix<f32> {
        let counts = self.vertex_edge_counts();
        let mut trips = Vec::new();
        for (e, members) in self.edges.iter().enumerate() {
            for &v in members {
                trips.push((v, e, 1.0 / counts[v] as f32));
            }
        }
        CsrMatrix::from_triplets(self.n_vertices, self.n_edges(), &trips)
            .expect("members validated at insertion")
    }

    /// All `(vertex, hyperedge)` incidence pairs sorted by vertex — the
    /// index structure behind the attention of Eqs. 14–16, in the order
    /// of [`Hypergraph::edge_to_vertex_mean`]'s entries, which is what the
    /// attention reads. Pair `k` connects `pairs[k].0` to hyperedge
    /// `pairs[k].1`; the vertex is also the segment that groups the
    /// attention softmax.
    pub fn incidence_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (e, members) in self.edges.iter().enumerate() {
            for &v in members {
                pairs.push((v, e));
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// The normalised hypergraph Laplacian of Eq. 24:
    /// `Δ = I − D_vv^{-1/2} H W D_ee^{-1} Hᵀ D_vv^{-1/2}`.
    ///
    /// Vertices with no incident hyperedge contribute an identity row
    /// (their `D_vv^{-1/2}` is taken as 0, the usual convention).
    pub fn laplacian(&self) -> CsrMatrix<f32> {
        let ids: Vec<usize> = (0..self.n_edges()).collect();
        self.laplacian_for_edges(&ids)
    }

    /// The Laplacian of the sub-hypergraph induced by the given hyperedges
    /// (same vertex set; only the listed edges contribute). Degrees are
    /// recomputed over the subset, so with the identity selection this is
    /// exactly [`Hypergraph::laplacian`] — accumulation order included, so
    /// the result is bitwise identical.
    ///
    /// # Panics
    ///
    /// Panics if any edge id is out of range.
    pub fn laplacian_for_edges(&self, edge_ids: &[usize]) -> CsrMatrix<f32> {
        // Weighted vertex degrees restricted to the sampled edges, summed
        // in edge-id request order (identity order == full order).
        let mut dv = vec![0.0f32; self.n_vertices];
        for (j, &e) in edge_ids.iter().enumerate() {
            assert!(
                e < self.n_edges(),
                "laplacian_for_edges: edge_ids[{j}] = {e} out of range for {} edges",
                self.n_edges()
            );
            for &v in &self.edges[e] {
                dv[v] += self.weights[e];
            }
        }
        let dv_inv_sqrt: Vec<f32> = dv
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        // Theta = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2}, assembled as
        // (scaled H) @ (scaled H)^T with per-edge weight w_e / |N_e|.
        let mut trips = Vec::new();
        for (j, &e) in edge_ids.iter().enumerate() {
            let members = &self.edges[e];
            let scale = self.weights[e] / members.len() as f32;
            for &v in members {
                trips.push((v, j, dv_inv_sqrt[v] * scale.sqrt()));
            }
        }
        let half = CsrMatrix::from_triplets(self.n_vertices, edge_ids.len(), &trips)
            .expect("members validated at insertion");
        let theta = half.spmm(&half.transpose());
        CsrMatrix::identity(self.n_vertices).sub(&theta).prune()
    }

    /// The smoothness functional `R(f) = tr(fᵀ Δ f)` of Eq. 23 for a dense
    /// embedding `f` (`n × d`). Lower values mean embeddings vary less
    /// within hyperedges.
    pub fn smoothness(&self, f: &Tensor) -> f32 {
        assert_eq!(
            f.rows(),
            self.n_vertices,
            "smoothness: embedding has {} rows for {} vertices",
            f.rows(),
            self.n_vertices
        );
        let lf = self.laplacian().mul_dense(f);
        f.mul(&lf).sum()
    }

    /// Summary statistics used by dataset-calibration reporting.
    pub fn stats(&self) -> HypergraphStats {
        let sizes: Vec<usize> = self.edges.iter().map(Vec::len).collect();
        let isolated = self
            .vertex_edge_counts()
            .iter()
            .filter(|&&c| c == 0)
            .count();
        HypergraphStats {
            n_vertices: self.n_vertices,
            n_edges: self.edges.len(),
            mean_edge_size: if sizes.is_empty() {
                0.0
            } else {
                sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
            },
            max_edge_size: sizes.iter().copied().max().unwrap_or(0),
            isolated_vertices: isolated,
        }
    }
}

/// What [`Hypergraph::remove_edge`] removed, plus the rename it caused.
#[derive(Debug, Clone, PartialEq)]
pub struct RemovedEdge {
    /// Members of the removed hyperedge (sorted, unique).
    pub members: Vec<usize>,
    /// Weight of the removed hyperedge.
    pub weight: f32,
    /// When the removed edge was not the last one, the edge that took its
    /// id (always the previously-last edge).
    pub moved: Option<MovedEdge>,
}

/// A hyperedge renamed by a swap-remove.
#[derive(Debug, Clone, PartialEq)]
pub struct MovedEdge {
    /// The edge's id before the removal (the old `n_edges - 1`).
    pub old_id: usize,
    /// The edge's members (sorted, unique).
    pub members: Vec<usize>,
}

/// Size/shape summary of a hypergraph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypergraphStats {
    /// Number of vertices.
    pub n_vertices: usize,
    /// Number of hyperedges.
    pub n_edges: usize,
    /// Mean hyperedge cardinality.
    pub mean_edge_size: f64,
    /// Largest hyperedge cardinality.
    pub max_edge_size: usize,
    /// Vertices not covered by any hyperedge.
    pub isolated_vertices: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hypergraph {
        let mut h = Hypergraph::new(4);
        h.add_edge(&[0, 1, 2]).expect("valid");
        h.add_edge(&[2, 3]).expect("valid");
        h
    }

    #[test]
    fn construction_validates() {
        let mut h = Hypergraph::new(3);
        assert_eq!(h.add_edge(&[]), Err(HypergraphError::EmptyHyperedge));
        assert_eq!(
            h.add_edge(&[0, 3]),
            Err(HypergraphError::VertexOutOfRange { vertex: 3, n: 3 })
        );
        assert_eq!(
            h.add_weighted_edge(&[0], 0.0),
            Err(HypergraphError::NonPositiveWeight(0.0))
        );
        assert!(matches!(
            h.add_weighted_edge(&[0], f32::NAN).unwrap_err(),
            HypergraphError::NonPositiveWeight(w) if w.is_nan()
        ));
    }

    #[test]
    fn members_are_sorted_and_deduped() {
        let mut h = Hypergraph::new(5);
        h.add_edge(&[3, 1, 3, 0]).expect("valid");
        assert_eq!(h.edge(0), &[0, 1, 3]);
        assert_eq!(h.edge_degree(0), 3);
    }

    #[test]
    fn incidence_matrix_matches_membership() {
        let h = small();
        let inc = h.incidence();
        assert_eq!((inc.rows(), inc.cols()), (4, 2));
        assert_eq!(inc.get(0, 0), 1.0);
        assert_eq!(inc.get(3, 1), 1.0);
        assert_eq!(inc.get(3, 0), 0.0);
        assert_eq!(inc.nnz(), 5);
    }

    #[test]
    fn degrees() {
        let h = small();
        assert_eq!(h.vertex_degrees(), vec![1.0, 1.0, 2.0, 1.0]);
        assert_eq!(h.vertex_edge_counts(), vec![1, 1, 2, 1]);
        assert_eq!(h.edge_degree(0), 3);
        assert_eq!(h.edge_degree(1), 2);
    }

    #[test]
    fn mean_operators_average_correctly() {
        let h = small();
        let x = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let v2e = h.vertex_to_edge_mean();
        let mess_e = v2e.mul_dense(&x);
        assert!((mess_e.get(0, 0) - 2.0).abs() < 1e-6, "mean of 1,2,3");
        assert!((mess_e.get(1, 0) - 3.5).abs() < 1e-6, "mean of 3,4");
        let e2v = h.edge_to_vertex_mean();
        let mess_v = e2v.mul_dense(&mess_e);
        // Vertex 2 belongs to both hyperedges: mean of 2.0 and 3.5.
        assert!((mess_v.get(2, 0) - 2.75).abs() < 1e-6);
        // Vertex 0 only to edge 0.
        assert!((mess_v.get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn incidence_pairs_sorted_with_segments() {
        let h = small();
        let pairs = h.incidence_pairs();
        assert_eq!(pairs, vec![(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]);
    }

    #[test]
    fn concat_appends_edges() {
        let a = small();
        let mut b = Hypergraph::new(4);
        b.add_weighted_edge(&[0, 3], 2.0).expect("valid");
        let c = Hypergraph::concat(&[&a, &b]);
        assert_eq!(c.n_edges(), 3);
        assert_eq!(c.edge(2), &[0, 3]);
        assert_eq!(c.weights(), &[1.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "part 1 has 3 vertices")]
    fn concat_rejects_mismatched_vertex_counts() {
        let a = small();
        let b = Hypergraph::new(3);
        Hypergraph::concat(&[&a, &b]);
    }

    #[test]
    fn laplacian_null_vector_and_roughness() {
        let h = small();
        // The normalised Laplacian annihilates f = D_vv^{1/2} · 1.
        let null: Vec<f32> = h.vertex_degrees().iter().map(|&d| d.sqrt()).collect();
        let f = Tensor::from_vec(4, 1, null).expect("4 degrees");
        let r = h.smoothness(&f);
        assert!(r.abs() < 1e-5, "null-vector smoothness {r}");
        // A sign-alternating embedding is rough: R(f) > 0.
        let rough = Tensor::from_rows(&[&[1.0], &[-1.0], &[1.0], &[-1.0]]);
        assert!(h.smoothness(&rough) > 0.1);
        // PSD check: a basket of test vectors all give R(f) >= -eps.
        for seed in 0..5u64 {
            let f = ahntp_tensor::xavier_uniform(4, 3, seed);
            assert!(h.smoothness(&f) > -1e-5, "Laplacian must be PSD");
        }
    }

    #[test]
    fn laplacian_isolated_vertex_row_is_identity() {
        let mut h = Hypergraph::new(3);
        h.add_edge(&[0, 1]).expect("valid");
        let l = h.laplacian();
        assert_eq!(l.get(2, 2), 1.0);
        assert_eq!(l.get(2, 0), 0.0);
    }

    #[test]
    fn remove_edge_swaps_in_the_last_edge() {
        let mut h = small();
        h.add_weighted_edge(&[1, 3], 2.5).expect("valid");
        // Remove the middle edge: edge 2 ([1,3], w 2.5) takes id 1.
        let removed = h.remove_edge(1).expect("in range");
        assert_eq!(removed.members, vec![2, 3]);
        assert_eq!(removed.weight, 1.0);
        let moved = removed.moved.expect("a rename happened");
        assert_eq!(moved.old_id, 2);
        assert_eq!(moved.members, vec![1, 3]);
        assert_eq!(h.n_edges(), 2);
        assert_eq!(h.edge(1), &[1, 3]);
        assert_eq!(h.weights(), &[1.0, 2.5]);
        // Removing the last edge renames nothing.
        let removed = h.remove_edge(1).expect("in range");
        assert!(removed.moved.is_none());
        assert_eq!(h.n_edges(), 1);
    }

    #[test]
    fn remove_edge_validates_the_id() {
        let mut h = small();
        assert_eq!(
            h.remove_edge(2),
            Err(HypergraphError::EdgeOutOfRange {
                edge: 2,
                n_edges: 2
            })
        );
        let msg = HypergraphError::EdgeOutOfRange {
            edge: 2,
            n_edges: 2,
        }
        .to_string();
        assert!(msg.contains('2'), "{msg}");
        // A failed removal changes nothing.
        assert_eq!(h.n_edges(), 2);
    }

    #[test]
    fn reweight_edge_validates_like_add_weighted_edge() {
        let mut h = small();
        assert_eq!(
            h.reweight_edge(7, 1.0),
            Err(HypergraphError::EdgeOutOfRange {
                edge: 7,
                n_edges: 2
            })
        );
        assert_eq!(
            h.reweight_edge(0, 0.0),
            Err(HypergraphError::NonPositiveWeight(0.0))
        );
        assert_eq!(
            h.reweight_edge(0, -1.5),
            Err(HypergraphError::NonPositiveWeight(-1.5))
        );
        assert!(matches!(
            h.reweight_edge(0, f32::NAN).unwrap_err(),
            HypergraphError::NonPositiveWeight(w) if w.is_nan()
        ));
        assert_eq!(h.weights(), &[1.0, 1.0], "failed reweights change nothing");
        assert_eq!(h.reweight_edge(0, 3.0), Ok(1.0));
        assert_eq!(h.weights(), &[3.0, 1.0]);
        assert_eq!(h.vertex_degrees(), vec![3.0, 3.0, 4.0, 1.0]);
    }

    #[test]
    fn scale_weights_decays_everything_and_validates() {
        let mut h = small();
        h.reweight_edge(1, 2.0).expect("valid");
        h.scale_weights(0.5).expect("valid");
        assert_eq!(h.weights(), &[0.5, 1.0]);
        for bad in [0.0, -0.5, f32::NAN, f32::INFINITY] {
            assert!(matches!(
                h.scale_weights(bad),
                Err(HypergraphError::NonPositiveWeight(_))
            ));
        }
        // Underflow clamps at the smallest positive normal, never zero.
        for _ in 0..50 {
            h.scale_weights(1e-6).expect("valid");
        }
        assert!(h.weights().iter().all(|&w| w > 0.0));
    }

    #[test]
    fn stats_report() {
        let h = small();
        let s = h.stats();
        assert_eq!(s.n_vertices, 4);
        assert_eq!(s.n_edges, 2);
        assert!((s.mean_edge_size - 2.5).abs() < 1e-12);
        assert_eq!(s.max_edge_size, 3);
        assert_eq!(s.isolated_vertices, 0);
        let lonely = Hypergraph::new(2);
        assert_eq!(lonely.stats().isolated_vertices, 2);
    }
}
