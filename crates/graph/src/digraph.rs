//! The directed social graph and its structural decompositions.

use ahntp_tensor::CsrMatrix;
use std::collections::VecDeque;

/// Errors from graph construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint is not a valid node id.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// Number of nodes in the graph.
        n: usize,
    },
    /// A self-loop was supplied (trust edges are between distinct users).
    SelfLoop(usize),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for a graph with {n} nodes")
            }
            GraphError::SelfLoop(u) => write!(f, "self-loop on node {u} is not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed, unweighted graph over users `0..n`, stored as a CSR 0/1
/// adjacency (`R_U` in the paper's notation). Duplicate edges collapse.
#[derive(Debug, Clone)]
pub struct DiGraph {
    n: usize,
    /// `R_U`: `adj[i][j] = 1` iff there is an edge i → j.
    adj: CsrMatrix<f64>,
    /// `R_Uᵀ` cached for in-neighbour queries.
    adj_t: CsrMatrix<f64>,
}

impl DiGraph {
    /// Builds a graph from a directed edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] on out-of-range endpoints or self-loops.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<DiGraph, GraphError> {
        let mut trips = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            trips.push((u, v, 1.0f64));
        }
        let adj = CsrMatrix::from_triplets(n, n, &trips)
            .expect("endpoints validated above")
            // Duplicate edges summed to k — clamp back to a 0/1 adjacency.
            .map_values(|_| 1.0);
        let adj_t = adj.transpose();
        Ok(DiGraph { n, adj, adj_t })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.adj.nnz()
    }

    /// The 0/1 adjacency matrix `R_U`.
    #[inline]
    pub fn adjacency(&self) -> &CsrMatrix<f64> {
        &self.adj
    }

    /// The transposed adjacency `R_Uᵀ`.
    #[inline]
    pub fn adjacency_t(&self) -> &CsrMatrix<f64> {
        &self.adj_t
    }

    /// Whether the directed edge `u → v` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.get(u, v) != 0.0
    }

    /// Out-neighbours of `u` (users that `u` follows/trusts).
    pub fn out_neighbors(&self, u: usize) -> Vec<usize> {
        self.adj.row_entries(u).map(|(c, _)| c).collect()
    }

    /// In-neighbours of `u` (users that follow/trust `u`).
    pub fn in_neighbors(&self, u: usize) -> Vec<usize> {
        self.adj_t.row_entries(u).map(|(c, _)| c).collect()
    }

    /// Out-degree of `u`.
    pub fn out_degree(&self, u: usize) -> usize {
        self.adj.row_nnz(u)
    }

    /// In-degree of `u`.
    pub fn in_degree(&self, u: usize) -> usize {
        self.adj_t.row_nnz(u)
    }

    /// The bidirectional adjacency `BC = R_U ⊙ R_Uᵀ`: mutual
    /// (reciprocated) edges only.
    pub fn bidirectional(&self) -> CsrMatrix<f64> {
        self.adj.hadamard(&self.adj_t)
    }

    /// The unidirectional adjacency `UC = R_U − BC`: edges whose reverse is
    /// absent.
    pub fn unidirectional(&self) -> CsrMatrix<f64> {
        self.adj.sub(&self.bidirectional()).prune()
    }

    /// All nodes within `k` hops of `start` (excluding `start` itself),
    /// following edges in both directions — the neighbourhood used by the
    /// multi-hop hypergroup (Eq. 9), where social proximity rather than
    /// direction matters.
    pub fn k_hop_neighbors(&self, start: usize, k: usize) -> Vec<usize> {
        assert!(
            start < self.n,
            "k_hop_neighbors: node {start} out of range for {} nodes",
            self.n
        );
        let mut dist = vec![usize::MAX; self.n];
        dist[start] = 0;
        let mut queue = VecDeque::from([start]);
        let mut out = Vec::new();
        while let Some(u) = queue.pop_front() {
            if dist[u] == k {
                continue;
            }
            for v in self
                .out_neighbors(u)
                .into_iter()
                .chain(self.in_neighbors(u))
            {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    out.push(v);
                    queue.push_back(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Nodes at *exactly* `hop` hops (undirected), used to build one
    /// hyperedge per hop level.
    pub fn exact_hop_neighbors(&self, start: usize, hop: usize) -> Vec<usize> {
        assert!(hop >= 1, "exact_hop_neighbors: hop must be >= 1");
        let within = self.k_hop_neighbors(start, hop);
        if hop == 1 {
            return within;
        }
        let closer: std::collections::HashSet<usize> =
            self.k_hop_neighbors(start, hop - 1).into_iter().collect();
        within.into_iter().filter(|v| !closer.contains(v)).collect()
    }

    /// Counts directed triangles through each node (a cheap clustering
    /// signal used by dataset-calibration checks).
    pub fn triangle_counts(&self) -> Vec<usize> {
        // Union adjacency (undirected view).
        let und = self.adj.add(&self.adj_t).map_values(|_| 1.0);
        let tri = und.spmm_masked(&und, &und);
        (0..self.n)
            .map(|u| tri.row_entries(u).map(|(_, v)| v as usize).sum::<usize>() / 2)
            .collect()
    }

    /// Density of the directed adjacency: `edges / (n * (n - 1))`, the
    /// "data sparsity" statistic of Table III.
    pub fn density(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        self.n_edges() as f64 / (self.n as f64 * (self.n as f64 - 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 2 network: 1→2, 1→3, 2↔3, 1→5 (0-indexed: 0→1, 0→2, 1↔2, 0→4).
    fn fig2() -> DiGraph {
        DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 1), (0, 4)]).expect("valid")
    }

    #[test]
    fn construction_validates_inputs() {
        assert!(matches!(
            DiGraph::from_edges(3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        ));
        assert!(matches!(
            DiGraph::from_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        ));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1), (0, 1)]).expect("valid");
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.adjacency().get(0, 1), 1.0);
    }

    #[test]
    fn neighbors_and_degrees() {
        let g = fig2();
        assert_eq!(g.out_neighbors(0), vec![1, 2, 4]);
        assert_eq!(g.in_neighbors(2), vec![0, 1]);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.in_degree(4), 1);
        assert!(g.has_edge(1, 2) && g.has_edge(2, 1) && !g.has_edge(4, 0));
    }

    #[test]
    fn uc_bc_decomposition() {
        let g = fig2();
        let bc = g.bidirectional();
        let uc = g.unidirectional();
        // Only 1↔2 is mutual.
        assert_eq!(bc.nnz(), 2);
        assert_eq!(bc.get(1, 2), 1.0);
        assert_eq!(bc.get(2, 1), 1.0);
        // The remaining three edges are unidirectional.
        assert_eq!(uc.nnz(), 3);
        assert_eq!(uc.get(0, 1), 1.0);
        assert_eq!(uc.get(1, 2), 0.0);
        // UC + BC = R_U exactly.
        assert_eq!(uc.add(&bc).to_dense(), g.adjacency().to_dense());
    }

    #[test]
    fn k_hop_neighbors_undirected_reach() {
        // Path 0 → 1 → 2 → 3 plus isolated 4.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).expect("valid");
        assert_eq!(g.k_hop_neighbors(0, 1), vec![1]);
        assert_eq!(g.k_hop_neighbors(0, 2), vec![1, 2]);
        assert_eq!(g.k_hop_neighbors(0, 3), vec![1, 2, 3]);
        // Reachability is undirected: node 3 reaches back to 0.
        assert_eq!(g.k_hop_neighbors(3, 3), vec![0, 1, 2]);
        assert!(g.k_hop_neighbors(4, 3).is_empty());
    }

    #[test]
    fn exact_hop_rings() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).expect("valid");
        assert_eq!(g.exact_hop_neighbors(0, 1), vec![1]);
        assert_eq!(g.exact_hop_neighbors(0, 2), vec![2]);
        assert_eq!(g.exact_hop_neighbors(0, 3), vec![3]);
    }

    #[test]
    fn triangle_counts_sees_the_fig2_triangle() {
        let g = fig2();
        let t = g.triangle_counts();
        // Nodes 0, 1, 2 share one (undirected) triangle; 3 and 4 none.
        assert!(t[0] >= 1 && t[1] >= 1 && t[2] >= 1);
        assert_eq!(t[3], 0);
        assert_eq!(t[4], 0);
    }

    #[test]
    fn density_matches_definition() {
        let g = fig2();
        assert!((g.density() - 5.0 / 20.0).abs() < 1e-12);
        let tiny = DiGraph::from_edges(1, &[]).expect("valid");
        assert_eq!(tiny.density(), 0.0);
    }
}
