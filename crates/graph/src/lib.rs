//! Directed social-graph engine: adjacency, triangular motifs, PageRank and
//! Motif-based PageRank.
//!
//! This crate implements §III-B and §IV-B-1 of the paper:
//!
//! * [`DiGraph`] — a directed, unweighted social graph in CSR form with the
//!   unidirectional/bidirectional decomposition (`UC = R_U − BC`,
//!   `BC = R_U ⊙ R_Uᵀ`) and k-hop neighbourhood queries.
//! * [`Motif`] / [`motif_adjacency`] — the seven classical triangular
//!   motifs M1–M7 (Fig. 4) and their motif-induced adjacency matrices
//!   `A^{M_k}` (Table II), computed with masked sparse products.
//! * [`pagerank`](fn@pagerank) / [`motif_pagerank`] — the basic PageRank score `s`
//!   (Eq. 2) and the motif-based PageRank `s'` obtained by mixing the
//!   pairwise adjacency with a motif-induced adjacency (Eqs. 4–5).
//!
//! ```
//! use ahntp_graph::{DiGraph, Motif, motif_pagerank, MotifPageRankConfig};
//!
//! // The 5-user "follow" network of Fig. 2 in the paper.
//! let g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 1), (0, 4)]).unwrap();
//! let scores = motif_pagerank(&g, Motif::M6, &MotifPageRankConfig::default());
//! assert_eq!(scores.len(), 5);
//! // User 2 participates in the closed triangle and outranks user 4.
//! assert!(scores[2] > scores[4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digraph;
mod motif;
mod pagerank;
mod ppr;

pub use digraph::{DiGraph, GraphError};
pub use motif::{motif_adjacency, motif_instance_count, Motif};
pub use pagerank::{motif_pagerank, pagerank, MotifPageRankConfig, PageRankConfig};
pub use ppr::{
    ppr, ppr_from_seeds, ppr_from_seeds_with_stats, region_mass, sybil_mass_bound, trust_prior,
    PprConfig, PprStats,
};
