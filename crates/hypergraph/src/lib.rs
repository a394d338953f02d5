//! Hypergraph core and the trust-oriented hypergroup builders of §IV-B.
//!
//! A [`Hypergraph`] is a weighted incidence structure `G = (V, E, W)`
//! (§III-A): hyperedges connect arbitrarily many vertices, the incidence
//! matrix `H ∈ {0,1}^{n×m}` records membership, and `D_vv` / `D_ee` are the
//! vertex and hyperedge degree matrices. On top of it, [`groups`] builds the
//! paper's two-tier *hypergroups*:
//!
//! * node-level — the high-social-influence group (Eq. 6, driven by
//!   Motif-based PageRank) and the attribute group (Eq. 7);
//! * structure-level — the pairwise group (Eq. 8) and the multi-hop group
//!   (Eq. 9).
//!
//! The crate also provides the mean-aggregation operators that the adaptive
//! convolution layer consumes (`vertex→edge` of Eq. 10 and `edge→vertex` of
//! Eq. 12, whose pattern is also the incidence hyperedge attention scores,
//! normalises and aggregates over in Eqs. 14–16), and the hypergraph
//! Laplacian regulariser of Eq. 24 — as a matrix for reference, and as the
//! factor [`SmoothnessFactor`] training uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod groups;
mod hypergraph;
mod ops;
mod smooth;

pub use cache::AggregationCache;
pub use groups::{
    attribute_hypergroup, multi_hop_hypergroup, multi_hop_hypergroup_capped, pairwise_hypergroup,
    social_influence_hypergroup,
};
pub use hypergraph::{Hypergraph, HypergraphError, MovedEdge, RemovedEdge};
pub use ops::{AggregationOps, VertexRows};
pub use smooth::SmoothnessFactor;
