//! Neural-network building blocks for the AHNTP reproduction.
//!
//! The crate supplies everything §IV-C/§IV-D of the paper and the baseline
//! zoo (§V-A-2) need on top of the autograd tape:
//!
//! * [`Param`] / [`Session`] / [`Module`] — the parameter-binding protocol:
//!   parameters live outside any tape; a [`Session`] leafs them into the
//!   per-step [`Graph`](ahntp_autograd::Graph) and harvests gradients back
//!   after `backward()`.
//! * [`Linear`] / [`Mlp`] — dense layers and the ReLU towers of Eqs. 17–18.
//! * [`HypergraphConv`] — the two-step spatial hypergraph convolution of
//!   Eqs. 10–13 (vertex→edge mean, trainable hyperedge weight, edge→vertex
//!   mean, linear + ReLU), with the linear map applied before the means.
//! * [`AdaptiveHypergraphConv`] — the adaptive layer of Eqs. 14–16, which
//!   reweights each vertex's incident hyperedges with a shared-attention
//!   mechanism (`β`) and aggregates with the attention coefficients.
//!   Both run one Eqs. 10–13 body and implement [`HypergraphLayer`], the
//!   one interface a layer stack holds them through.
//! * [`GcnConv`], [`GatConv`], [`sgc_features`] — the graph-side layers the
//!   baselines are built from.
//! * [`loss`] — binary cross-entropy on the cosine head (Eq. 21), the
//!   supervised contrastive loss (Eq. 20), their combination (Eq. 22), and
//!   the hypergraph smoothness regulariser (Eqs. 23–24).
//! * [`Adam`] / [`Sgd`] — optimizers (the paper trains with Adam,
//!   lr = 1e-3, weight decay = 1e-4).
//! * [`save_params`] / [`load_params`] — state-dict-style checkpoints.
//! * [`TrainState`] — full training-state checkpoints (parameters, Adam
//!   moments, sampler seed, early-stopping ledger) for crash-safe,
//!   bitwise-exact resume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod conv;
mod frame;
mod gnn;
mod linear;
pub mod loss;
mod optim;
mod param;
mod rows;
mod serialize;
mod train_state;

pub use artifact::{ArtifactError, TrustArtifact, ARTIFACT_VERSION_V2};
pub use rows::Rows;
// Re-exported so downstream crates can open mapped artifacts without a
// direct ahntp-mapped dependency.
pub use ahntp_mapped::MappedBytes;
pub use conv::{AdaptiveHypergraphConv, HypergraphConv, HypergraphLayer, LayerForward};
pub use gnn::{gcn_norm_adjacency, sgc_features, GatConv, GcnConv};
pub use linear::{Linear, Mlp};
pub use optim::{Adam, AdamConfig, Optimizer, Sgd};
pub use param::{Module, Param, Session};
pub use serialize::{
    checkpoint_fingerprint, load_params, load_params_tagged, save_params, save_params_tagged,
    CheckpointError,
};
pub use train_state::{ParamState, TrainState};
