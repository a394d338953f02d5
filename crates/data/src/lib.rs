//! Synthetic trust-network datasets calibrated to the paper's Ciao and
//! Epinions statistics (Table III), plus train/test splitting and negative
//! sampling.
//!
//! # Why synthetic data
//!
//! The original Ciao/Epinions dumps (Tang et al., KDD'12) are not
//! redistributable and not available offline. The generator here plants
//! exactly the signals the paper's model classes compete on (DESIGN.md §1):
//!
//! 1. **Community homophily** — users join latent interest communities and
//!    trust fellow members preferentially; community membership surfaces
//!    only through *behaviour* (purchases and derived attributes), never as
//!    a feature column, so models must infer it.
//! 2. **Influence hubs** — trustees are drawn with preferential attachment,
//!    giving a heavy-tailed in-degree distribution; the opinions of these
//!    hubs are what Motif-based PageRank is designed to surface.
//! 3. **Triadic closure** — a fraction of trust edges close open triangles,
//!    creating the triangular motifs of Fig. 2 / Fig. 4.
//! 4. **Reciprocity** — a fraction of edges are mutual, which the
//!    bidirectional/unidirectional split of Table II depends on.
//!
//! All randomness flows from a single `seed`, so datasets (and therefore
//! every experiment table) are bit-reproducible.
//!
//! ```
//! use ahntp_data::{DatasetConfig, TrustDataset};
//!
//! let ds = TrustDataset::generate(&DatasetConfig::ciao_like(200, 7));
//! assert_eq!(ds.graph.n(), 200);
//! let split = ds.split(0.8, 0.2, 2, 42);
//! assert!(split.train.iter().filter(|p| p.label).count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dataset;
mod generator;
mod io;
mod sampler;
mod sybil;
mod temporal;

pub use config::DatasetConfig;
pub use dataset::{DatasetStats, LabeledPair, Split, TrustDataset};
pub use io::{parse_item_categories, parse_ratings, parse_trust_edges, Rating};
pub use sampler::{plan_micro_batches, sample_edges, MiniBatchConfig};
pub use sybil::{inject_sybil, SybilConfig, SybilInjection, SybilProbes};
pub use temporal::TemporalTrustDataset;

/// Errors from loading external data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A line failed to parse.
    Parse {
        /// What was being parsed ("trust edge", "rating", …).
        what: String,
        /// 1-based line number.
        line: usize,
        /// The offending line.
        content: String,
    },
    /// Parts disagree on dimensions / ids.
    Shape(String),
}

impl std::fmt::Display for DataError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataError::Parse {
                what,
                line,
                content,
            } => {
                write!(f, "failed to parse {what} at line {line}: {content:?}")
            }
            DataError::Shape(msg) => write!(f, "inconsistent dataset parts: {msg}"),
        }
    }
}

impl std::error::Error for DataError {}
