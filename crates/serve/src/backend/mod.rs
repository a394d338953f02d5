//! The scoring state behind [`crate::TrustIndex`] and its one scan.
//!
//! A served score is one prenormalized dot product per pair, computed
//! over one scoring state, [`Heads`]: the trustor head row-major and the
//! trustee head in 16-user panels (module `panels`), each held once. A
//! pair dot is one chain over the trustee row in element order; a `/topk`
//! walks the trustee head's groups in descending bound, scoring a panel
//! at a time and skipping every group whose bound cannot enter the heap
//! (module `exact`). Both are **bitwise** the seed's scalar dot, kept as
//! the oracle in `tests/backend_exactness.rs`.
//!
//! The walk runs on the calling thread, and every tie-break is a total
//! order, so the output is the same bits on every run.

use ahntp_nn::Rows;

mod exact;
mod panels;

pub(crate) use exact::top_k_in;
pub(crate) use panels::Panels;

/// The scoring backend a [`crate::TrustIndex`] reports. Exact is the only
/// one; the type, [`crate::ServeConfig::backend`], the second argument of
/// [`crate::TrustIndex::from_artifact_with`] and the `backend` response
/// fields stay only because the benchmark harness (`crates/perf`) names
/// them, and go with the next change to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The panel scan, bitwise the scalar f32 reference.
    #[default]
    Exact,
}

impl BackendKind {
    /// Stable lowercase name: the `backend` field of `/score`, `/topk` and
    /// `/healthz` bodies.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Exact => "exact",
        }
    }
}

/// The warning an `AHNTP_BACKEND` value earns: `None` when it is unset,
/// empty or `exact`, else a message saying the backend it names was
/// removed and exact is served.
fn removed_backend(spec: Option<&str>) -> Option<String> {
    match spec.map(str::trim) {
        None | Some("" | "exact") => None,
        Some(other) => Some(format!(
            "AHNTP_BACKEND={other:?}: that scoring backend was removed; serving exact"
        )),
    }
}

/// Reads `AHNTP_BACKEND` once, at server startup, and warns when it names
/// a backend other than exact.
pub(crate) fn warn_on_removed_backend() {
    if let Some(message) = removed_backend(std::env::var("AHNTP_BACKEND").ok().as_deref()) {
        ahntp_telemetry::warn!("serve", "{message}");
    }
}

/// The scoring state: the trustor head row-major (a zero-copy view while
/// the artifact is mapped and unpatched) and the trustee head as
/// [`Panels`].
#[derive(Debug, Clone)]
pub(crate) struct Heads {
    pub(crate) trustor: Rows,
    pub(crate) trustee: Panels,
}

impl Heads {
    /// Number of users.
    pub(crate) fn n(&self) -> usize {
        self.trustee.n()
    }

    /// Head dimension.
    pub(crate) fn d(&self) -> usize {
        self.trustee.d()
    }

    /// Trustor row `u`.
    pub(crate) fn trustor_row(&self, u: usize) -> &[f32] {
        let d = self.d();
        &self.trustor[u * d..(u + 1) * d]
    }

    /// The exact f32 head dot of one pair.
    pub(crate) fn dot(&self, trustor: usize, trustee: usize) -> f32 {
        self.trustee.dot(self.trustor_row(trustor), trustee)
    }
}

/// A candidate ordered by raw dot for the top-k heaps. Scores are finite
/// (artifact validation guarantees finite inputs), so `total_cmp` is a
/// plain total order here.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ranked {
    pub(crate) score: f32,
    pub(crate) user: usize,
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> std::cmp::Ordering {
        // Ties broken toward the smaller user id: the documented
        // deterministic tie-break (score desc, then user id asc once the
        // order is reversed for output).
        self.score
            .total_cmp(&other.score)
            .then(other.user.cmp(&self.user))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_specs_parse_and_name_round_trip() {
        // Unset, empty or exact (whitespace trimmed): served silently.
        for silent in [None, Some(""), Some("exact"), Some(" exact ")] {
            assert_eq!(removed_backend(silent), None, "{silent:?}");
        }
        let kind = BackendKind::default();
        assert_eq!(kind, BackendKind::Exact);
        assert_eq!(kind.name(), "exact");
        assert_eq!(removed_backend(Some(kind.name())), None);
    }

    #[test]
    fn malformed_backend_specs_are_typed_errors() {
        // Any name but exact, with or without options, warns; " simd" is
        // padded with whitespace the reader trims.
        for bad in ["quantum", " simd", "lsh", "lsh:bits=8,tables=4", "lsh:bits"] {
            let message = removed_backend(Some(bad)).expect(bad);
            assert!(
                message.contains(bad.trim()) && message.contains("serving exact"),
                "{message}"
            );
        }
    }
}
