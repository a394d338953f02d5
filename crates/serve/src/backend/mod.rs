//! Pluggable scoring backends for [`crate::TrustIndex`].
//!
//! The serving hot path is one prenormalized dot product per candidate;
//! how that dot (and the `/topk` candidate scan around it) is computed is
//! a [`ScoringBackend`] decision:
//!
//! * [`exact`](ExactBackend) — the reference: scalar f32 dots, full
//!   candidate scans. Every other backend's envelope is stated against
//!   this one.
//! * [`simd`](SimdBackend) — the same arithmetic restructured for the
//!   hardware: candidates/pairs are processed in blocks of 4–8 with one
//!   independent accumulator chain per lane (runtime-dispatched width),
//!   so the compiler keeps several fused multiply-add chains in flight
//!   instead of serializing on one. Each lane accumulates its dot in the
//!   exact scalar element order, so results are **bitwise identical** to
//!   `exact` — this backend buys instruction-level parallelism, not a
//!   different rounding.
//! * [`int8`](Int8Backend) — symmetric per-row int8 quantization of both
//!   head matrices (scale vector + i32-accumulated integer dot), cutting
//!   the scoring working set ~4×. The quantization error is *measured at
//!   build time* and surfaced as a rigorous max-abs score bound
//!   ([`ScoringBackend::score_error_bound`]).
//! * [`ivf`](IvfBackend) — an IVF-style coarse index over the trustee
//!   head rows (deterministic k-means seeded from the artifact
//!   fingerprint): `/topk` probes the `nprobe` most-promising centroids'
//!   posting lists instead of scanning all `n` users, falling back to the
//!   exact scan whenever probing would not be cheaper. Pair scoring stays
//!   exact f32; only the top-k *candidate set* is approximate, with
//!   recall@10 ≥ 0.95 gated by `tests/backend_exactness.rs`
//!   (`ivf_recall_at_10_is_at_least_095_on_a_seeded_clustered_model`).
//!
//! Determinism per backend is preserved: each backend is a pure function
//! of the artifact (and its own fixed parameters), candidate scans reuse
//! the `ahntp-par` row-band discipline with banding-invariant per-element
//! arithmetic, and all tie-breaks are total orders — so any backend's
//! output is bitwise identical at every thread count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ahntp_nn::TrustArtifact;

mod exact;
mod int8;
mod ivf;
mod simd;

pub use exact::ExactBackend;
pub use int8::Int8Backend;
pub use ivf::IvfBackend;
pub use simd::SimdBackend;

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

/// Parameters for the [`IvfBackend`]; `None` fields are resolved from the
/// index size at build time (`nlist ≈ √n`, `nprobe ≈ nlist/4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IvfParams {
    /// Number of coarse centroids (posting lists).
    pub nlist: Option<usize>,
    /// How many posting lists a `/topk` query probes.
    pub nprobe: Option<usize>,
}

/// Which scoring backend a [`crate::TrustIndex`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Reference scalar f32 path.
    #[default]
    Exact,
    /// Lane-unrolled kernels, bitwise-equal to [`BackendKind::Exact`].
    Simd,
    /// Per-row symmetric int8 quantization with a measured error bound.
    Int8,
    /// IVF coarse clustering for sublinear `/topk`.
    Ivf(IvfParams),
}

impl BackendKind {
    /// Stable lowercase name (wire format of `AHNTP_BACKEND`, response
    /// `backend` fields, and the `X-Ahntp-Backend` header).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Exact => "exact",
            BackendKind::Simd => "simd",
            BackendKind::Int8 => "int8",
            BackendKind::Ivf(_) => "ivf",
        }
    }

    /// Parses a backend spec: `exact`, `simd`, `int8`, `ivf`, or
    /// `ivf:nlist=<n>,nprobe=<n>` (either key optional).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown backend or malformed option.
    pub fn parse(spec: &str) -> Result<BackendKind, String> {
        let spec = spec.trim();
        match spec {
            "" | "exact" => return Ok(BackendKind::Exact),
            "simd" => return Ok(BackendKind::Simd),
            "int8" => return Ok(BackendKind::Int8),
            "ivf" => return Ok(BackendKind::Ivf(IvfParams::default())),
            _ => {}
        }
        if let Some(opts) = spec.strip_prefix("ivf:") {
            let mut params = IvfParams::default();
            for opt in opts.split(',').filter(|o| !o.trim().is_empty()) {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("ivf option {opt:?} is not key=value"))?;
                let parsed: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("ivf option {opt:?} is not a number"))?;
                if parsed == 0 {
                    return Err(format!("ivf option {opt:?} must be positive"));
                }
                match key.trim() {
                    "nlist" => params.nlist = Some(parsed),
                    "nprobe" => params.nprobe = Some(parsed),
                    other => return Err(format!("unknown ivf option {other:?}")),
                }
            }
            return Ok(BackendKind::Ivf(params));
        }
        Err(format!(
            "unknown backend {spec:?} (known: exact, simd, int8, ivf[:nlist=..,nprobe=..])"
        ))
    }

    /// Reads `AHNTP_BACKEND` from the environment; unset or empty means
    /// [`BackendKind::Exact`]. A malformed value falls back to `exact`
    /// *with a warning* through the telemetry logger, matching the
    /// `Scale::from_env` idiom: a typo'd backend shows up in stderr
    /// instead of silently serving the default.
    pub fn from_env() -> BackendKind {
        match std::env::var("AHNTP_BACKEND") {
            Ok(spec) => match BackendKind::parse(&spec) {
                Ok(kind) => kind,
                Err(e) => {
                    ahntp_telemetry::warn!(
                        "serve",
                        "AHNTP_BACKEND={spec:?} invalid ({e}); using exact"
                    );
                    BackendKind::Exact
                }
            },
            Err(_) => BackendKind::Exact,
        }
    }

    /// Builds the backend's derived state from a validated artifact.
    pub(crate) fn build(self, artifact: &TrustArtifact) -> Box<dyn ScoringBackend> {
        match self {
            BackendKind::Exact => Box::new(ExactBackend),
            BackendKind::Simd => Box::new(SimdBackend::build(artifact)),
            BackendKind::Int8 => Box::new(Int8Backend::build(artifact)),
            BackendKind::Ivf(params) => Box::new(IvfBackend::build(artifact, params)),
        }
    }
}

/// The scoring strategy behind a [`crate::TrustIndex`].
///
/// Implementations compute *raw dots* — the calibrated sigmoid and the
/// final (probability desc, user id asc) output ordering live in
/// `TrustIndex`, so every backend shares one well-defined tie-break.
/// `top_k` returns the best-`k` candidate set in no particular order.
pub(crate) trait ScoringBackend: std::fmt::Debug + Send + Sync {
    /// Raw (possibly approximated) head dot for one pair.
    fn dot(&self, artifact: &TrustArtifact, trustor: usize, trustee: usize) -> f32;

    /// Raw dots for a batch of pairs, written to `out` (same length).
    /// Called per `ahntp-par` band; per-pair arithmetic must not depend
    /// on the banding.
    fn dot_batch(&self, artifact: &TrustArtifact, pairs: &[(usize, usize)], out: &mut [f32]);

    /// The best-`k` candidates for `trustor` (excluding `trustor`), as
    /// raw-dot [`Ranked`] entries in no particular order.
    fn top_k(&self, artifact: &TrustArtifact, trustor: usize, k: usize) -> Vec<Ranked>;

    /// Refreshes derived state after the artifact rows for `users` were
    /// patched in place (live-trust head patches).
    fn on_patch(&mut self, artifact: &TrustArtifact, users: &[usize]);

    /// Bytes of scoring-path state per user (head matrices plus any
    /// derived structures; the raw f32 artifact is excluded for
    /// compressed backends).
    fn bytes_per_user(&self, artifact: &TrustArtifact) -> usize;

    /// Rigorous bound on `|score_backend − score_exact|` for pair
    /// scoring, in probability units. `0.0` for backends whose pair dot
    /// is exact.
    fn score_error_bound(&self, artifact: &TrustArtifact) -> f32;

    /// Whether `top_k` may return a candidate set different from the
    /// exact scan (recall < 1). `false` means top-k is exhaustive.
    fn approximate_top_k(&self) -> bool;
}

/// Scalar reference dot: the exact element order every backend's
/// per-lane accumulation must reproduce to claim bitwise equality.
#[inline]
pub(crate) fn scalar_dot(artifact: &TrustArtifact, trustor: usize, trustee: usize) -> f32 {
    let d = artifact.head_dim;
    artifact.trustor_head[trustor * d..(trustor + 1) * d]
        .iter()
        .zip(&artifact.trustee_head[trustee * d..(trustee + 1) * d])
        .map(|(a, b)| a * b)
        .sum()
}

/// Pushes a candidate through the bounded-heap top-k discipline shared by
/// every scanning backend: keep the `k` largest under the [`Ranked`]
/// total order.
#[inline]
pub(crate) fn heap_push(heap: &mut BinaryHeap<Reverse<Ranked>>, k: usize, score: f32, user: usize) {
    if heap.len() < k {
        heap.push(Reverse(Ranked { score, user }));
    } else if let Some(worst) = heap.peek() {
        if (Ranked { score, user }) > worst.0 {
            heap.pop();
            heap.push(Reverse(Ranked { score, user }));
        }
    }
}

/// The shared banded candidate scan: splits `0..n` into `ahntp-par` row
/// bands, keeps `k` per band via `band_fn`, and selects the global top
/// `k` from the union. The union is a superset of the serial scan's
/// survivors and [`Ranked`] never ties across distinct users, so the
/// selection equals the serial candidate set bitwise — at any thread
/// count.
pub(crate) fn banded_top_k<F>(
    artifact: &TrustArtifact,
    k: usize,
    par_counter: &str,
    band_fn: F,
) -> Vec<Ranked>
where
    F: Fn(usize, usize) -> Vec<Ranked> + Sync,
{
    banded_range_top_k(artifact, k, 0, artifact.n_users, par_counter, band_fn)
}

/// [`banded_top_k`] over the candidate id sub-range `lo..hi` — the
/// shard-local scan. Candidate ids stay **global** throughout: bands are
/// offset by `lo`, `band_fn` receives absolute `(c0, c1)` bounds, and the
/// returned [`Ranked`] entries carry absolute user ids, so a scatter-
/// gather merge never translates ids. Per-candidate arithmetic is
/// banding-invariant, so the range result is bitwise identical at any
/// thread count and any band placement.
pub(crate) fn banded_range_top_k<F>(
    artifact: &TrustArtifact,
    k: usize,
    lo: usize,
    hi: usize,
    par_counter: &str,
    band_fn: F,
) -> Vec<Ranked>
where
    F: Fn(usize, usize) -> Vec<Ranked> + Sync,
{
    let n = hi.saturating_sub(lo);
    let mut bands = ahntp_par::par_bands(n, 2 * n * artifact.head_dim, par_counter, |b0, b1| {
        band_fn(lo + b0, lo + b1)
    })
    .into_iter();
    // `k` per band is a superset of the global top `k`; only a union that
    // overflows `k` (never the one-band serial scan, whose vector is
    // returned as is) needs selecting.
    let mut merged = bands.next().expect("par_bands yields at least one band");
    merged.extend(bands.flatten());
    if merged.len() > k {
        merged.sort_by(|a, b| b.cmp(a));
        merged.truncate(k);
    }
    merged
}

/// Exact scalar top-k over the candidate id range `lo..hi` (excluding
/// `trustor`). This is the shard-local `/topk` scan: it always runs the
/// reference scalar arithmetic *regardless of the index's configured
/// backend*, so merging per-shard results under the [`Ranked`] total
/// order reproduces the single-node exact scan bitwise — the invariant
/// the shard-exactness tier asserts.
pub(crate) fn exact_top_k_in(
    artifact: &TrustArtifact,
    trustor: usize,
    k: usize,
    lo: usize,
    hi: usize,
) -> Vec<Ranked> {
    banded_range_top_k(artifact, k, lo, hi, "serve.topk.range.par_calls", |c0, c1| {
        exact::scalar_band_top_k(artifact, trustor, k, c0, c1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_specs_parse_and_name_round_trip() {
        assert_eq!(BackendKind::parse("exact").unwrap(), BackendKind::Exact);
        assert_eq!(BackendKind::parse("").unwrap(), BackendKind::Exact);
        assert_eq!(BackendKind::parse("simd").unwrap(), BackendKind::Simd);
        assert_eq!(BackendKind::parse("int8").unwrap(), BackendKind::Int8);
        assert_eq!(
            BackendKind::parse("ivf").unwrap(),
            BackendKind::Ivf(IvfParams::default())
        );
        assert_eq!(
            BackendKind::parse("ivf:nlist=32,nprobe=8").unwrap(),
            BackendKind::Ivf(IvfParams { nlist: Some(32), nprobe: Some(8) })
        );
        assert_eq!(
            BackendKind::parse(" ivf:nprobe=3 ").unwrap(),
            BackendKind::Ivf(IvfParams { nlist: None, nprobe: Some(3) })
        );
        for kind in [
            BackendKind::Exact,
            BackendKind::Simd,
            BackendKind::Int8,
            BackendKind::Ivf(IvfParams::default()),
        ] {
            assert_eq!(BackendKind::parse(kind.name()).unwrap().name(), kind.name());
        }
    }

    #[test]
    fn malformed_backend_specs_are_typed_errors() {
        for bad in ["quantum", "ivf:nlist=zero", "ivf:nlist=0", "ivf:depth=3", "ivf:nlist"] {
            let err = BackendKind::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad}: {err}");
        }
    }
}
