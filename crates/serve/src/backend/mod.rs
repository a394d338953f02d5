//! Pluggable scoring backends for [`crate::TrustIndex`].
//!
//! The serving hot path is one prenormalized dot product per candidate;
//! how that dot (and the `/topk` candidate scan around it) is computed is
//! a [`ScoringBackend`] decision, made over one scoring state, [`Heads`]:
//! the trustor head row-major and the trustee head in 16-user panels
//! (module `panels`), each held once.
//!
//! * [`exact`](ExactBackend) — the reference: exhaustive scans of the
//!   panels with one independent accumulator per candidate, each summing
//!   in scalar element order, so every score is **bitwise** the seed's
//!   scalar dot (kept as the oracle in `tests/backend_exactness.rs`).
//!   Every other backend's envelope is stated against this one.
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
//! of the heads (and its own fixed parameters), candidate scans reuse
//! the `ahntp-par` row-band discipline with banding-invariant per-element
//! arithmetic, and all tie-breaks are total orders — so any backend's
//! output is bitwise identical at every thread count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ahntp_nn::Rows;

mod exact;
mod int8;
mod ivf;
mod panels;

pub(crate) use exact::top_k_in as exact_top_k_in;
pub use exact::ExactBackend;
pub use int8::Int8Backend;
pub use ivf::IvfBackend;
pub(crate) use panels::Panels;

/// The scoring state every backend reads: the trustor head row-major
/// (a zero-copy view while the artifact is mapped and unpatched) and the
/// trustee head as [`Panels`].
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
    /// Exhaustive f32 scans, bitwise the scalar reference.
    #[default]
    Exact,
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
            BackendKind::Int8 => "int8",
            BackendKind::Ivf(_) => "ivf",
        }
    }

    /// Parses a backend spec: `exact`, `int8`, `ivf`, or
    /// `ivf:nlist=<n>,nprobe=<n>` (either key optional).
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown backend or malformed option.
    pub fn parse(spec: &str) -> Result<BackendKind, String> {
        let spec = spec.trim();
        match spec {
            "" | "exact" => return Ok(BackendKind::Exact),
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
            "unknown backend {spec:?} (known: exact, int8, ivf[:nlist=..,nprobe=..])"
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

    /// Builds the backend's derived state from the heads; `fingerprint`
    /// (the artifact's) seeds ivf's k-means.
    pub(crate) fn build(self, heads: &Heads, fingerprint: u64) -> Box<dyn ScoringBackend> {
        match self {
            BackendKind::Exact => Box::new(ExactBackend),
            BackendKind::Int8 => Box::new(Int8Backend::build(heads)),
            BackendKind::Ivf(params) => Box::new(IvfBackend::build(heads, fingerprint, params)),
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
    fn dot(&self, heads: &Heads, trustor: usize, trustee: usize) -> f32;

    /// Raw dots for a batch of pairs, written to `out` (same length).
    /// Called per `ahntp-par` band; per-pair arithmetic must not depend
    /// on the banding.
    fn dot_batch(&self, heads: &Heads, pairs: &[(usize, usize)], out: &mut [f32]) {
        for (&(u, v), o) in pairs.iter().zip(out) {
            *o = self.dot(heads, u, v);
        }
    }

    /// The best-`k` candidates for `trustor` (excluding `trustor`), as
    /// raw-dot [`Ranked`] entries in no particular order.
    fn top_k(&self, heads: &Heads, trustor: usize, k: usize) -> Vec<Ranked>;

    /// Refreshes derived state after the head rows for `users` were
    /// patched in place (live-trust head patches).
    fn on_patch(&mut self, heads: &Heads, users: &[usize]);

    /// Bytes of scoring-path state per user (head matrices plus any
    /// derived structures; the f32 heads are excluded for compressed
    /// backends).
    fn bytes_per_user(&self, heads: &Heads) -> usize;

    /// Rigorous bound on `|score_backend − score_exact|` for pair
    /// scoring, in probability units, under `calibration`. `0.0` for
    /// backends whose pair dot is exact.
    fn score_error_bound(&self, calibration: f32) -> f32;

    /// Whether `top_k` may return a candidate set different from the
    /// exact scan (recall < 1). `false` means top-k is exhaustive.
    fn approximate_top_k(&self) -> bool;
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

/// The shared banded candidate scan over the candidate id range
/// `lo..hi`: splits it into `ahntp-par` row bands, keeps `k` per band via
/// `band_fn`, and selects the global top `k` from the union. Candidate
/// ids stay **global** throughout: `band_fn` receives absolute `(c0, c1)`
/// bounds and returns absolute user ids, so a shard's scatter-gather
/// merge never translates ids. The union is a superset of the serial
/// scan's survivors and [`Ranked`] never ties across distinct users, so
/// the selection equals the serial candidate set bitwise — at any thread
/// count and any band placement.
pub(crate) fn banded_top_k<F>(
    heads: &Heads,
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
    let mut bands = ahntp_par::par_bands(n, 2 * n * heads.d(), par_counter, |b0, b1| {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_specs_parse_and_name_round_trip() {
        assert_eq!(BackendKind::parse("exact").unwrap(), BackendKind::Exact);
        assert_eq!(BackendKind::parse("").unwrap(), BackendKind::Exact);
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
            BackendKind::Int8,
            BackendKind::Ivf(IvfParams::default()),
        ] {
            assert_eq!(BackendKind::parse(kind.name()).unwrap().name(), kind.name());
        }
    }

    #[test]
    fn malformed_backend_specs_are_typed_errors() {
        // " simd": the retired backend, padded with whitespace `parse` trims.
        for bad in [
            "quantum",
            " simd",
            "ivf:nlist=zero",
            "ivf:nlist=0",
            "ivf:depth=3",
            "ivf:nlist",
        ] {
            let err = BackendKind::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad}: {err}");
        }
    }
}
