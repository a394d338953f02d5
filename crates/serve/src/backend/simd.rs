//! Lane-unrolled scoring kernels, bitwise-equal to the exact backend.
//!
//! The scalar hot loop is one dot product with a single accumulator — a
//! serial dependency chain of `d` multiply-adds per candidate, so the CPU
//! spends most of each scan waiting on add latency. These kernels
//! restructure the work *across* pairs/candidates with **one independent
//! accumulator per lane**, while each lane still accumulates its dot in
//! the exact scalar element order `j = 0..d`:
//!
//! * `dot_batch` scores 4 or 8 pairs per block, keeping that many
//!   multiply-add chains in flight (the pairs address arbitrary rows, so
//!   the loads are scattered either way — the unroll mines pure ILP).
//! * `top_k` scans candidates through a **transposed copy of the trustee
//!   head** kept by the backend: for a fixed element `j`, the values
//!   `tee[c][j], tee[c+1][j], …` are contiguous, so a block of 64
//!   candidate accumulators advances with one broadcast of the query
//!   element and contiguous vector loads — no strided gathers. The
//!   transposed copy costs `d` extra f32 per user and is re-derived for
//!   patched rows on live updates.
//!
//! That ordering is the whole contract: restructuring *across* candidates
//! instead of *within* a dot means no float operation is reassociated, so
//! every score is bitwise identical to [`super::ExactBackend`] — the
//! proptest sweep in `tests/backend_exactness.rs` and the CI backend
//! matrix hold this at thread counts 1 and 4.
//!
//! # Runtime dispatch
//!
//! The `dot_batch` lane width is picked once per backend instance: 8 when
//! the host advertises AVX2 (x86-64), else 4. Both widths produce
//! identical bits, so dispatch never affects results, only throughput.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ahntp_nn::TrustArtifact;

use super::{banded_top_k, heap_push, scalar_dot, Ranked, ScoringBackend};

/// Candidate block width of the transposed top-k scan: large enough that
/// each query-element broadcast amortises over several vector registers,
/// small enough that the accumulator block stays in registers/L1.
const TOPK_BLOCK: usize = 64;

/// Picks the unroll width for this host (see module docs).
fn detect_lanes() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return 8;
        }
    }
    4
}

/// Lane-unrolled kernels; bitwise-equal to [`super::ExactBackend`].
#[derive(Debug, Clone)]
pub struct SimdBackend {
    lanes: usize,
    /// Transposed trustee head, `head_dim × n_users` row-major:
    /// `tee_t[j * n + v] == trustee_head[v * d + j]`.
    tee_t: Vec<f32>,
}

impl SimdBackend {
    /// Builds the backend: dispatches the lane width and lays out the
    /// transposed trustee head for the candidate-contiguous top-k scan.
    pub fn build(artifact: &TrustArtifact) -> SimdBackend {
        let (n, d) = (artifact.n_users, artifact.head_dim);
        let mut tee_t = vec![0.0f32; n * d];
        for v in 0..n {
            for j in 0..d {
                tee_t[j * n + v] = artifact.trustee_head[v * d + j];
            }
        }
        SimdBackend { lanes: detect_lanes(), tee_t }
    }

    /// The dispatched `dot_batch` unroll width (4 or 8).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Transposed blocked scan over the candidate band `c0..c1`: a block
    /// of [`TOPK_BLOCK`] accumulators advances one query element at a
    /// time over contiguous columns, each accumulator summing in exact
    /// scalar order `j = 0..d`.
    fn band_top_k(
        &self,
        artifact: &TrustArtifact,
        trustor: usize,
        k: usize,
        c0: usize,
        c1: usize,
    ) -> Vec<Ranked> {
        const B: usize = TOPK_BLOCK;
        let (n, d) = (artifact.n_users, artifact.head_dim);
        let q = &artifact.trustor_head[trustor * d..(trustor + 1) * d];
        let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
        let mut c = c0;
        while c + B <= c1 {
            let mut acc = [0.0f32; B];
            for (j, &qj) in q.iter().enumerate() {
                let col = &self.tee_t[j * n + c..j * n + c + B];
                for l in 0..B {
                    acc[l] += qj * col[l];
                }
            }
            for (l, &score) in acc.iter().enumerate() {
                if c + l != trustor {
                    heap_push(&mut heap, k, score, c + l);
                }
            }
            c += B;
        }
        for candidate in c..c1 {
            if candidate != trustor {
                heap_push(&mut heap, k, scalar_dot(artifact, trustor, candidate), candidate);
            }
        }
        heap.into_iter().map(|Reverse(r)| r).collect()
    }
}

/// `L` independent dots in one pass: lane `l` accumulates
/// `Σ_j tor[a0[l] + j] · tee[b0[l] + j]` in scalar element order.
#[inline]
fn dot_block<const L: usize>(tor: &[f32], tee: &[f32], d: usize, a0: [usize; L], b0: [usize; L]) -> [f32; L] {
    // Pre-slice each lane's row to exactly `d` elements so the inner
    // loop's bounds checks hoist out; raw `tor[a0[l] + j]` indexing
    // re-checks against the whole head matrix on every access and
    // defeats the optimizer.
    let ra: [&[f32]; L] = std::array::from_fn(|l| &tor[a0[l]..a0[l] + d]);
    let rb: [&[f32]; L] = std::array::from_fn(|l| &tee[b0[l]..b0[l] + d]);
    let mut acc = [0.0f32; L];
    for j in 0..d {
        for l in 0..L {
            acc[l] += ra[l][j] * rb[l][j];
        }
    }
    acc
}

/// Batch dots with an `L`-pair unroll; the remainder runs the scalar
/// kernel, which matches the per-lane accumulation exactly.
fn dot_batch_unrolled<const L: usize>(
    artifact: &TrustArtifact,
    pairs: &[(usize, usize)],
    out: &mut [f32],
) {
    let d = artifact.head_dim;
    let (tor, tee) = (&artifact.trustor_head[..], &artifact.trustee_head[..]);
    let mut i = 0;
    while i + L <= pairs.len() {
        let mut a0 = [0usize; L];
        let mut b0 = [0usize; L];
        for l in 0..L {
            a0[l] = pairs[i + l].0 * d;
            b0[l] = pairs[i + l].1 * d;
        }
        let acc = dot_block::<L>(tor, tee, d, a0, b0);
        out[i..i + L].copy_from_slice(&acc);
        i += L;
    }
    for (&(u, v), o) in pairs[i..].iter().zip(&mut out[i..]) {
        *o = scalar_dot(artifact, u, v);
    }
}

impl ScoringBackend for SimdBackend {
    fn dot(&self, artifact: &TrustArtifact, trustor: usize, trustee: usize) -> f32 {
        // A single pair has no cross-pair parallelism to mine; the scalar
        // kernel is the per-lane arithmetic already.
        scalar_dot(artifact, trustor, trustee)
    }

    fn dot_batch(&self, artifact: &TrustArtifact, pairs: &[(usize, usize)], out: &mut [f32]) {
        match self.lanes {
            8 => dot_batch_unrolled::<8>(artifact, pairs, out),
            _ => dot_batch_unrolled::<4>(artifact, pairs, out),
        }
    }

    fn top_k(&self, artifact: &TrustArtifact, trustor: usize, k: usize) -> Vec<Ranked> {
        banded_top_k(artifact, k, "serve.topk.par_calls", |c0, c1| {
            self.band_top_k(artifact, trustor, k, c0, c1)
        })
    }

    fn on_patch(&mut self, artifact: &TrustArtifact, users: &[usize]) {
        let (n, d) = (artifact.n_users, artifact.head_dim);
        for &v in users {
            for j in 0..d {
                self.tee_t[j * n + v] = artifact.trustee_head[v * d + j];
            }
        }
    }

    fn bytes_per_user(&self, artifact: &TrustArtifact) -> usize {
        // Two f32 head rows plus the transposed trustee copy.
        3 * artifact.head_dim * std::mem::size_of::<f32>()
    }

    fn score_error_bound(&self, _artifact: &TrustArtifact) -> f32 {
        0.0
    }

    fn approximate_top_k(&self) -> bool {
        false
    }
}
