//! Symmetric per-row int8 quantization of the scoring heads.
//!
//! Each head row quantizes independently: `scale = max|v| / 127`,
//! `q = round(v / scale)` clamped to `[-127, 127]`. A pair dot becomes an
//! i32-accumulated integer dot scaled by the two row scales:
//!
//! `dot(u, v) ≈ scale_or[u] · scale_ee[v] · Σ_j q_or[u][j] · q_ee[v][j]`
//!
//! The scoring working set shrinks from `8·d` bytes per user (two f32
//! rows) to `2·d + 8` (two i8 rows + two scales) — ~4× for the dims the
//! trainer exports — and the i32 MAC loop vectorizes into wide integer
//! ops. Integer addition is associative, so the kernels are free to use
//! multiple accumulators without any determinism caveat.
//!
//! # Error envelope
//!
//! Quantization error is *measured at build time*, not assumed: each
//! row's exact L2 reconstruction error `‖v − q·scale‖₂` and quantized
//! norm are recorded, giving the rigorous dot bound
//!
//! `|dot_f32 − dot_int8| ≤ max_err_or · max‖v_ee‖ + max‖q̂_or‖ · max_err_ee`
//!
//! (Cauchy–Schwarz on `⟨a,b⟩ − ⟨â,b̂⟩ = ⟨a−â, b⟩ + ⟨â, b−b̂⟩`), plus a
//! `2·d·ε·max‖v_or‖·max‖v_ee‖` term covering the f32 rounding of the two
//! accumulation paths themselves (without it the bound holds only in real
//! arithmetic — a row set that quantizes *exactly* would claim a zero
//! bound yet still differ from the exact backend by ~1 ulp). The
//! calibrated sigmoid has slope at most `1/(4c)`, so the score-space
//! bound reported by [`ScoringBackend::score_error_bound`] is
//! `dot_bound / (4c) + 4ε`. `tests/backend_exactness.rs` checks the
//! measured max-abs score delta against this bound on random heads.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{banded_top_k, heap_push, Heads, Ranked, ScoringBackend};

/// One quantized head matrix plus its per-row bookkeeping.
#[derive(Debug, Clone, Default)]
struct QuantizedHead {
    /// `n_users × head_dim` row-major int8 codes.
    codes: Vec<i8>,
    /// Per-row dequantization scale (`0.0` for an all-zero row).
    scales: Vec<f32>,
    /// Per-row exact L2 reconstruction error `‖v − q·scale‖₂`.
    errs: Vec<f32>,
    /// Per-row L2 norm of the *original* f32 row.
    norms: Vec<f32>,
    /// Per-row L2 norm of the dequantized row `q·scale`.
    qnorms: Vec<f32>,
}

impl QuantizedHead {
    /// An all-zero head; [`Int8Backend::build`] quantizes every row in.
    fn zeros(n_users: usize, d: usize) -> QuantizedHead {
        QuantizedHead {
            codes: vec![0i8; n_users * d],
            scales: vec![0.0; n_users],
            errs: vec![0.0; n_users],
            norms: vec![0.0; n_users],
            qnorms: vec![0.0; n_users],
        }
    }

    /// (Re)quantizes one row, updating codes, scale, and error metadata.
    fn quantize_row(&mut self, row: &[f32], u: usize, d: usize) {
        let max_abs = row.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let scale = max_abs / 127.0;
        let codes = &mut self.codes[u * d..(u + 1) * d];
        let mut err_sq = 0.0f32;
        let mut norm_sq = 0.0f32;
        let mut qnorm_sq = 0.0f32;
        for (c, &v) in codes.iter_mut().zip(row) {
            let q = if scale > 0.0 {
                (v / scale).round().clamp(-127.0, 127.0) as i8
            } else {
                0
            };
            *c = q;
            let deq = f32::from(q) * scale;
            err_sq += (v - deq) * (v - deq);
            norm_sq += v * v;
            qnorm_sq += deq * deq;
        }
        self.scales[u] = scale;
        self.errs[u] = err_sq.sqrt();
        self.norms[u] = norm_sq.sqrt();
        self.qnorms[u] = qnorm_sq.sqrt();
    }
}

/// Per-row symmetric int8 quantized scoring.
#[derive(Debug, Clone)]
pub struct Int8Backend {
    trustor: QuantizedHead,
    trustee: QuantizedHead,
}

impl Int8Backend {
    /// Quantizes both head matrices.
    pub(crate) fn build(heads: &Heads) -> Int8Backend {
        let (n, d) = (heads.n(), heads.d());
        let mut backend = Int8Backend {
            trustor: QuantizedHead::zeros(n, d),
            trustee: QuantizedHead::zeros(n, d),
        };
        backend.quantize(heads, 0..n);
        backend
    }

    /// (Re)quantizes the rows of `users` in both heads.
    fn quantize(&mut self, heads: &Heads, users: impl IntoIterator<Item = usize>) {
        let d = heads.d();
        for u in users {
            self.trustor.quantize_row(heads.trustor_row(u), u, d);
            self.trustee.quantize_row(&heads.trustee.row(u), u, d);
        }
    }

    /// Rigorous bound on `|dot_f32 − dot_int8|` over every pair currently
    /// in the index (see module docs). Two terms: the measured
    /// quantization error (Cauchy–Schwarz), plus the f32 rounding of the
    /// two accumulation paths themselves — each path sums `d` products,
    /// so its rounding is bounded by `d·ε` of the dot's magnitude bound.
    /// Without the second term the bound is only valid in real
    /// arithmetic and is violated by rows that quantize exactly.
    pub fn dot_error_bound(&self) -> f32 {
        let max = |v: &[f32]| v.iter().fold(0.0f32, |m, &x| m.max(x));
        let quant = max(&self.trustor.errs) * max(&self.trustee.norms)
            + max(&self.trustor.qnorms) * max(&self.trustee.errs);
        let d = self
            .trustor
            .codes
            .len()
            .checked_div(self.trustor.scales.len())
            .unwrap_or(0);
        let magnitude = max(&self.trustor.norms) * max(&self.trustee.norms);
        quant + 2.0 * d as f32 * f32::EPSILON * magnitude
    }

    /// Integer dot of quantized rows `u` (trustor) and `v` (trustee),
    /// dequantized through both row scales.
    #[inline]
    fn qdot(&self, d: usize, u: usize, v: usize) -> f32 {
        let qa = &self.trustor.codes[u * d..(u + 1) * d];
        let qb = &self.trustee.codes[v * d..(v + 1) * d];
        let mut acc = 0i32;
        for (&a, &b) in qa.iter().zip(qb) {
            acc += i32::from(a) * i32::from(b);
        }
        (self.trustor.scales[u] * self.trustee.scales[v]) * acc as f32
    }

    /// Heap-tracked quantized scan over the candidate band `c0..c1`,
    /// scoring 4 candidates per block with independent i32 accumulators.
    fn band_top_k(&self, d: usize, trustor: usize, k: usize, c0: usize, c1: usize) -> Vec<Ranked> {
        const L: usize = 4;
        let qa = &self.trustor.codes[trustor * d..(trustor + 1) * d];
        let sa = self.trustor.scales[trustor];
        let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
        let mut c = c0;
        while c + L <= c1 {
            let mut acc = [0i32; L];
            for (j, &aj) in qa.iter().enumerate() {
                let a = i32::from(aj);
                for (l, slot) in acc.iter_mut().enumerate() {
                    *slot += a * i32::from(self.trustee.codes[(c + l) * d + j]);
                }
            }
            for (l, &accl) in acc.iter().enumerate() {
                if c + l != trustor {
                    let score = (sa * self.trustee.scales[c + l]) * accl as f32;
                    heap_push(&mut heap, k, score, c + l);
                }
            }
            c += L;
        }
        for candidate in c..c1 {
            if candidate != trustor {
                heap_push(&mut heap, k, self.qdot(d, trustor, candidate), candidate);
            }
        }
        heap.into_iter().map(|Reverse(r)| r).collect()
    }
}

impl ScoringBackend for Int8Backend {
    fn dot(&self, heads: &Heads, trustor: usize, trustee: usize) -> f32 {
        self.qdot(heads.d(), trustor, trustee)
    }

    fn top_k(&self, heads: &Heads, trustor: usize, k: usize) -> Vec<Ranked> {
        let d = heads.d();
        banded_top_k(heads, k, 0, heads.n(), "serve.topk.par_calls", |c0, c1| {
            self.band_top_k(d, trustor, k, c0, c1)
        })
    }

    fn on_patch(&mut self, heads: &Heads, users: &[usize]) {
        self.quantize(heads, users.iter().copied());
    }

    fn bytes_per_user(&self, heads: &Heads) -> usize {
        // Two i8 rows plus two f32 scales.
        2 * heads.d() + 2 * std::mem::size_of::<f32>()
    }

    fn score_error_bound(&self, calibration: f32) -> f32 {
        // σ(x/c) has slope ≤ 1/(4c); propagate the dot bound through it,
        // plus one ulp-scale term for evaluating the sigmoid itself.
        self.dot_error_bound() / (4.0 * calibration) + 4.0 * f32::EPSILON
    }

    fn approximate_top_k(&self) -> bool {
        // The candidate *ranking* is computed on quantized scores, so the
        // set can differ from the exact scan near the k-th boundary.
        true
    }
}
