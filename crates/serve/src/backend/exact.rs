//! The reference backend: exact f32 dots and exhaustive candidate scans.
//!
//! A pair dot is one chain over the trustee row in element order; a
//! `/topk` scans every candidate a panel at a time, sixteen independent
//! accumulators per panel (see `panels.rs`). Both are bitwise the seed's
//! scalar dot, which `tests/backend_exactness.rs` keeps as the oracle.
//! Every other backend states its error envelope relative to this one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{banded_top_k, heap_push, Heads, Ranked, ScoringBackend};

/// Exhaustive exact f32 scoring (the reference semantics).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactBackend;

/// The exact top-`k` for `trustor` over the candidate id range `lo..hi`
/// (excluding `trustor`), banded over the `ahntp-par` pool. This is the
/// whole-index scan, the shard-local scan, the defended scan and ivf's
/// fallback alike, so merging per-shard results under the [`Ranked`]
/// total order reproduces the single-node scan bitwise.
pub(crate) fn top_k_in(
    heads: &Heads,
    trustor: usize,
    k: usize,
    lo: usize,
    hi: usize,
    par_counter: &str,
) -> Vec<Ranked> {
    let q = heads.trustor_row(trustor);
    banded_top_k(heads, k, lo, hi, par_counter, |c0, c1| {
        let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
        heads.trustee.scan(q, c0, c1, |v, score| {
            if v != trustor {
                heap_push(&mut heap, k, score, v);
            }
        });
        heap.into_iter().map(|Reverse(r)| r).collect()
    })
}

impl ScoringBackend for ExactBackend {
    fn dot(&self, heads: &Heads, trustor: usize, trustee: usize) -> f32 {
        heads.dot(trustor, trustee)
    }

    fn top_k(&self, heads: &Heads, trustor: usize, k: usize) -> Vec<Ranked> {
        top_k_in(heads, trustor, k, 0, heads.n(), "serve.topk.par_calls")
    }

    fn on_patch(&mut self, _heads: &Heads, _users: &[usize]) {}

    fn bytes_per_user(&self, heads: &Heads) -> usize {
        // Two f32 head rows per user, each held once.
        2 * heads.d() * std::mem::size_of::<f32>()
    }

    fn score_error_bound(&self, _calibration: f32) -> f32 {
        0.0
    }

    fn approximate_top_k(&self) -> bool {
        false
    }
}
