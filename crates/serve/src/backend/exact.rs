//! The bound-pruned candidate walk.
//!
//! A `/topk` walks the trustee head's groups in descending bound (see
//! `panels.rs`), scoring each group's in-range slots a panel at a time,
//! sixteen independent accumulators per panel, each summing its own dot
//! in scalar element order, so every score is bitwise the seed's scalar
//! dot, which `tests/backend_exactness.rs` keeps as the oracle. It stops
//! at the first group whose bound proves no row of it, or of any group
//! after it, can enter the heap; an ungrouped head is one group, scored
//! whole.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ahntp_telemetry::counter_add;

use super::{Heads, Ranked};

/// The exact top-`k` for `trustor` over the candidate id range `lo..hi`
/// (`lo < hi ≤ n`, excluding `trustor`), as raw-dot [`Ranked`] entries in
/// no particular order. This is the whole-index scan, the shard-local
/// scan and the defended scan alike; `k` is clamped to the candidate
/// count before anything is allocated for it.
///
/// Candidate ids stay **global** throughout, so a shard's scatter-gather
/// merge never translates ids. The heap keeps the `k` largest under
/// [`Ranked`]'s total order whatever order the groups feed it in, and
/// the walk skips only rows that could not enter it (`panels.rs`), so the
/// result is the exhaustive scan's, bitwise, and merging per-shard
/// results under the same order reproduces the single-node scan. A scan
/// that keeps the whole range (the defended one) never fills its heap
/// before its last candidate, so it scores every group.
pub(crate) fn top_k_in(
    heads: &Heads,
    trustor: usize,
    k: usize,
    lo: usize,
    hi: usize,
) -> Vec<Ranked> {
    let candidates = hi - lo - usize::from((lo..hi).contains(&trustor));
    let k = k.min(candidates);
    if k == 0 {
        return Vec::new();
    }
    let panels = &heads.trustee;
    let q = heads.trustor_row(trustor);
    let plan = panels.plan(q);
    let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
    // The heap's `k`-th score once it is full: a candidate scoring below
    // it cannot enter, so only one at or above it is mapped to its user
    // and ranked.
    let mut floor = f32::NEG_INFINITY;
    let full = |heap: &BinaryHeap<Reverse<Ranked>>| heap.len() == k;
    let skip = panels.slot(trustor);
    let mut scanned = 0;
    for &(bound, g) in &plan.order {
        if full(&heap) && bound + plan.slack < f64::from(floor) {
            break;
        }
        let (s0, s1) = panels.group_slots(g, lo, hi);
        scanned += s1 - s0;
        panels.scan(q, s0, s1, |s, score| {
            if s == skip || (full(&heap) && score.total_cmp(&floor).is_lt()) {
                return;
            }
            let entry = Ranked {
                score,
                user: panels.user(s),
            };
            if !full(&heap) {
                heap.push(Reverse(entry));
            } else if heap.peek().is_some_and(|worst| entry > worst.0) {
                heap.pop();
                heap.push(Reverse(entry));
            }
            if full(&heap) {
                floor = heap.peek().map_or(floor, |worst| worst.0.score);
            }
        });
    }
    counter_add("serve.topk.scanned", scanned as u64);
    heap.into_iter().map(|Reverse(r)| r).collect()
}
