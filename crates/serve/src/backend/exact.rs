//! The exhaustive candidate scan.
//!
//! A `/topk` scans every candidate a panel at a time, sixteen independent
//! accumulators per panel (see `panels.rs`), each summing its own dot in
//! scalar element order, so every score is bitwise the seed's scalar dot,
//! which `tests/backend_exactness.rs` keeps as the oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{Heads, Ranked};

/// Pushes a candidate through the bounded-heap top-k discipline: keep the
/// `k` largest under the [`Ranked`] total order.
#[inline]
fn heap_push(heap: &mut BinaryHeap<Reverse<Ranked>>, k: usize, score: f32, user: usize) {
    if heap.len() < k {
        heap.push(Reverse(Ranked { score, user }));
    } else if let Some(worst) = heap.peek() {
        if (Ranked { score, user }) > worst.0 {
            heap.pop();
            heap.push(Reverse(Ranked { score, user }));
        }
    }
}

/// The exact top-`k` for `trustor` over the candidate id range `lo..hi`
/// (excluding `trustor`), as raw-dot [`Ranked`] entries in no particular
/// order. This is the whole-index scan, the shard-local scan and the
/// defended scan alike.
///
/// The range is split into `ahntp-par` row bands, each keeping `k`
/// candidates, and the global top `k` is selected from the union.
/// Candidate ids stay **global** throughout, so a shard's scatter-gather
/// merge never translates ids. The union is a superset of the serial
/// scan's survivors and [`Ranked`] never ties across distinct users, so
/// the selection equals the serial candidate set bitwise — at any thread
/// count and any band placement — and merging per-shard results under the
/// same order reproduces the single-node scan.
pub(crate) fn top_k_in(
    heads: &Heads,
    trustor: usize,
    k: usize,
    lo: usize,
    hi: usize,
    par_counter: &str,
) -> Vec<Ranked> {
    let q = heads.trustor_row(trustor);
    let n = hi.saturating_sub(lo);
    let mut bands = ahntp_par::par_bands(n, 2 * n * heads.d(), par_counter, |b0, b1| {
        let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
        heads.trustee.scan(q, lo + b0, lo + b1, |v, score| {
            if v != trustor {
                heap_push(&mut heap, k, score, v);
            }
        });
        heap.into_iter().map(|Reverse(r)| r).collect::<Vec<_>>()
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
