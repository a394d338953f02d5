//! IVF-style coarse clustering for sublinear `/topk`.
//!
//! The trustee head rows are partitioned into `nlist` posting lists by a
//! deterministic k-means (Lloyd iterations, seeded from the artifact
//! fingerprint so every process building from the same artifact builds
//! the identical index). A `/topk` query scores the trustor row against
//! the `nlist` centroids — `O(nlist · d)` — and scans only the `nprobe`
//! most-promising lists' candidates with the exact f32 dot, instead of
//! all `n` rows. Pair scoring (`/score`) is always the exact dot, and the
//! probe scores each candidate with that same dot, reading the trustee
//! row by id through its panel — a strided read, where the exact scan
//! reads whole panels contiguously. Only the top-k *candidate set* is
//! approximate, with recall measured against the exact scan by
//! `backend_bench` and `tests/backend_exactness.rs`.
//!
//! Probing widens past `nprobe` until at least `k` candidates have been
//! seen, and the whole query falls back to the exact banded scan whenever
//! probing would touch no fewer rows than it (tiny indexes, huge `k`, or
//! `nprobe` close to `nlist`), so it never returns fewer candidates than
//! the exact scan would. Touching fewer rows is not the same as being
//! faster: `backend_bench` reports the speedup against `exact` as
//! measured.
//!
//! # Determinism
//!
//! Centroid seeding is an LCG over the fingerprint; Lloyd assignment is a
//! pure per-row function (parallelized over `ahntp-par` bands, banding
//! never changes any assignment) with ties toward the smaller centroid
//! id; centroid updates accumulate member rows in ascending user order;
//! posting lists are kept sorted by user id. Every step is a total order,
//! so the index — and every query — is bitwise reproducible at any
//! thread count.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ahntp_telemetry::counter_add;

use super::{exact_top_k_in, heap_push, Heads, IvfParams, Ranked, ScoringBackend};

/// Lloyd iterations at build time; fixed so builds are reproducible.
const KMEANS_ITERS: usize = 8;

/// Deterministic LCG step (same constants as the test suites').
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// IVF coarse index over the trustee head rows.
#[derive(Debug, Clone)]
pub struct IvfBackend {
    nlist: usize,
    nprobe: usize,
    /// `nlist × head_dim` row-major centroid matrix (not renormalized).
    centroids: Vec<f32>,
    /// Squared L2 norm per centroid, for the distance shortcut.
    centroid_norms: Vec<f32>,
    /// Posting list id per user.
    assign: Vec<usize>,
    /// Members per posting list, ascending user id.
    lists: Vec<Vec<usize>>,
}

impl IvfBackend {
    /// Builds the coarse index with deterministic k-means; `None` params
    /// resolve to `nlist = √n` (clamped to `[1, 1024]`) and
    /// `nprobe = max(1, nlist/4)`.
    pub(crate) fn build(heads: &Heads, fingerprint: u64, params: IvfParams) -> IvfBackend {
        let (n, d) = (heads.n(), heads.d());
        let default_nlist = ((n as f64).sqrt().round() as usize).clamp(1, 1024);
        let nlist = params.nlist.unwrap_or(default_nlist).clamp(1, n.max(1));
        let nprobe = params.nprobe.unwrap_or_else(|| (nlist / 4).max(1)).clamp(1, nlist);

        // Seed centroids from distinct rows picked by a fingerprint-seeded
        // LCG (salted so an untagged fingerprint of 0 still mixes).
        let mut rng = fingerprint ^ 0x41_48_4e_54_50_49_56_46; // "AHNTPIVF"
        let mut centroids = vec![0.0f32; nlist * d];
        if n > 0 {
            let mut picked = vec![false; n];
            for c in 0..nlist {
                let mut row = (lcg(&mut rng) as usize) % n;
                while picked[row] {
                    row = (row + 1) % n;
                }
                picked[row] = true;
                centroids[c * d..(c + 1) * d].copy_from_slice(&heads.trustee.row(row));
            }
        }

        let mut backend = IvfBackend {
            nlist,
            nprobe,
            centroids,
            centroid_norms: vec![0.0; nlist],
            assign: vec![0; n],
            lists: vec![Vec::new(); nlist],
        };
        backend.refresh_centroid_norms(d);

        for _ in 0..KMEANS_ITERS {
            backend.assign_all(heads);
            // Recompute centroids as member means, accumulating in
            // ascending user order; empty lists keep their centroid.
            let mut sums = vec![0.0f64; nlist * d];
            let mut counts = vec![0usize; nlist];
            for (u, &c) in backend.assign.iter().enumerate() {
                counts[c] += 1;
                let row = heads.trustee.row(u);
                for (s, &v) in sums[c * d..(c + 1) * d].iter_mut().zip(&row) {
                    *s += f64::from(v);
                }
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for (out, &s) in backend.centroids[c * d..(c + 1) * d]
                        .iter_mut()
                        .zip(&sums[c * d..(c + 1) * d])
                    {
                        *out = (s * inv) as f32;
                    }
                }
            }
            backend.refresh_centroid_norms(d);
        }
        backend.assign_all(heads);
        backend.rebuild_lists();
        backend
    }

    /// Effective posting-list count.
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// Lists probed per query before the widening rule kicks in.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    fn refresh_centroid_norms(&mut self, d: usize) {
        for c in 0..self.nlist {
            self.centroid_norms[c] = self.centroids[c * d..(c + 1) * d]
                .iter()
                .map(|v| v * v)
                .sum();
        }
    }

    /// Nearest centroid of one trustee row: minimal `‖x−c‖²`, which for a
    /// fixed row reduces to minimal `‖c‖² − 2⟨x,c⟩`. Strict `<` keeps the
    /// smallest centroid id on ties.
    fn nearest_centroid(&self, row: &[f32], d: usize) -> usize {
        let mut best = 0usize;
        let mut best_dist = f32::INFINITY;
        for c in 0..self.nlist {
            let dot: f32 = self.centroids[c * d..(c + 1) * d]
                .iter()
                .zip(row)
                .map(|(a, b)| a * b)
                .sum();
            let dist = self.centroid_norms[c] - 2.0 * dot;
            if dist < best_dist {
                best_dist = dist;
                best = c;
            }
        }
        best
    }

    /// Reassigns every user to its nearest centroid. The per-row decision
    /// is a pure function, so the `ahntp-par` banding is free.
    fn assign_all(&mut self, heads: &Heads) {
        let (n, d) = (heads.n(), heads.d());
        let me = &*self;
        let bands = ahntp_par::par_bands(
            n,
            n * self.nlist * d,
            "serve.ivf.assign.par_calls",
            |u0, u1| -> Vec<usize> {
                (u0..u1)
                    .map(|u| me.nearest_centroid(&heads.trustee.row(u), d))
                    .collect()
            },
        );
        self.assign = bands.into_iter().flatten().collect();
    }

    fn rebuild_lists(&mut self) {
        for list in &mut self.lists {
            list.clear();
        }
        for (u, &c) in self.assign.iter().enumerate() {
            self.lists[c].push(u); // ascending u by construction
        }
    }

    /// Whether probing is estimated to beat the exact banded scan for
    /// this query: centroid scan + expected probed candidates vs `n`.
    fn probing_pays_off(&self, n: usize, k: usize) -> bool {
        if k + 1 >= n || self.nlist < 2 || self.nprobe >= self.nlist {
            return false;
        }
        let avg_list = n.div_ceil(self.nlist);
        self.nlist + self.nprobe * avg_list < n
    }
}

impl ScoringBackend for IvfBackend {
    fn dot(&self, heads: &Heads, trustor: usize, trustee: usize) -> f32 {
        // Pair scoring is exact: IVF only accelerates candidate search.
        heads.dot(trustor, trustee)
    }

    fn top_k(&self, heads: &Heads, trustor: usize, k: usize) -> Vec<Ranked> {
        let (n, d) = (heads.n(), heads.d());
        if !self.probing_pays_off(n, k) {
            counter_add("serve.topk.ivf.fallback", 1);
            return exact_top_k_in(heads, trustor, k, 0, n, "serve.topk.par_calls");
        }
        counter_add("serve.topk.ivf.probed_queries", 1);
        // Rank centroids by affinity to the trustor row (dot desc, id asc
        // on ties) and probe lists in that order.
        let q = heads.trustor_row(trustor);
        let mut order: Vec<(f32, usize)> = (0..self.nlist)
            .map(|c| {
                let dot: f32 = self.centroids[c * d..(c + 1) * d]
                    .iter()
                    .zip(q)
                    .map(|(a, b)| a * b)
                    .sum();
                (dot, c)
            })
            .collect();
        order.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
        let mut seen = 0usize;
        let mut probed = 0usize;
        for &(_, c) in &order {
            if probed >= self.nprobe && seen >= k {
                break;
            }
            probed += 1;
            for &candidate in &self.lists[c] {
                if candidate == trustor {
                    continue;
                }
                seen += 1;
                heap_push(&mut heap, k, heads.trustee.dot(q, candidate), candidate);
            }
        }
        counter_add("serve.topk.ivf.probed_lists", probed as u64);
        heap.into_iter().map(|Reverse(r)| r).collect()
    }

    fn on_patch(&mut self, heads: &Heads, users: &[usize]) {
        // Centroids stay frozen (the standard IVF maintenance contract);
        // patched rows move between posting lists so they stay findable.
        let d = heads.d();
        for &u in users {
            let new = self.nearest_centroid(&heads.trustee.row(u), d);
            let old = self.assign[u];
            if new != old {
                let list = &mut self.lists[old];
                if let Ok(pos) = list.binary_search(&u) {
                    list.remove(pos);
                }
                let list = &mut self.lists[new];
                if let Err(pos) = list.binary_search(&u) {
                    list.insert(pos, u);
                }
                self.assign[u] = new;
            }
        }
        counter_add("serve.topk.ivf.reassigned", users.len() as u64);
    }

    fn bytes_per_user(&self, heads: &Heads) -> usize {
        let d = heads.d();
        let n = heads.n().max(1);
        // f32 heads plus the coarse index amortized across users.
        let index_bytes = self.centroids.len() * 4
            + self.centroid_norms.len() * 4
            + self.assign.len() * std::mem::size_of::<usize>()
            + self.lists.iter().map(|l| l.len() * std::mem::size_of::<usize>()).sum::<usize>();
        2 * d * std::mem::size_of::<f32>() + index_bytes.div_ceil(n)
    }

    fn score_error_bound(&self, _calibration: f32) -> f32 {
        0.0 // pair scoring is the exact dot
    }

    fn approximate_top_k(&self) -> bool {
        true
    }
}
