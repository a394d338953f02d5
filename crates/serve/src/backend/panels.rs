//! The trustee head, laid out for the candidate scan and grouped for the
//! bound-pruned walk.
//!
//! # Panels
//!
//! A `/topk` is one dot per candidate against a fixed query row. Scored
//! one candidate at a time that is a serial chain of `d` multiply-adds
//! per candidate, bound by add latency. [`Panels`] stores each block of
//! [`PANEL`] consecutive slots' rows transposed, as a `d × PANEL` panel:
//! for a fixed element `j` the block's values are contiguous, so the scan
//! keeps `PANEL` independent accumulators in flight, one per candidate,
//! and advances them with one broadcast of `q[j]` and contiguous loads.
//! Each accumulator still sums its own dot in element order
//! `j = 0..d` from the same start as `Iterator::sum`, so no float
//! operation is reassociated and every score is bitwise the seed's scalar
//! dot (`tests/backend_exactness.rs` keeps that loop as the oracle).
//!
//! The panels *are* the row-major matrix, re-laid in place: a block of
//! `PANEL` rows is already contiguous, so [`Panels::new`] copies each block
//! into one `PANEL × d` tile buffer and writes it back transposed over
//! itself. The `n mod PANEL` tail rows stay row-major. The index holds
//! the trustee head once, in this form, and nothing else: pair dots, the
//! scan and live patches go through the same type.
//!
//! # Groups
//!
//! Rows live in *slots*. Until [`Panels::group`] runs, slot `s` holds
//! user `s` and the whole head is one group. Grouping (on the first
//! `/topk`, see `index.rs`) splits the users into at most [`MAX_GROUPS`]
//! groups, one per [`USERS_PER_GROUP`] users, by a few rounds of
//! spherical k-means on an evenly strided sample, then assigns every row
//! once to its nearest centre by cosine (ties to the lowest group id);
//! both passes run through `ahntp-tensor`'s dense kernel a block of rows
//! at a time. Users are then permuted into slots so that each group is a
//! contiguous slot range and, within a group, slots ascend by user id;
//! two `u32` maps (user → slot, slot → user) locate rows. Each group
//! keeps its centre `c_g` (the mean of its rows) and radius
//! `r_g = max ‖v − c_g‖`, both in f64, and the head keeps `M = max ‖v‖`.
//! The permutation is made in place — panels back to row-major, rows moved
//! along the permutation's cycles, panels re-laid — so the head is never
//! held twice. Fewer than two groups (fewer than `2 · USERS_PER_GROUP`
//! users, or rows k-means cannot tell apart) leave the layout as it was.
//!
//! A live patch ([`Panels::set_row`]) moves a row within its slot and
//! grows its group's radius and `M` to cover it; they never shrink, so
//! every bound below stays an upper bound.
//!
//! # The bound
//!
//! For a row `v` of group `g` and a query `q`, Cauchy–Schwarz gives
//! `⟨q, v⟩ = ⟨q, c_g⟩ + ⟨q, v − c_g⟩ ≤ ⟨q, c_g⟩ + ‖q‖·r_g =: bound_g`.
//! The served score is not `⟨q, v⟩` but its f32 chain `s̃`, and the usual
//! error bound for a recursive sum of `d` products gives
//! `|s̃ − ⟨q, v⟩| ≤ γ_d·Σ|q_j v_j| ≤ γ_d·‖q‖·‖v‖ ≤ γ_d·‖q‖·M`, with
//! `γ_d = dε/(1 − dε)` and `ε = 2⁻²⁴`, plus at most `d·2⁻¹⁵⁰` more where
//! a product falls below the normal range. `bound_g`, `‖q‖`, `r_g` and `M`
//! are computed in f64, whose relative error (order `d·2⁻⁵³`) is far below
//! a second `γ_d·‖q‖·M`. So with
//! `δ = 2·γ_d·‖q‖·M + d·2⁻¹²⁶`, every row of the group has
//! `s̃ ≤ bound_g + δ` as computed. A walk over the groups in descending
//! bound that stops at the first group with `bound_g + δ < τ`, `τ` the
//! heap's `k`-th score, therefore stops only where every row left has
//! `s̃ < τ` *strictly*: none of them could enter the heap, not even by
//! winning the user-id tie-break at `τ`. The top-k heap keeps the `k`
//! largest under a total order whatever order it is fed in, so the walk's
//! answer is the exhaustive scan's, bitwise. When `‖q‖·M` is so large
//! that an f32 chain could overflow, `δ` is infinite and the walk scores
//! every group.

use ahntp_tensor::Tensor;

/// Users per panel. Sixteen accumulators are four SSE2 vectors, enough
/// to cover the add latency; eight leave the scan latency-bound, and
/// wider panels make the strided pair dot touch more cache lines.
const PANEL: usize = 16;

/// Users per group: a group is a couple of dozen panels, so a walk that
/// scores one pays little for its partly-covered edge panels.
const USERS_PER_GROUP: usize = 384;

/// Groups at most: the bounds of all of them are one `G × d` f64 pass
/// per query.
const MAX_GROUPS: usize = 64;

/// Sample rows per group for the k-means rounds.
const SAMPLE_PER_GROUP: usize = 16;

/// Spherical k-means rounds on the sample before every row is assigned.
const ROUNDS: usize = 3;

/// Rows per block through the dense kernel: a `BLOCK × G` score block,
/// never an `n × G` matrix.
const BLOCK: usize = 256;

/// Unit roundoff of f32 (round to nearest).
const EPS: f64 = 1.0 / (1u64 << 24) as f64;

/// An `n × d` head matrix stored as `d × PANEL` panels plus a row-major
/// tail, its rows permuted into groups (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Panels {
    n: usize,
    d: usize,
    data: Vec<f32>,
    /// User → slot; empty while the layout is the identity.
    slot_of: Vec<u32>,
    /// Slot → user; empty while the layout is the identity.
    user_of: Vec<u32>,
    /// Group `g` holds slots `starts[g]..starts[g + 1]`.
    starts: Vec<usize>,
    /// `G × d` group centres; empty below two groups.
    centres: Vec<f64>,
    /// Group radii; empty below two groups.
    radii: Vec<f64>,
    /// The largest row norm, once grouped into two or more groups.
    max_norm: f64,
    /// Whether [`Panels::group`] has run.
    grouped: bool,
}

/// The order a walk visits the groups in and when it may stop: see
/// [`Panels::plan`].
pub(crate) struct Plan {
    /// `(bound_g, g)`, descending bound, ties by ascending `g`.
    pub(crate) order: Vec<(f64, usize)>,
    /// `δ`: a group whose `bound_g + δ` is below the heap's `k`-th score
    /// holds no candidate that could enter it.
    pub(crate) slack: f64,
}

impl Panels {
    /// Re-lays the row-major `n × d` matrix `rows` in place, one group.
    pub(crate) fn new(mut rows: Vec<f32>, n: usize, d: usize) -> Panels {
        assert_eq!(rows.len(), n * d, "head matrix is not n × d");
        transpose_blocks(&mut rows, n, d, true);
        Panels {
            n,
            d,
            data: rows,
            slot_of: Vec::new(),
            user_of: Vec::new(),
            starts: vec![0, n],
            centres: Vec::new(),
            radii: Vec::new(),
            max_norm: 0.0,
            grouped: false,
        }
    }

    /// Number of rows (users).
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Row width (the head dimension).
    pub(crate) fn d(&self) -> usize {
        self.d
    }

    /// Whether [`Panels::group`] has run.
    pub(crate) fn is_grouped(&self) -> bool {
        self.grouped
    }

    /// The slot user `v` lives in.
    pub(crate) fn slot(&self, v: usize) -> usize {
        if self.slot_of.is_empty() {
            v
        } else {
            self.slot_of[v] as usize
        }
    }

    /// The user in slot `s`.
    pub(crate) fn user(&self, s: usize) -> usize {
        match self.user_of.get(s) {
            Some(&v) => v as usize,
            None => s,
        }
    }

    /// Where slot `s` lives: `(start, end, stride)` into `data`, so that
    /// `data[start..end].iter().step_by(stride)` yields its `d` elements
    /// in order.
    fn span(&self, s: usize) -> (usize, usize, usize) {
        let lane = s % PANEL;
        if self.d > 0 && s < self.n - self.n % PANEL {
            let base = (s - lane) * self.d;
            (base + lane, base + PANEL * self.d, PANEL)
        } else {
            (s * self.d, (s + 1) * self.d, 1)
        }
    }

    /// `⟨q, row of slot s⟩` as one chain in element order.
    fn slot_dot(&self, q: &[f32], s: usize) -> f32 {
        let (start, end, stride) = self.span(s);
        q.iter()
            .zip(self.data[start..end].iter().step_by(stride))
            .map(|(a, b)| a * b)
            .sum()
    }

    /// `⟨q, row v⟩` as one chain in element order — bitwise the scalar
    /// dot of `q` with the row-major row.
    pub(crate) fn dot(&self, q: &[f32], v: usize) -> f32 {
        self.slot_dot(q, self.slot(v))
    }

    /// A copy of row `v`, in row-major element order.
    #[cfg(test)]
    pub(crate) fn row(&self, v: usize) -> Vec<f32> {
        let (start, end, stride) = self.span(self.slot(v));
        self.data[start..end]
            .iter()
            .step_by(stride)
            .copied()
            .collect()
    }

    /// Overwrites row `v` with `row` (`d` values, element order), growing
    /// its group's radius and the largest row norm to cover it.
    pub(crate) fn set_row(&mut self, v: usize, row: &[f32]) {
        assert_eq!(row.len(), self.d, "row is not d wide");
        let s = self.slot(v);
        let (start, end, stride) = self.span(s);
        for (slot, &x) in self.data[start..end].iter_mut().step_by(stride).zip(row) {
            *slot = x;
        }
        if !self.radii.is_empty() {
            let g = self.starts.partition_point(|&start| start <= s) - 1;
            let centre = &self.centres[g * self.d..(g + 1) * self.d];
            self.radii[g] = self.radii[g].max(distance(row, centre));
            self.max_norm = self.max_norm.max(norm(row));
        }
    }

    /// Calls `visit(s, ⟨q, row in slot s⟩)` for every slot `s` in
    /// `lo..hi`, ascending. A panel the range only partly covers is
    /// scored whole and visited in part; each score is [`Panels::dot`]'s,
    /// bitwise.
    pub(crate) fn scan(&self, q: &[f32], lo: usize, hi: usize, mut visit: impl FnMut(usize, f32)) {
        let panelled = self.n - self.n % PANEL;
        let mut s = lo;
        while s < hi.min(panelled) {
            let p0 = s - s % PANEL;
            let panel = &self.data[p0 * self.d..(p0 + PANEL) * self.d];
            // `-0.0` is where `Iterator::sum` starts, so a lane whose
            // products are all `-0.0` keeps the scalar dot's sign too.
            let mut acc = [-0.0f32; PANEL];
            for (&qj, col) in q.iter().zip(panel.chunks_exact(PANEL)) {
                for (a, &c) in acc.iter_mut().zip(col) {
                    *a += qj * c;
                }
            }
            let end = (p0 + PANEL).min(hi);
            for t in s..end {
                visit(t, acc[t - p0]);
            }
            s = end;
        }
        for t in s..hi {
            visit(t, self.slot_dot(q, t));
        }
    }

    /// Number of groups (one until grouped).
    pub(crate) fn groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// The slots of group `g` whose users lie in `lo..hi`: one run, since
    /// a group's slots ascend by user id.
    pub(crate) fn group_slots(&self, g: usize, lo: usize, hi: usize) -> (usize, usize) {
        let (a, b) = (self.starts[g], self.starts[g + 1]);
        if self.user_of.is_empty() {
            (lo.clamp(a, b), hi.clamp(a, b))
        } else if lo == 0 && hi >= self.n {
            (a, b)
        } else {
            // Ids spread over `0..n`, so a group's run is searched outward
            // from where the id would sit were they even.
            let run = &self.user_of[a..b];
            let at = |id: usize| a + first_at_least(run, id, id * run.len() / self.n);
            (at(lo), at(hi))
        }
    }

    /// The walk for query `q`: every group with its bound, in descending
    /// bound, and the slack `δ` (module docs). One group has nothing to
    /// order or skip: its bound and the slack are infinite.
    pub(crate) fn plan(&self, q: &[f32]) -> Plan {
        if self.radii.is_empty() {
            return Plan {
                order: (0..self.groups()).map(|g| (f64::INFINITY, g)).collect(),
                slack: f64::INFINITY,
            };
        }
        let d = self.d;
        let q_norm = norm(q);
        let mut order: Vec<(f64, usize)> = self
            .radii
            .iter()
            .zip(self.centres.chunks_exact(d))
            .enumerate()
            .map(|(g, (&r, c))| (dot(q, c) + q_norm * r, g))
            .collect();
        order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let scale = q_norm * self.max_norm;
        let slack = if scale < f64::from(f32::MAX) / 2.0 {
            let gamma = d as f64 * EPS / (1.0 - d as f64 * EPS);
            2.0 * gamma * scale + d as f64 * f64::from(f32::MIN_POSITIVE)
        } else {
            f64::INFINITY
        };
        Plan { order, slack }
    }

    /// Groups the head (module docs). Runs once: a second call, or a head
    /// too small for two groups, changes nothing.
    pub(crate) fn group(&mut self) {
        if std::mem::replace(&mut self.grouped, true) {
            return;
        }
        let (n, d) = (self.n, self.d);
        let want = (n / USERS_PER_GROUP).min(MAX_GROUPS);
        if want < 2 || d == 0 {
            return;
        }
        transpose_blocks(&mut self.data, n, d, false);
        let centres = sample_centres(&self.data, n, d, want);
        // Each user's group id, then (below) its slot, in one buffer.
        let mut slot_of = vec![0u32; n];
        assign(&self.data, d, &centres, &mut slot_of);
        let mut sizes = vec![0usize; want];
        for &g in &slot_of {
            sizes[g as usize] += 1;
        }
        // Empty groups are dropped; the rest keep their relative order.
        // `next[g]` is the next free slot of group `g`.
        let mut next = Vec::with_capacity(want);
        let mut starts = vec![0];
        let mut end = 0;
        for &size in &sizes {
            next.push(end);
            if size > 0 {
                end += size;
                starts.push(end);
            }
        }
        if starts.len() > 2 {
            for g in &mut slot_of {
                let s = &mut next[*g as usize];
                *g = *s as u32;
                *s += 1;
            }
            let mut user_of = vec![0u32; n];
            for (v, &s) in slot_of.iter().enumerate() {
                user_of[s as usize] = v as u32;
            }
            permute_rows(&mut self.data, d, &user_of);
            let groups = starts.len() - 1;
            let mut centres = vec![0.0f64; groups * d];
            let mut radii = vec![0.0f64; groups];
            // `‖v‖` is the distance from the origin.
            let origin = vec![0.0f64; d];
            for ((g, centre), radius) in centres.chunks_exact_mut(d).enumerate().zip(&mut radii) {
                let rows = &self.data[starts[g] * d..starts[g + 1] * d];
                for row in rows.chunks_exact(d) {
                    for (c, &x) in centre.iter_mut().zip(row) {
                        *c += f64::from(x);
                    }
                }
                let size = (starts[g + 1] - starts[g]) as f64;
                centre.iter_mut().for_each(|c| *c /= size);
                for row in rows.chunks_exact(d) {
                    *radius = radius.max(distance(row, centre));
                    self.max_norm = self.max_norm.max(distance(row, &origin));
                }
            }
            self.slot_of = slot_of;
            self.user_of = user_of;
            self.starts = starts;
            self.centres = centres;
            self.radii = radii;
        }
        transpose_blocks(&mut self.data, n, d, true);
    }

    /// Start of the storage, for the test that pins the in-place rule.
    #[cfg(test)]
    pub(crate) fn as_ptr(&self) -> *const f32 {
        self.data.as_ptr()
    }
}

/// The first position in the ascending `run` whose id is at least `id`:
/// a gallop out from `guess` brackets it, a binary search finds it.
fn first_at_least(run: &[u32], id: usize, guess: usize) -> usize {
    let below = |i: usize| (run[i] as usize) < id;
    let guess = guess.min(run.len());
    let (mut lo, mut hi, mut step) = (0, run.len(), 1);
    if guess < run.len() && below(guess) {
        lo = guess + 1;
        while guess + step < run.len() && below(guess + step) {
            lo = guess + step + 1;
            step *= 2;
        }
        hi = hi.min(guess + step);
    } else {
        hi = guess;
        while step <= guess && !below(guess - step) {
            hi = guess - step;
            step *= 2;
        }
        if step <= guess {
            lo = guess - step + 1;
        }
    }
    lo + run[lo..hi].partition_point(|&v| (v as usize) < id)
}

/// `‖x‖` in f64.
fn norm(x: &[f32]) -> f64 {
    x.iter()
        .map(|&a| f64::from(a) * f64::from(a))
        .sum::<f64>()
        .sqrt()
}

/// `Σ term(xⱼ, cⱼ)` in f64, over four partial sums so that the adds do
/// not wait on each other (any order is within the f64 error the bound
/// allows for).
fn sum4(x: &[f32], c: &[f64], term: impl Fn(f64, f64) -> f64) -> f64 {
    let mut acc = [0.0f64; 4];
    let (xs, cs) = (x.chunks_exact(4), c.chunks_exact(4));
    let tail = xs.remainder().iter().zip(cs.remainder());
    for (xs, cs) in xs.zip(cs) {
        for ((a, &xv), &cv) in acc.iter_mut().zip(xs).zip(cs) {
            *a += term(f64::from(xv), cv);
        }
    }
    for (a, (&xv, &cv)) in acc.iter_mut().zip(tail) {
        *a += term(f64::from(xv), cv);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// `⟨x, c⟩` in f64.
fn dot(x: &[f32], c: &[f64]) -> f64 {
    sum4(x, c, |a, b| a * b)
}

/// `‖x − c‖` in f64.
fn distance(x: &[f32], c: &[f64]) -> f64 {
    sum4(x, c, |a, b| (a - b) * (a - b)).sqrt()
}

/// Transposes every full block of [`PANEL`] rows in place, through one
/// tile buffer: row-major blocks into `d × PANEL` panels when `to_panels`,
/// back otherwise. The tail rows stay row-major either way.
fn transpose_blocks(data: &mut [f32], n: usize, d: usize, to_panels: bool) {
    if d == 0 {
        return;
    }
    let mut tile = vec![0.0f32; PANEL * d];
    let panelled = (n - n % PANEL) * d;
    for block in data[..panelled].chunks_exact_mut(PANEL * d) {
        tile.copy_from_slice(block);
        if to_panels {
            for (j, col) in block.chunks_exact_mut(PANEL).enumerate() {
                for (slot, row) in col.iter_mut().zip(tile.chunks_exact(d)) {
                    *slot = row[j];
                }
            }
        } else {
            for (lane, row) in block.chunks_exact_mut(d).enumerate() {
                for (slot, col) in row.iter_mut().zip(tile.chunks_exact(PANEL)) {
                    *slot = col[lane];
                }
            }
        }
    }
}

/// Spherical k-means on an evenly strided sample of the row-major
/// `n × d` rows: `groups` unit centres, `groups × d`, seeded from evenly
/// strided sample rows. A centre no sample row picks keeps its place.
fn sample_centres(rows: &[f32], n: usize, d: usize, groups: usize) -> Vec<f32> {
    let size = (groups * SAMPLE_PER_GROUP).min(n);
    let mut sample = Vec::with_capacity(size * d);
    for i in 0..size {
        let row = &rows[i * n / size * d..][..d];
        let scale = norm(row).max(f64::MIN_POSITIVE);
        sample.extend(row.iter().map(|&x| (f64::from(x) / scale) as f32));
    }
    let mut centres = Vec::with_capacity(groups * d);
    for g in 0..groups {
        centres.extend_from_slice(&sample[g * size / groups * d..][..d]);
    }
    let mut picks = vec![0u32; size];
    for _ in 0..ROUNDS {
        assign(&sample, d, &centres, &mut picks);
        let mut sums = vec![0.0f64; groups * d];
        for (row, &g) in sample.chunks_exact(d).zip(&picks) {
            for (s, &x) in sums[g as usize * d..][..d].iter_mut().zip(row) {
                *s += f64::from(x);
            }
        }
        for (centre, sum) in centres.chunks_exact_mut(d).zip(sums.chunks_exact(d)) {
            let length = sum.iter().map(|s| s * s).sum::<f64>().sqrt();
            if length > 0.0 {
                for (c, s) in centre.iter_mut().zip(sum) {
                    *c = (s / length) as f32;
                }
            }
        }
    }
    centres
}

/// Writes into `out[i]` the centre with the largest `⟨row i, centre⟩`,
/// ties to the lowest id, scoring [`BLOCK`] rows at a time through the
/// dense kernel.
fn assign(rows: &[f32], d: usize, centres: &[f32], out: &mut [u32]) {
    // Copies of centre 0 pad the centres to whole tiles of the kernel's
    // widest instantiation (narrower edge tiles run slower); a copy ties
    // with centre 0 and so never wins.
    let width = (centres.len() / d).next_multiple_of(32);
    let mut padded = centres.to_vec();
    while padded.len() < width * d {
        padded.extend_from_slice(&centres[..d]);
    }
    let centres_t = Tensor::matrix(width, d, padded).transpose();
    for (block, picks) in rows.chunks(BLOCK * d).zip(out.chunks_mut(BLOCK)) {
        let scores = Tensor::matrix(picks.len(), d, block.to_vec()).matmul(&centres_t);
        for (pick, row) in picks.iter_mut().zip(scores.as_slice().chunks_exact(width)) {
            let top = row.iter().fold(f32::NEG_INFINITY, |a, &s| a.max(s));
            *pick = row.iter().position(|&s| s == top).unwrap_or(0) as u32;
        }
    }
}

/// Permutes the row-major rows in place so that slot `s` holds the row
/// that was at `user_of[s]`, following the permutation's cycles with one
/// spare row.
fn permute_rows(data: &mut [f32], d: usize, user_of: &[u32]) {
    let mut done = vec![false; user_of.len()];
    let mut held = vec![0.0f32; d];
    for start in 0..user_of.len() {
        if done[start] {
            continue;
        }
        held.copy_from_slice(&data[start * d..(start + 1) * d]);
        let mut s = start;
        loop {
            done[s] = true;
            let from = user_of[s] as usize;
            if from == start {
                data[s * d..(s + 1) * d].copy_from_slice(&held);
                break;
            }
            data.copy_within(from * d..(from + 1) * d, s * d);
            s = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_dots_and_patches_read_through_the_panels() {
        for (n, d) in [(0, 3), (20, 0), (5, 3), (16, 1), (37, 5), (48, 2)] {
            let rows: Vec<f32> = (0..n * d).map(|i| i as f32 * 0.5 - 7.0).collect();
            let mut panels = Panels::new(rows.clone(), n, d);
            let q: Vec<f32> = (0..d).map(|j| 1.0 - j as f32 * 0.25).collect();
            let mut scanned = Vec::new();
            panels.scan(&q, 0, n, |v, s| scanned.push((v, s.to_bits())));
            for v in 0..n {
                let row = &rows[v * d..(v + 1) * d];
                assert_eq!(panels.row(v), row, "n {n} d {d} row {v}");
                let want: f32 = q.iter().zip(row).map(|(a, b)| a * b).sum();
                assert_eq!(panels.dot(&q, v).to_bits(), want.to_bits());
                assert_eq!(scanned[v], (v, want.to_bits()));
            }
            if n > 0 {
                let v = n / 2;
                let new: Vec<f32> = (0..d).map(|j| j as f32).collect();
                panels.set_row(v, &new);
                assert_eq!(panels.row(v), new);
                assert_eq!(
                    panels.row(n - 1),
                    &rows[(n - 1) * d..],
                    "neighbours untouched"
                );
            }
        }
    }

    /// `n × d` rows scattered around `clusters` directions, deterministic.
    fn clustered(n: usize, d: usize, clusters: usize) -> Vec<f32> {
        (0..n * d)
            .map(|i| {
                let (v, j) = (i / d, i % d);
                let c = (v * 7) % clusters;
                ((c * 31 + j * 17) % 13) as f32 - 6.0 + ((v * 13 + j * 5) % 11) as f32 * 0.05
            })
            .collect()
    }

    /// The scalar dot the scan must reproduce bitwise.
    fn scalar(q: &[f32], row: &[f32]) -> f32 {
        q.iter().zip(row).map(|(a, b)| a * b).sum()
    }

    /// Every slot's user, and every score the scan gives, checked against
    /// the row-major rows and each group's bound.
    fn check_layout(panels: &Panels, rows: &[f32], q: &[f32]) {
        let (n, d) = (panels.n(), panels.d());
        for s in 0..n {
            assert_eq!(panels.slot(panels.user(s)), s, "slot maps are inverse");
        }
        let plan = panels.plan(q);
        assert_eq!(plan.order.len(), panels.groups());
        for &(bound, g) in &plan.order {
            let (a, b) = panels.group_slots(g, 0, n);
            let users: Vec<usize> = (a..b).map(|s| panels.user(s)).collect();
            assert!(
                users.windows(2).all(|w| w[0] < w[1]),
                "group {g} ascends by id"
            );
            panels.scan(q, a, b, |s, score| {
                let v = panels.user(s);
                let row = &rows[v * d..(v + 1) * d];
                assert_eq!(score.to_bits(), scalar(q, row).to_bits(), "user {v}");
                assert!(
                    f64::from(score) <= bound + plan.slack,
                    "user {v} above its bound"
                );
            });
        }
        for v in 0..n {
            let row = &rows[v * d..(v + 1) * d];
            assert_eq!(panels.row(v), row, "row {v}");
            assert_eq!(panels.dot(q, v).to_bits(), scalar(q, row).to_bits());
        }
    }

    #[test]
    fn a_grouped_layout_reads_scans_and_patches_like_the_rows() {
        // 809 users: two groups, fifty panels and a 9-row row-major tail.
        let (n, d) = (16 * 50 + 9, 5);
        let mut rows = clustered(n, d, 4);
        let mut panels = Panels::new(rows.clone(), n, d);
        let storage = panels.as_ptr();
        panels.group();
        assert!(
            panels.is_grouped() && panels.groups() >= 2,
            "{} groups",
            panels.groups()
        );
        assert_eq!(panels.as_ptr(), storage, "grouping permutes in place");
        let q: Vec<f32> = (0..d).map(|j| 0.75 - j as f32 * 0.5).collect();
        check_layout(&panels, &rows, &q);

        // Each range is exactly its users, one run per group.
        for (lo, hi) in [(0, 1), (100, 101), (300, 700), (n - 9, n), (0, n), (5, n)] {
            let mut users: Vec<usize> = (0..panels.groups())
                .flat_map(|g| {
                    let (a, b) = panels.group_slots(g, lo, hi);
                    (a..b).map(|s| panels.user(s)).collect::<Vec<_>>()
                })
                .collect();
            users.sort_unstable();
            assert_eq!(users, (lo..hi).collect::<Vec<_>>(), "{lo}..{hi}");
        }

        // A tail row and a panel row moved far outside their groups: the
        // radii grow, so every bound still covers every row, also for a
        // query pointing straight at a moved row.
        for s in [n - 1, 3] {
            let v = panels.user(s);
            let moved: Vec<f32> = panels.row(v).iter().map(|x| -3.0 * x).collect();
            panels.set_row(v, &moved);
            rows[v * d..(v + 1) * d].copy_from_slice(&moved);
            check_layout(&panels, &rows, &moved);
        }
        check_layout(&panels, &rows, &q);

        // Grouping runs once.
        let before = panels.clone();
        panels.group();
        assert_eq!(panels.data, before.data);
        assert_eq!(panels.user_of, before.user_of);
    }

    #[test]
    fn small_or_featureless_heads_keep_the_identity_layout() {
        // Too few users for two groups; rows k-means cannot tell apart.
        for (n, d, rows) in [
            (700, 3, clustered(700, 3, 4)),
            (800, 3, vec![0.5; 800 * 3]),
            (800, 0, Vec::new()),
        ] {
            let mut panels = Panels::new(rows.clone(), n, d);
            panels.group();
            assert!(panels.is_grouped());
            assert_eq!(panels.groups(), 1, "n {n} d {d}");
            assert!(panels.user_of.is_empty() && panels.slot_of.is_empty());
            assert_eq!(panels.data, Panels::new(rows, n, d).data);
        }
    }

    #[test]
    fn first_at_least_matches_a_binary_search_from_any_guess() {
        let run: Vec<u32> = (0..40).map(|i| i * 3 + (i % 4)).collect();
        for id in 0..130 {
            let want = run.partition_point(|&v| (v as usize) < id);
            for guess in 0..=45 {
                assert_eq!(
                    first_at_least(&run, id, guess),
                    want,
                    "id {id} guess {guess}"
                );
            }
        }
        assert_eq!(first_at_least(&[], 5, 0), 0);
    }
}
