//! The trustee head, laid out for the exhaustive scan.
//!
//! A `/topk` is one dot per candidate against a fixed query row. Scored
//! one candidate at a time that is a serial chain of `d` multiply-adds
//! per candidate, bound by add latency. [`Panels`] stores each block of
//! [`PANEL`] consecutive users' rows transposed, as a `d × PANEL` panel:
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

/// Users per panel. Sixteen accumulators are four SSE2 vectors, enough
/// to cover the add latency; eight leave the scan latency-bound, and
/// wider panels make the strided pair dot touch more cache lines.
const PANEL: usize = 16;

/// An `n × d` head matrix stored as `d × PANEL` panels plus a row-major
/// tail (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct Panels {
    n: usize,
    d: usize,
    data: Vec<f32>,
}

impl Panels {
    /// Re-lays the row-major `n × d` matrix `rows` in place.
    pub(crate) fn new(mut rows: Vec<f32>, n: usize, d: usize) -> Panels {
        assert_eq!(rows.len(), n * d, "head matrix is not n × d");
        if d > 0 {
            let mut tile = vec![0.0f32; PANEL * d];
            let panelled = (n - n % PANEL) * d;
            for block in rows[..panelled].chunks_exact_mut(PANEL * d) {
                tile.copy_from_slice(block);
                for (j, col) in block.chunks_exact_mut(PANEL).enumerate() {
                    for (slot, row) in col.iter_mut().zip(tile.chunks_exact(d)) {
                        *slot = row[j];
                    }
                }
            }
        }
        Panels { n, d, data: rows }
    }

    /// Number of rows (users).
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Row width (the head dimension).
    pub(crate) fn d(&self) -> usize {
        self.d
    }

    /// Where row `v` lives: `(start, end, stride)` into `data`, so that
    /// `data[start..end].iter().step_by(stride)` yields its `d` elements
    /// in order.
    fn span(&self, v: usize) -> (usize, usize, usize) {
        let lane = v % PANEL;
        if self.d > 0 && v < self.n - self.n % PANEL {
            let base = (v - lane) * self.d;
            (base + lane, base + PANEL * self.d, PANEL)
        } else {
            (v * self.d, (v + 1) * self.d, 1)
        }
    }

    /// `⟨q, row v⟩` as one chain in element order — bitwise the scalar
    /// dot of `q` with the row-major row.
    pub(crate) fn dot(&self, q: &[f32], v: usize) -> f32 {
        let (start, end, stride) = self.span(v);
        q.iter()
            .zip(self.data[start..end].iter().step_by(stride))
            .map(|(a, b)| a * b)
            .sum()
    }

    /// A copy of row `v`, in row-major element order.
    #[cfg(test)]
    pub(crate) fn row(&self, v: usize) -> Vec<f32> {
        let (start, end, stride) = self.span(v);
        self.data[start..end]
            .iter()
            .step_by(stride)
            .copied()
            .collect()
    }

    /// Overwrites row `v` with `row` (`d` values, element order).
    pub(crate) fn set_row(&mut self, v: usize, row: &[f32]) {
        assert_eq!(row.len(), self.d, "row is not d wide");
        let (start, end, stride) = self.span(v);
        for (slot, &x) in self.data[start..end].iter_mut().step_by(stride).zip(row) {
            *slot = x;
        }
    }

    /// Calls `visit(v, ⟨q, row v⟩)` for every `v` in `lo..hi`, ascending.
    /// A panel the range only partly covers is scored whole and visited
    /// in part; each score is [`Panels::dot`]'s, bitwise.
    pub(crate) fn scan(&self, q: &[f32], lo: usize, hi: usize, mut visit: impl FnMut(usize, f32)) {
        let panelled = self.n - self.n % PANEL;
        let mut v = lo;
        while v < hi.min(panelled) {
            let p0 = v - v % PANEL;
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
            for u in v..end {
                visit(u, acc[u - p0]);
            }
            v = end;
        }
        for u in v..hi {
            visit(u, self.dot(q, u));
        }
    }

    /// Start of the storage, for the test that pins the in-place rule.
    #[cfg(test)]
    pub(crate) fn as_ptr(&self) -> *const f32 {
        self.data.as_ptr()
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
}
