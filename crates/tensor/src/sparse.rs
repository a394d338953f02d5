//! Compressed-sparse-row matrices.
//!
//! The motif-induced adjacency computation of Table II is a pipeline of
//! sparse products masked by sparse patterns — `(UC · UC) ⊙ UCᵀ` and
//! friends — over social graphs whose adjacency is far too sparse (0.17 % /
//! 0.49 % density in the paper's datasets) to densify at scale. The kernels
//! here implement exactly that pipeline:
//!
//! * [`CsrMatrix::spmm`] — Gustavson sparse·sparse product,
//! * [`CsrMatrix::spmm_masked`] — sparse·sparse product restricted to the
//!   pattern of a mask, fusing the Hadamard step so no dense intermediate is
//!   ever built,
//! * [`CsrMatrix::hadamard`], [`CsrMatrix::add`] — pattern intersection /
//!   union combinators,
//! * [`CsrMatrix::mul_dense`] / [`CsrMatrix::t_mul_dense`] — the
//!   incidence-matrix aggregations `H·X` and `Hᵀ·X` used by every hypergraph
//!   convolution (and their autograd backward passes).
//!
//! Values are generic over [`Scalar`] because the learnable math runs in
//! `f32` while motif counting and PageRank run in `f64` (see DESIGN.md §5).

use ahntp_telemetry::{counter_add, KernelKind, KernelSpan};

use crate::{Tensor, TensorError};

/// Pre-interned counter names for one sparse kernel, so the hot path never
/// builds a `format!` string per call.
struct SparseCounters {
    calls: &'static str,
    nnz_in: &'static str,
    nnz_out: &'static str,
}

static SPMM_COUNTERS: SparseCounters = SparseCounters {
    calls: "tensor.spmm.calls",
    nnz_in: "tensor.spmm.nnz_in",
    nnz_out: "tensor.spmm.nnz_out",
};
static SPMM_MASKED_COUNTERS: SparseCounters = SparseCounters {
    calls: "tensor.spmm_masked.calls",
    nnz_in: "tensor.spmm_masked.nnz_in",
    nnz_out: "tensor.spmm_masked.nnz_out",
};
static MUL_DENSE_COUNTERS: SparseCounters = SparseCounters {
    calls: "tensor.mul_dense.calls",
    nnz_in: "tensor.mul_dense.nnz_in",
    nnz_out: "tensor.mul_dense.nnz_out",
};
static T_MUL_DENSE_COUNTERS: SparseCounters = SparseCounters {
    calls: "tensor.t_mul_dense.calls",
    nnz_in: "tensor.t_mul_dense.nnz_in",
    nnz_out: "tensor.t_mul_dense.nnz_out",
};
/// Counts one sparse-kernel invocation and the nonzeros it consumed and
/// produced. No-op while telemetry is disabled.
#[inline]
fn record_sparse(kernel: &SparseCounters, nnz_in: usize, nnz_out: usize) {
    if !ahntp_telemetry::enabled() {
        return;
    }
    counter_add(kernel.calls, 1);
    counter_add(kernel.nnz_in, nnz_in as u64);
    counter_add(kernel.nnz_out, nnz_out as u64);
}

/// A COO entry `(row, col, value)` used to build [`CsrMatrix`].
pub type CooTriplet<T> = (usize, usize, T);

/// Minimal numeric bound for sparse values: `f32` and `f64`.
pub trait Scalar:
    Copy
    + PartialEq
    + PartialOrd
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::AddAssign
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Lossy conversion to `f64` (exact for both implementors).
    fn to_f64(self) -> f64;
    /// Lossy conversion from `f64`.
    fn from_f64(v: f64) -> Self;
}

impl Scalar for f32 {
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    fn from_f64(v: f64) -> f32 {
        v as f32
    }
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    fn to_f64(self) -> f64 {
        self
    }
    fn from_f64(v: f64) -> f64 {
        v
    }
}

/// A sparse matrix in compressed-sparse-row format.
///
/// Invariants (upheld by every constructor and checked by
/// [`CsrMatrix::validate`]):
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[rows] == col_idx.len() == values.len()`,
/// * `row_ptr` is non-decreasing,
/// * within each row, column indices are strictly increasing and `< cols`.
///
/// Explicit zeros are permitted (they arise naturally from cancellation in
/// [`CsrMatrix::sub`]) and can be removed with [`CsrMatrix::prune`].
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// An all-zero `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The `n x n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![T::ONE; n],
        }
    }

    /// Builds a matrix from COO triplets. Duplicate coordinates are summed,
    /// which makes this directly usable as a co-occurrence counter.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] for any out-of-range triplet.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[CooTriplet<T>],
    ) -> Result<Self, TensorError> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(TensorError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        let mut sorted: Vec<CooTriplet<T>> = triplets.to_vec();
        sorted.sort_unstable_by_key(|t| (t.0, t.1));
        let mut col_idx: Vec<usize> = Vec::with_capacity(sorted.len());
        let mut values: Vec<T> = Vec::with_capacity(sorted.len());
        let mut entry_rows: Vec<usize> = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            if entry_rows.last() == Some(&r) && col_idx.last() == Some(&c) {
                // Same coordinate as the previous entry: accumulate.
                *values.last_mut().expect("values nonempty here") += v;
            } else {
                entry_rows.push(r);
                col_idx.push(c);
                values.push(v);
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for &r in &entry_rows {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let m = CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        debug_assert_eq!(m.validate(), Ok(()));
        Ok(m)
    }

    /// Wraps CSR arrays that already satisfy the invariants above — what a
    /// caller that emits rows in order, columns ascending, builds in one
    /// pass with no sort. Checked in debug builds only.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the arrays violate an invariant.
    pub fn from_csr(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<T>,
    ) -> Self {
        let m = CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        debug_assert_eq!(m.validate(), Ok(()));
        m
    }

    /// Builds a CSR matrix from a dense tensor, keeping nonzero entries.
    pub fn from_dense(t: &Tensor) -> CsrMatrix<T> {
        let mut trips = Vec::new();
        for r in 0..t.rows() {
            for (c, &v) in t.row(r).iter().enumerate() {
                if v != 0.0 {
                    trips.push((r, c, T::from_f64(f64::from(v))));
                }
            }
        }
        CsrMatrix::from_triplets(t.rows(), t.cols(), &trips)
            .expect("from_dense: indices are in range by construction")
    }

    /// Densifies into a [`Tensor`] (f32). Intended for tests and tiny
    /// matrices only.
    pub fn to_dense(&self) -> Tensor {
        let mut t = Tensor::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                t.set(r, c, v.to_f64() as f32);
            }
        }
        t
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The raw CSR row pointer array (`rows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The raw CSR column index array.
    #[inline]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// The raw CSR value array.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Iterates `(col, value)` pairs of row `r` in increasing column order.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, T)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Entry lookup: O(log nnz(row)).
    pub fn get(&self, r: usize, c: usize) -> T {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => T::ZERO,
        }
    }

    /// Checks all structural invariants; returns a human-readable violation
    /// if any. Used by property tests and `debug_assert!` in combinators.
    pub fn validate(&self) -> Result<(), String> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err(format!(
                "row_ptr has {} entries, expected {}",
                self.row_ptr.len(),
                self.rows + 1
            ));
        }
        if self.row_ptr[0] != 0 {
            return Err("row_ptr[0] != 0".into());
        }
        if *self.row_ptr.last().unwrap() != self.col_idx.len()
            || self.col_idx.len() != self.values.len()
        {
            return Err("row_ptr end / col_idx / values lengths disagree".into());
        }
        for r in 0..self.rows {
            if self.row_ptr[r] > self.row_ptr[r + 1] {
                return Err(format!("row_ptr decreases at row {r}"));
            }
            let row = &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r}: columns not strictly increasing"));
                }
            }
            if let Some(&last) = row.last() {
                if last >= self.cols {
                    return Err(format!("row {r}: column {last} >= cols {}", self.cols));
                }
            }
        }
        Ok(())
    }

    /// Transposed copy (O(nnz) counting sort).
    pub fn transpose(&self) -> CsrMatrix<T> {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        let mut next = counts;
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                let pos = next[c];
                col_idx[pos] = r;
                values[pos] = v;
                next[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Applies `f` to every stored value (pattern unchanged).
    pub fn map_values(&self, f: impl Fn(T) -> T) -> CsrMatrix<T> {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Drops stored entries for which `keep` returns false.
    pub fn filter(&self, keep: impl Fn(usize, usize, T) -> bool) -> CsrMatrix<T> {
        let mut trips = Vec::new();
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                if keep(r, c, v) {
                    trips.push((r, c, v));
                }
            }
        }
        CsrMatrix::from_triplets(self.rows, self.cols, &trips)
            .expect("filter: indices in range by construction")
    }

    /// Removes explicitly stored zeros.
    pub fn prune(&self) -> CsrMatrix<T> {
        self.filter(|_, _, v| v != T::ZERO)
    }

    /// Per-row sums (out-degrees for adjacency matrices).
    pub fn row_sums(&self) -> Vec<T> {
        (0..self.rows)
            .map(|r| {
                let mut acc = T::ZERO;
                for (_, v) in self.row_entries(r) {
                    acc += v;
                }
                acc
            })
            .collect()
    }

    /// Per-column sums (in-degrees for adjacency matrices).
    pub fn col_sums(&self) -> Vec<T> {
        let mut out = vec![T::ZERO; self.cols];
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out[c] += v;
            }
        }
        out
    }

    /// Entrywise sum `self + other` (pattern union).
    pub fn add(&self, other: &CsrMatrix<T>) -> CsrMatrix<T> {
        self.combine(other, "add", |a, b| a + b)
    }

    /// Entrywise difference `self - other` (pattern union; cancelled entries
    /// stay as explicit zeros — call [`CsrMatrix::prune`] to drop them).
    pub fn sub(&self, other: &CsrMatrix<T>) -> CsrMatrix<T> {
        self.combine(other, "sub", |a, b| a - b)
    }

    fn combine(&self, other: &CsrMatrix<T>, op: &str, f: impl Fn(T, T) -> T) -> CsrMatrix<T> {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "CsrMatrix::{op}: dimension mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        for r in 0..self.rows {
            let mut a = self.row_entries(r).peekable();
            let mut b = other.row_entries(r).peekable();
            loop {
                match (a.peek().copied(), b.peek().copied()) {
                    (Some((ca, va)), Some((cb, vb))) => {
                        use std::cmp::Ordering;
                        match ca.cmp(&cb) {
                            Ordering::Less => {
                                col_idx.push(ca);
                                values.push(f(va, T::ZERO));
                                a.next();
                            }
                            Ordering::Greater => {
                                col_idx.push(cb);
                                values.push(f(T::ZERO, vb));
                                b.next();
                            }
                            Ordering::Equal => {
                                col_idx.push(ca);
                                values.push(f(va, vb));
                                a.next();
                                b.next();
                            }
                        }
                    }
                    (Some((ca, va)), None) => {
                        col_idx.push(ca);
                        values.push(f(va, T::ZERO));
                        a.next();
                    }
                    (None, Some((cb, vb))) => {
                        col_idx.push(cb);
                        values.push(f(T::ZERO, vb));
                        b.next();
                    }
                    (None, None) => break,
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Hadamard (entrywise) product — pattern intersection. This is the `⊙`
    /// of Table II; `BC = R_U ⊙ R_Uᵀ` extracts bidirectional edges.
    pub fn hadamard(&self, other: &CsrMatrix<T>) -> CsrMatrix<T> {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "CsrMatrix::hadamard: dimension mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.rows {
            let mut a = self.row_entries(r).peekable();
            let mut b = other.row_entries(r).peekable();
            while let (Some(&(ca, va)), Some(&(cb, vb))) = (a.peek(), b.peek()) {
                use std::cmp::Ordering;
                match ca.cmp(&cb) {
                    Ordering::Less => {
                        a.next();
                    }
                    Ordering::Greater => {
                        b.next();
                    }
                    Ordering::Equal => {
                        col_idx.push(ca);
                        values.push(va * vb);
                        a.next();
                        b.next();
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Scales every value by `s`.
    pub fn scale(&self, s: T) -> CsrMatrix<T> {
        self.map_values(|v| v * s)
    }

    /// Gustavson sparse·sparse product `self @ other`: each row accumulates
    /// its entries in storage order and emits its columns sorted.
    pub fn spmm(&self, other: &CsrMatrix<T>) -> CsrMatrix<T> {
        let _k = KernelSpan::enter("csr.spmm", KernelKind::Csr);
        assert_eq!(
            self.cols, other.rows,
            "CsrMatrix::spmm: inner dimensions disagree: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let n = other.cols;
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<usize> = Vec::new();
        let mut values: Vec<T> = Vec::new();
        // Dense accumulator + occupancy markers: classic Gustavson.
        let mut acc: Vec<T> = vec![T::ZERO; n];
        let mut seen = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..self.rows {
            for (k, vik) in self.row_entries(i) {
                for (j, vkj) in other.row_entries(k) {
                    if !seen[j] {
                        seen[j] = true;
                        touched.push(j);
                    }
                    acc[j] += vik * vkj;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                col_idx.push(j);
                values.push(acc[j]);
                acc[j] = T::ZERO;
                seen[j] = false;
            }
            touched.clear();
            row_ptr.push(col_idx.len());
        }
        record_sparse(&SPMM_COUNTERS, self.nnz() + other.nnz(), col_idx.len());
        CsrMatrix {
            rows: self.rows,
            cols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// `(self @ other) ⊙ mask-pattern` computed without materialising the
    /// full product: for each row, accumulation is restricted to columns
    /// present in `mask`'s row. This is the workhorse of Table II, where
    /// every motif formula has the shape `(X · Y) ⊙ Z`.
    ///
    /// Note: only `mask`'s *pattern* participates; its values are ignored,
    /// matching the Table II convention where the mask is a 0/1 adjacency.
    pub fn spmm_masked(&self, other: &CsrMatrix<T>, mask: &CsrMatrix<T>) -> CsrMatrix<T> {
        let _k = KernelSpan::enter("csr.spmm_masked", KernelKind::Csr);
        assert_eq!(
            self.cols, other.rows,
            "CsrMatrix::spmm_masked: inner dimensions disagree: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (self.rows, other.cols),
            (mask.rows, mask.cols),
            "CsrMatrix::spmm_masked: mask is {}x{}, product is {}x{}",
            mask.rows,
            mask.cols,
            self.rows,
            other.cols
        );
        let n = other.cols;
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx: Vec<usize> = Vec::new();
        let mut values: Vec<T> = Vec::new();
        // in_mask[j] = true while processing a row whose mask contains j.
        let mut in_mask = vec![false; n];
        let mut acc: Vec<T> = vec![T::ZERO; n];
        for i in 0..self.rows {
            let mask_cols: Vec<usize> = mask.row_entries(i).map(|(c, _)| c).collect();
            if mask_cols.is_empty() {
                row_ptr.push(col_idx.len());
                continue;
            }
            for &c in &mask_cols {
                in_mask[c] = true;
            }
            for (k, vik) in self.row_entries(i) {
                for (j, vkj) in other.row_entries(k) {
                    if in_mask[j] {
                        acc[j] += vik * vkj;
                    }
                }
            }
            for &j in &mask_cols {
                if acc[j] != T::ZERO {
                    col_idx.push(j);
                    values.push(acc[j]);
                    acc[j] = T::ZERO;
                }
                in_mask[j] = false;
            }
            row_ptr.push(col_idx.len());
        }
        record_sparse(
            &SPMM_MASKED_COUNTERS,
            self.nnz() + other.nnz(),
            col_idx.len(),
        );
        CsrMatrix {
            rows: self.rows,
            cols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse·dense product `self @ x` where `x` is an f32 tensor: the
    /// forward pass of every hypergraph/graph aggregation. Each output row
    /// gathers its entries in ascending-`k` order, skipping zero weights.
    pub fn mul_dense(&self, x: &Tensor) -> Tensor {
        let _k = KernelSpan::enter("csr.mul_dense", KernelKind::Csr);
        assert_eq!(
            self.cols,
            x.rows(),
            "CsrMatrix::mul_dense: {}x{} @ {}",
            self.rows,
            self.cols,
            x.shape()
        );
        record_sparse(&MUL_DENSE_COUNTERS, self.nnz(), self.nnz() * x.cols());
        let mut out = Tensor::zeros(self.rows, x.cols());
        // A zero-column `x` leaves no data, so any chunk length walks no rows.
        for (r, out_row) in out.data.chunks_mut(x.cols().max(1)).enumerate() {
            for (k, v) in self.row_entries(r) {
                let w = v.to_f64() as f32;
                if w == 0.0 {
                    continue;
                }
                for (o, &xv) in out_row.iter_mut().zip(x.row(k)) {
                    *o += w * xv;
                }
            }
        }
        out
    }

    /// `selfᵀ @ x` without materialising the transpose — the backward pass
    /// companion to [`CsrMatrix::mul_dense`]. Scatters row by row, so each
    /// output row adds its entries in ascending former-row order, skipping
    /// zero weights.
    pub fn t_mul_dense(&self, x: &Tensor) -> Tensor {
        let _k = KernelSpan::enter("csr.t_mul_dense", KernelKind::Csr);
        assert_eq!(
            self.rows,
            x.rows(),
            "CsrMatrix::t_mul_dense: ({}x{})^T @ {}",
            self.rows,
            self.cols,
            x.shape()
        );
        record_sparse(&T_MUL_DENSE_COUNTERS, self.nnz(), self.nnz() * x.cols());
        let mut out = Tensor::zeros(self.cols, x.cols());
        for r in 0..self.rows {
            let x_row = x.row(r);
            for (c, v) in self.row_entries(r) {
                let w = v.to_f64() as f32;
                if w == 0.0 {
                    continue;
                }
                let o = out.row_mut(c);
                for (ov, &xv) in o.iter_mut().zip(x_row) {
                    *ov += w * xv;
                }
            }
        }
        out
    }

    /// Sparse·vector product in the scalar's own precision (used by the
    /// f64 PageRank power iteration): each output element is one row dot
    /// product.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        let _k = KernelSpan::enter("csr.mul_vec", KernelKind::Csr);
        assert_eq!(
            self.cols,
            x.len(),
            "CsrMatrix::mul_vec: {}x{} @ [{}]",
            self.rows,
            self.cols,
            x.len()
        );
        (0..self.rows)
            .map(|r| {
                let mut acc = T::ZERO;
                for (c, v) in self.row_entries(r) {
                    acc += v * x[c];
                }
                acc
            })
            .collect()
    }

    /// Converts the value type (e.g. f64 motif counts → f32 weights).
    pub fn cast<U: Scalar>(&self) -> CsrMatrix<U> {
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self
                .values
                .iter()
                .map(|&v| U::from_f64(v.to_f64()))
                .collect(),
        }
    }

    /// Row-normalises so each nonempty row sums to 1 (a right-stochastic
    /// transition matrix, Eq. 1 of the paper).
    pub fn row_normalized(&self) -> CsrMatrix<T> {
        let sums = self.row_sums();
        let mut out = self.clone();
        for (r, sum) in sums.iter().enumerate() {
            let s = sum.to_f64();
            if s != 0.0 {
                let lo = out.row_ptr[r];
                let hi = out.row_ptr[r + 1];
                for v in &mut out.values[lo..hi] {
                    *v = T::from_f64(v.to_f64() / s);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix<f64> {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
            .unwrap()
    }

    #[test]
    fn from_triplets_sums_duplicates_and_sorts() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 0, 2.0), (0, 1, 3.0)]).unwrap();
        m.validate().unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn from_triplets_rejects_out_of_bounds() {
        let e = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(e, TensorError::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn from_csr_wraps_valid_arrays_as_is() {
        let m = CsrMatrix::from_csr(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        assert_eq!(m, small());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "columns not strictly increasing")]
    fn from_csr_checks_the_invariants_in_debug_builds() {
        CsrMatrix::<f32>::from_csr(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    fn dense_roundtrip() {
        let m = small();
        let d = m.to_dense();
        assert_eq!(d.get(2, 1), 4.0);
        let back: CsrMatrix<f32> = CsrMatrix::<f32>::from_dense(&d);
        assert_eq!(back.nnz(), 4);
        assert_eq!(back.get(0, 2), 2.0);
    }

    #[test]
    fn transpose_roundtrip_and_entries() {
        let m = small();
        let t = m.transpose();
        t.validate().unwrap();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 2), 4.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn add_sub_hadamard() {
        let a = small();
        let b = CsrMatrix::from_triplets(3, 3, &[(0, 0, 10.0), (1, 1, 5.0)]).unwrap();
        let s = a.add(&b);
        assert_eq!(s.get(0, 0), 11.0);
        assert_eq!(s.get(1, 1), 5.0);
        assert_eq!(s.get(0, 2), 2.0);
        let d = a.sub(&b);
        assert_eq!(d.get(0, 0), -9.0);
        assert_eq!(d.get(1, 1), -5.0);
        let h = a.hadamard(&b);
        assert_eq!(h.nnz(), 1);
        assert_eq!(h.get(0, 0), 10.0);
    }

    #[test]
    fn sub_then_prune_drops_cancelled_entries() {
        let a = small();
        let d = a.sub(&a);
        assert_eq!(d.nnz(), 4); // explicit zeros
        assert_eq!(d.prune().nnz(), 0);
    }

    #[test]
    fn spmm_matches_dense() {
        let a = small();
        let b = a.transpose();
        let c = a.spmm(&b);
        c.validate().unwrap();
        let dense = a.to_dense().matmul(&b.to_dense());
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (c.get(i, j) as f32 - dense.get(i, j)).abs() < 1e-6,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn spmm_masked_equals_spmm_then_hadamard_pattern() {
        let a = small();
        let b = a.transpose();
        let mask =
            CsrMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (0, 1, 1.0), (2, 2, 1.0)]).unwrap();
        let fused = a.spmm_masked(&b, &mask);
        fused.validate().unwrap();
        let reference = a.spmm(&b).hadamard(&mask.map_values(|_| 1.0));
        assert_eq!(fused.to_dense(), reference.to_dense());
    }

    #[test]
    fn mul_dense_and_t_mul_dense_match_dense_matmul() {
        let m = small().cast::<f32>();
        let x = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.mul_dense(&x), m.to_dense().matmul(&x));
        assert_eq!(m.t_mul_dense(&x), m.to_dense().transpose().matmul(&x));
    }

    #[test]
    fn vec_products() {
        let m = small();
        let v = vec![1.0, 1.0, 1.0];
        assert_eq!(m.mul_vec(&v), vec![3.0, 0.0, 7.0]);
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let m = small().row_normalized();
        let sums = m.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-12);
        assert_eq!(sums[1], 0.0); // empty row stays empty
        assert!((sums[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degree_sums() {
        let m = small();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn identity_is_spmm_neutral() {
        let m = small();
        let i = CsrMatrix::<f64>::identity(3);
        assert_eq!(m.spmm(&i).to_dense(), m.to_dense());
        assert_eq!(i.spmm(&m).to_dense(), m.to_dense());
    }

    #[test]
    fn filter_and_map_values() {
        let m = small();
        let big = m.filter(|_, _, v| v >= 3.0);
        assert_eq!(big.nnz(), 2);
        let scaled = m.scale(2.0);
        assert_eq!(scaled.get(2, 1), 8.0);
    }
}
