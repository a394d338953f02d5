//! Dense matrix multiplication and transpose.
//!
//! # One kernel
//!
//! `matmul`, `t_matmul` and `matmul_t` all run `product_rows`, handed to
//! `ahntp_par::par_rows` with the product's FLOP count: the pool splits the
//! output rows into bands or calls it once over the whole output, so serial
//! and parallel are the same loop. The right operand is always `k×n`
//! row-major — `matmul_t` packs `Bᵀ` once per call, `n·k` copies against
//! `m·n·k` multiply-adds — and the left one is read where it lies, by rows
//! or, for `t_matmul`, by columns (`Left`).
//!
//! A band is walked in `MR×W` output tiles whose accumulators stay in
//! locals across the whole `k` range: a `k` step loads one tile row of `b`
//! and `MR` scalars of `a` and stores nothing, where a row-at-a-time
//! `i-k-j` loop reloads and stores the output row at every step.
//!
//! # Two instantiations of one source
//!
//! `product_rows` is compiled twice, and only the tile width `W` differs:
//!
//! - the baseline, `W = 8`, for the target's ISA baseline: a 4×8 tile is
//!   eight SSE registers, which every x86-64 has;
//! - the wide one, `W = 32`, inside `product_rows_avx512`, which enables
//!   `avx512f` for itself alone, so LLVM holds a 4×32 tile in eight 16-lane
//!   registers. Everything it calls is `#[inline(always)]`, so the whole
//!   band is compiled into it, with its features.
//!
//! `product` asks the CPU once per call (`is_x86_feature_detected!`, which
//! `std` caches) and hands `par_rows` the wide band when the CPU has
//! AVX-512F, the baseline otherwise. Calling the wide band is this crate's
//! one `unsafe` block. There are no intrinsics and no second algorithm:
//! the lane count is the only difference, so the bits are the same (below),
//! and a CPU without the feature runs the baseline unchanged.
//!
//! # Bits
//!
//! Every output element starts from `+0.0` and adds `a·b` for `k` ascending
//! — one rounded multiply, one rounded add — whatever tile, instantiation
//! or band it falls in, so results are bitwise identical at any thread
//! count, on either instantiation, and to the scalar loops in
//! `tests/par_determinism.rs`. Hence no `mul_add`: a fused multiply-add
//! rounds once and changes bits.
//!
//! Nor is there an `a == 0.0` skip, and for finite `b` none is observable:
//! an accumulator that starts at `+0.0` never holds `-0.0` under
//! round-to-nearest (a sum is `-0.0` only if both addends are, exact
//! cancellation gives `+0.0`, and sums in the subnormal range are exact so
//! none rounds to zero), so adding the `±0.0` of a zero `a` changes no bit.
//! Measured, the branch-free tile beats the skipping loop even on the
//! sparsest post-ReLU operands of a training epoch (half zeros; ROADMAP 3b
//! has the table). What a zero in the left operand no longer does is mask
//! a non-finite value in the right one: `0·inf` is `NaN` in all three
//! products.

use ahntp_telemetry::{counter_add, KernelKind, KernelSpan};

use crate::{Shape, Tensor};

/// Records one dense-product invocation in the global metrics registry:
/// `tensor.matmul.calls` counts every product, `kind_calls` the transposed
/// kinds. `counter_add` is a no-op (one relaxed load) while telemetry is
/// off, and the names are interned at compile time so hot kernels never
/// allocate for metrics.
#[inline]
fn record_matmul(kind_calls: Option<&'static str>, m: usize, n: usize, k: usize, scratch: usize) {
    if !ahntp_telemetry::enabled() {
        return;
    }
    counter_add("tensor.matmul.calls", 1);
    if let Some(name) = kind_calls {
        counter_add(name, 1);
    }
    // Exact: the kernel has no data-dependent skip.
    counter_add("tensor.matmul.flops", 2 * (m * n * k) as u64);
    counter_add(
        "tensor.alloc.bytes",
        ((m * n + scratch) * std::mem::size_of::<f32>()) as u64,
    );
}

/// Output tile held in registers: `MR` rows by the instantiation's width.
const MR: usize = 4;
/// Tile width of the baseline instantiation.
const NR: usize = 8;

/// One band of a product as `par_rows` runs it: `product_rows`'s
/// arguments, `(left, b, k, n, row0, out_band)`.
type Band = fn(Left, &[f32], usize, usize, usize, &mut [f32]);

/// The left operand `A` of `A @ B`, as stored.
#[derive(Clone, Copy)]
enum Left<'a> {
    /// `m×k` row-major (`matmul`, `matmul_t`): `A[i][kk]` is `a[i * k + kk]`.
    Rows(&'a [f32]),
    /// `k×m` row-major, read transposed (`t_matmul`): `A[i][kk]` is
    /// `a[kk * m + i]`; carries `m`.
    Cols(&'a [f32], usize),
}

/// `acc += av ⊗ b_row`: one `k` step of a tile.
#[inline(always)]
fn step<const R: usize, const C: usize>(acc: &mut [[f32; C]; R], av: [f32; R], b_row: &[f32]) {
    for (acc_row, a) in acc.iter_mut().zip(av) {
        for (s, &bv) in acc_row.iter_mut().zip(b_row) {
            *s += a * bv;
        }
    }
}

/// One `R×C` output tile — rows `i..i + R` of the product, columns
/// `j..j + C` — written to the rows `out_rows` starts with: `R·C`
/// accumulators from `+0.0`, `k` ascending, stored once at the end. Each
/// layout gets the `k` loop whose `a` indices the compiler can prove in
/// range; checking them per element costs a third of the throughput.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    left: Left,
    i: usize,
    j: usize,
    b: &[f32],
    n: usize,
    k: usize,
    out_rows: &mut [f32],
) {
    let mut acc = [[0.0f32; C]; R];
    match left {
        Left::Rows(a) => {
            let rows: [&[f32]; R] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
            for kk in 0..k {
                step(
                    &mut acc,
                    std::array::from_fn(|r| rows[r][kk]),
                    &b[kk * n + j..][..C],
                );
            }
        }
        Left::Cols(a, m) => {
            for (a_row, b_row) in a.chunks_exact(m).zip(b.chunks_exact(n)) {
                let av = a_row[i..i + R].try_into().expect("a slice of R elements");
                step(&mut acc, av, &b_row[j..j + C]);
            }
        }
    }
    for (acc_row, out_row) in acc.iter().zip(out_rows.chunks_mut(n)) {
        out_row[j..j + C].copy_from_slice(acc_row);
    }
}

/// `R` whole output rows: `W`-wide tiles, then one tile each of 16, 8 and
/// 4 columns where it fits and is narrower than `W`, then single columns.
#[inline(always)]
fn strip<const R: usize, const W: usize>(
    left: Left,
    i: usize,
    b: &[f32],
    n: usize,
    k: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while n - j >= W {
        tile::<R, W>(left, i, j, b, n, k, out);
        j += W;
    }
    if W > 16 && n - j >= 16 {
        tile::<R, 16>(left, i, j, b, n, k, out);
        j += 16;
    }
    if W > 8 && n - j >= 8 {
        tile::<R, 8>(left, i, j, b, n, k, out);
        j += 8;
    }
    if n - j >= 4 {
        tile::<R, 4>(left, i, j, b, n, k, out);
        j += 4;
    }
    while j < n {
        tile::<R, 1>(left, i, j, b, n, k, out);
        j += 1;
    }
}

/// The band kernel of all three products at tile width `W`: fills output
/// rows `row0..` of `A @ B` with `b` the `k×n` row-major right operand.
/// Only reached through `par_rows`, so `out_band` is whole rows and never
/// empty.
#[inline(always)]
fn product_rows<const W: usize>(
    left: Left,
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_band: &mut [f32],
) {
    let rows = out_band.len() / n;
    let mut i = 0;
    while i < rows {
        let out = &mut out_band[i * n..];
        // One output column has no width to vectorise over; eight rows at a
        // time keep eight independent add chains in flight instead.
        i += if n == 1 && rows - i >= 8 {
            tile::<8, 1>(left, row0 + i, 0, b, n, k, out);
            8
        } else if rows - i >= MR {
            strip::<MR, W>(left, row0 + i, b, n, k, out);
            MR
        } else {
            strip::<1, W>(left, row0 + i, b, n, k, out);
            1
        };
    }
}

/// `product_rows` with 4×32 tiles, compiled with AVX-512F enabled so that
/// the same source runs on 16-lane registers. Only `wide_band` calls it,
/// after checking the CPU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn product_rows_avx512(
    left: Left,
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_band: &mut [f32],
) {
    product_rows::<32>(left, b, k, n, row0, out_band)
}

/// The wide band, if this CPU can run it.
#[allow(unsafe_code)]
fn wide_band() -> Option<Band> {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx512f") {
        let band: Band = |left, b, k, n, row0, out_band| {
            // SAFETY: `product_rows_avx512` needs AVX-512F and nothing
            // else, and this band is only returned once the check above
            // has found it on this CPU.
            unsafe { product_rows_avx512(left, b, k, n, row0, out_band) }
        };
        return Some(band);
    }
    None
}

/// Allocates the `m×n` output and fills it with `A @ B` through the widest
/// band this CPU runs, banded across the pool when the work is worth it.
fn product(par_calls: &str, left: Left, b: &[f32], (m, n, k): (usize, usize, usize)) -> Vec<f32> {
    let band = wide_band().unwrap_or(product_rows::<NR>);
    let mut out = vec![0.0f32; m * n];
    ahntp_par::par_rows(&mut out, n, 2 * m * n * k, par_calls, |row0, out_band| {
        band(left, b, k, n, row0, out_band)
    });
    out
}

impl Tensor {
    /// Dense matrix product `self @ other`.
    ///
    /// Vectors are promoted to matrices in the only way that makes the
    /// product well-formed (`[n]` on the left acts as `1 x n`; on the right
    /// as `n x 1`), and the result is demoted back to a vector when one side
    /// was a vector. Runs the register-tiled kernel of the module docs;
    /// large products are row-partitioned across the worker pool with
    /// bitwise-identical results. A zero in `self` does not mask a
    /// non-finite value in `other`: `0·inf` is `NaN`.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k1) = (self.rows(), self.cols());
        // A vector on the right is a column, which is how its data lies.
        let (k2, n) = match other.shape() {
            Shape::Matrix(r, c) => (r, c),
            Shape::Vector(len) => (len, 1),
        };
        assert_eq!(
            k1,
            k2,
            "Tensor::matmul: inner dimensions disagree: {} @ {}",
            self.shape(),
            other.shape()
        );
        let k = k1;
        record_matmul(None, m, n, k, 0);
        let _k = KernelSpan::enter("tensor.matmul", KernelKind::Matmul);
        let left = Left::Rows(&self.data);
        let out = product("tensor.matmul.par_calls", left, &other.data, (m, n, k));
        let shape = match (self.shape(), other.shape()) {
            (Shape::Vector(_), Shape::Matrix(_, c)) => Shape::Vector(c),
            (Shape::Matrix(r, _), Shape::Vector(_)) => Shape::Vector(r),
            (Shape::Vector(_), Shape::Vector(_)) => Shape::Vector(1),
            _ => Shape::Matrix(m, n),
        };
        Tensor { data: out, shape }
    }

    /// `self^T @ other` without materialising the transpose. As in
    /// [`Tensor::matmul`], `0·inf` is `NaN`.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        // (A^T B)_{ij} = sum_k A_{ki} B_{kj}: A^T is A read by columns.
        let (k1, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k1,
            k2,
            "Tensor::t_matmul: row counts disagree: {} vs {}",
            self.shape(),
            other.shape()
        );
        record_matmul(Some("tensor.t_matmul.calls"), m, n, k1, 0);
        let _k = KernelSpan::enter("tensor.t_matmul", KernelKind::Matmul);
        let left = Left::Cols(&self.data, m);
        let out = product("tensor.t_matmul.par_calls", left, &other.data, (m, n, k1));
        Tensor {
            data: out,
            shape: Shape::Matrix(m, n),
        }
    }

    /// `self @ other^T` without the caller materialising the transpose. As
    /// in [`Tensor::matmul`], `0·inf` is `NaN`.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        // (A B^T)_{ij} = dot(A_i, B_j), accumulated left to right. The tile
        // wants B^T's rows contiguous, so pack it once: n·k copies.
        let (m, k1) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(
            k1,
            k2,
            "Tensor::matmul_t: column counts disagree: {} vs {}",
            self.shape(),
            other.shape()
        );
        record_matmul(Some("tensor.matmul_t.calls"), m, n, k1, n * k1);
        let _k = KernelSpan::enter("tensor.matmul_t", KernelKind::Matmul);
        let left = Left::Rows(&self.data);
        let bt = other.transpose();
        let out = product("tensor.matmul_t.par_calls", left, &bt.data, (m, n, k1));
        Tensor {
            data: out,
            shape: Shape::Matrix(m, n),
        }
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Tensor {
        match self.shape() {
            Shape::Vector(_) => self.clone(),
            Shape::Matrix(r, c) => {
                let mut out = vec![0.0f32; r * c];
                for i in 0..r {
                    for j in 0..c {
                        out[j * r + i] = self.data[i * c + j];
                    }
                }
                Tensor {
                    data: out,
                    shape: Shape::Matrix(c, r),
                }
            }
        }
    }

    /// Dot product of two equal-length vectors (or flattened tensors of the
    /// same shape).
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Tensor::dot: shape mismatch {} vs {}",
            self.shape(),
            other.shape()
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn vector_promotions() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = Tensor::vector(vec![1.0, 1.0]);
        // A @ v = row sums
        let av = a.matmul(&v);
        assert_eq!(av.shape(), Shape::Vector(2));
        assert_eq!(av.as_slice(), &[3.0, 7.0]);
        // v @ A = column sums
        let va = v.matmul(&a);
        assert_eq!(va.shape(), Shape::Vector(2));
        assert_eq!(va.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn fused_transpose_products_match_explicit() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]); // 2x3
        let b = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]); // 2x2
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
        let c = Tensor::from_rows(&[&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]]); // 2x3
        assert_eq!(a.matmul_t(&c), a.matmul(&c.transpose()));
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::vector(vec![1.0, 2.0, 3.0]);
        let b = Tensor::vector(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn a_zero_does_not_mask_a_non_finite_factor() {
        // [0, 1] · [inf, 2], laid out for each product: 0·inf is NaN. (The
        // zero-skipping loops this kernel replaced returned 2 from the
        // first two.)
        let a = Tensor::from_rows(&[&[0.0, 1.0]]);
        let b = Tensor::from_rows(&[&[f32::INFINITY], &[2.0]]);
        assert!(a.matmul(&b).get(0, 0).is_nan(), "matmul");
        assert!(a.transpose().t_matmul(&b).get(0, 0).is_nan(), "t_matmul");
        assert!(a.matmul_t(&b.transpose()).get(0, 0).is_nan(), "matmul_t");
    }

    /// `len` values of the mix `tests/par_determinism.rs` feeds the dense
    /// products: both zeros, subnormals, and magnitudes whose products and
    /// sums overflow to `inf` and on to `NaN`.
    fn edgy(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                match (h >> 16) % 12 {
                    0 | 1 => 0.0,
                    2 => -0.0,
                    3 => 1e-41,
                    4 => -3e-39,
                    5 => 2.5e30,
                    6 => -1.5e25,
                    _ => (h % 1000) as f32 / 500.0 - 1.0,
                }
            })
            .collect()
    }

    #[test]
    fn the_wide_instantiation_is_bitwise_the_baseline() {
        let Some(wide) = wide_band() else {
            // Written past the harness's output capture, so that a run on a
            // CPU without AVX-512F says this test compared nothing.
            let note = "matmul: no avx512f on this CPU; the wide instantiation was not exercised\n";
            std::io::Write::write_all(&mut std::io::stderr(), note.as_bytes())
                .expect("stderr is writable");
            return;
        };
        // Widths around every tile the wide strip walks (32, 16, 8, 4, 1)
        // and the baseline's (8, 4, 1); single-row and 4-row strips.
        for m in [1, 5, 13] {
            for n in [1, 4, 8, 15, 16, 17, 31, 32, 33, 48, 64, 65] {
                for k in [0, 1, 17, 64] {
                    let (a, b) = (edgy(m * k, 41), edgy(k * n, 42));
                    for (layout, left) in [("rows", Left::Rows(&a)), ("cols", Left::Cols(&a, m))] {
                        let bits = |band: Band| -> Vec<u32> {
                            let mut out = vec![0.0f32; m * n];
                            band(left, &b, k, n, 0, &mut out);
                            out.iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(
                            bits(wide),
                            bits(product_rows::<NR>),
                            "{m}x{k}x{n}, left operand by {layout}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn counters_are_exact_for_one_product_of_each_kind() {
        use ahntp_telemetry::counter_get;
        let (a, b) = (Tensor::zeros(5, 3), Tensor::zeros(3, 7));
        let (at, bt) = (a.transpose(), b.transpose());
        ahntp_par::Context::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            a.matmul(&b);
            at.t_matmul(&b);
            a.matmul_t(&bt);
            assert_eq!(counter_get("tensor.matmul.calls"), 3, "every dense product");
            assert_eq!(counter_get("tensor.t_matmul.calls"), 1);
            assert_eq!(counter_get("tensor.matmul_t.calls"), 1);
            // 2·m·n·k each: the kernel skips nothing, zeros included.
            assert_eq!(counter_get("tensor.matmul.flops"), 3 * 2 * 5 * 7 * 3);
            // Three 5×7 outputs and matmul_t's packed 3×7 transpose.
            assert_eq!(counter_get("tensor.alloc.bytes"), (3 * 5 * 7 + 3 * 7) * 4);
        });
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_rejects_bad_inner_dim() {
        Tensor::zeros(2, 3).matmul(&Tensor::zeros(2, 3));
    }
}
