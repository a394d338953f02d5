//! Bitwise determinism of every parallelized kernel.
//!
//! The `ahntp-par` contract is that banding work across the pool never
//! changes results — not "close", *bitwise identical* — because every
//! output element is produced by exactly one task with the serial
//! accumulation order. These tests force the parallel path (threshold 0)
//! and compare each kernel at 1, 2, and 7 threads against the serial
//! result, including ragged shapes with fewer rows than threads.
//!
//! Since the kernels have one loop body each (`ahntp_par::par_rows` /
//! `par_bands` call it once when serial), "serial" is no longer a separate
//! implementation to compare against: `naive_references_match_bitwise`
//! pins the kernels that lost their hand-written serial loop to a scalar
//! loop written here — for the dense products, the scalar loops (zero-skip
//! included) that the register-tiled kernel replaced.
//!
//! Tests in this binary share the process-wide pool configuration;
//! `ahntp_par::with_pool` serialises them and restores it.

use ahntp_tensor::{CsrMatrix, Tensor};

/// Thread counts exercised: serial fallback, even split, and a count
/// larger than some test shapes' row counts.
const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Runs `compute` at every thread count with the parallel threshold
/// forced to zero and asserts the f32 outputs are bitwise identical to
/// the 1-thread (exact serial) result.
fn assert_bitwise_stable(what: &str, compute: impl Fn() -> Vec<f32>) {
    let mut reference: Option<Vec<u32>> = None;
    for &t in &THREAD_COUNTS {
        let bits: Vec<u32> =
            ahntp_par::with_pool(t, 0, || compute().iter().map(|v| v.to_bits()).collect());
        match &reference {
            None => reference = Some(bits),
            Some(want) => assert_eq!(
                want, &bits,
                "{what}: result at {t} threads differs from serial"
            ),
        }
    }
}

/// Deterministic pseudo-random matrix without pulling in a RNG: values
/// mix positives, negatives, and exact zeros (to exercise the zero-skip
/// branches in matmul and the sparse gathers).
fn dense(rows: usize, cols: usize, salt: u32) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            if h.is_multiple_of(5) {
                0.0
            } else {
                (h % 1000) as f32 / 500.0 - 1.0
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data).expect("length matches by construction")
}

fn sparse(rows: usize, cols: usize, salt: u32) -> CsrMatrix<f32> {
    CsrMatrix::from_dense(&dense(rows, cols, salt))
}

/// Shapes chosen so banding is ragged: row counts below, at, and above
/// the 7-thread band count, plus single-row and tall-thin cases.
const SHAPES: [(usize, usize, usize); 4] = [
    (3, 5, 4),   // fewer rows than threads
    (7, 7, 7),   // exactly one row per band at 7 threads
    (13, 6, 9),  // ragged final band
    (40, 17, 8), // several rows per band
];

/// Like [`dense`], with the values a rewritten dense kernel could treat
/// differently mixed in: both zeros (the old loops skipped them in the left
/// operand), subnormals, and magnitudes whose products and sums overflow.
fn edgy(rows: usize, cols: usize, salt: u32) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            match (h >> 16) % 12 {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => 1e-41,  // subnormal
                4 => -3e-39, // subnormal
                5 => 2.5e30, // squares to +inf
                6 => -1.5e25,
                _ => (h % 1000) as f32 / 500.0 - 1.0,
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data).expect("length matches by construction")
}

/// `(m, k, n)` for the reference table: [`SHAPES`], then every combination
/// of sizes around the dense kernel's 4×8 tile and, on a CPU with AVX-512F,
/// its 4×32 one — full tiles, the 16-, 8- and 4-wide and single-column
/// remainders, single-row remainders, the one-column product, and inner
/// dimensions from none to many.
fn reference_shapes() -> Vec<(usize, usize, usize)> {
    let mut shapes = SHAPES.to_vec();
    for m in [1, 3, 4, 5, 13] {
        for n in [1, 4, 7, 8, 9, 16, 28, 32, 33, 48, 64] {
            shapes.extend([0, 1, 17, 64].map(|k| (m, k, n)));
        }
    }
    shapes
}

#[test]
fn dense_products_are_bitwise_stable() {
    for &(m, k, n) in &SHAPES {
        let a = dense(m, k, 1);
        let b = dense(k, n, 2);
        assert_bitwise_stable(&format!("matmul {m}x{k}x{n}"), || {
            a.matmul(&b).as_slice().to_vec()
        });
        let at = dense(k, m, 3);
        assert_bitwise_stable(&format!("t_matmul {m}x{k}x{n}"), || {
            at.t_matmul(&b).as_slice().to_vec()
        });
        let bt = dense(n, k, 4);
        assert_bitwise_stable(&format!("matmul_t {m}x{k}x{n}"), || {
            a.matmul_t(&bt).as_slice().to_vec()
        });
    }
}

#[test]
fn sparse_kernels_are_bitwise_stable() {
    for &(m, k, n) in &SHAPES {
        let s = sparse(m, k, 5);
        let x = dense(k, n, 6);
        assert_bitwise_stable(&format!("mul_dense {m}x{k}x{n}"), || {
            s.mul_dense(&x).as_slice().to_vec()
        });
        let y = dense(m, n, 7);
        assert_bitwise_stable(&format!("t_mul_dense {m}x{k}x{n}"), || {
            s.t_mul_dense(&y).as_slice().to_vec()
        });
        let v: Vec<f32> = (0..k).map(|i| i as f32 * 0.25 - 1.0).collect();
        assert_bitwise_stable(&format!("mul_vec {m}x{k}"), || s.mul_vec(&v));
        let t = sparse(k, n, 8);
        assert_bitwise_stable(&format!("spmm {m}x{k}x{n}"), || {
            let p = s.spmm(&t);
            p.validate().expect("spmm output is valid CSR");
            p.to_dense().as_slice().to_vec()
        });
    }
}

#[test]
fn spmm_parallel_stitching_preserves_structure() {
    // Structure (row_ptr / col_idx), not just values, must be banding
    // independent — the CSR fragments are concatenated across bands.
    let a = sparse(13, 9, 11);
    let b = sparse(9, 12, 12);
    let serial = ahntp_par::with_pool(1, 0, || a.spmm(&b));
    for t in [2, 7] {
        let par = ahntp_par::with_pool(t, 0, || a.spmm(&b));
        assert_eq!(serial.row_ptr(), par.row_ptr(), "row_ptr at {t} threads");
        assert_eq!(
            serial.col_indices(),
            par.col_indices(),
            "col_idx at {t} threads"
        );
        assert_eq!(serial.values(), par.values(), "values at {t} threads");
    }
}

#[test]
fn elementwise_ops_are_bitwise_stable() {
    for &(m, _, n) in &SHAPES {
        let a = dense(m, n, 13);
        let b = dense(m, n, 14);
        assert_bitwise_stable(&format!("map {m}x{n}"), || {
            a.map(|v| (v * 1.7).tanh()).as_slice().to_vec()
        });
        assert_bitwise_stable(&format!("zip {m}x{n}"), || {
            a.zip(&b, |x, y| x * y + 0.5).as_slice().to_vec()
        });
        assert_bitwise_stable(&format!("axpy {m}x{n}"), || {
            let mut c = a.clone();
            c.axpy_inplace(-0.3, &b);
            c.as_slice().to_vec()
        });
        let bias = dense(1, n, 15).row(0).to_vec();
        assert_bitwise_stable(&format!("add_row_broadcast {m}x{n}"), || {
            a.add_row_broadcast(&Tensor::vector(bias.clone()))
                .as_slice()
                .to_vec()
        });
        let scales = dense(1, m, 16).row(0).to_vec();
        assert_bitwise_stable(&format!("scale_rows {m}x{n}"), || {
            a.scale_rows(&Tensor::vector(scales.clone()))
                .as_slice()
                .to_vec()
        });
    }
}

#[test]
fn row_reductions_are_bitwise_stable() {
    for &(m, _, n) in &SHAPES {
        let a = dense(m, n, 17);
        assert_bitwise_stable(&format!("row_sums {m}x{n}"), || {
            a.row_sums().as_slice().to_vec()
        });
        assert_bitwise_stable(&format!("row_norms {m}x{n}"), || {
            a.row_norms().as_slice().to_vec()
        });
        assert_bitwise_stable(&format!("softmax_rows {m}x{n}"), || {
            a.softmax_rows().as_slice().to_vec()
        });
        assert_bitwise_stable(&format!("normalize_rows {m}x{n}"), || {
            a.normalize_rows().as_slice().to_vec()
        });
    }
}

#[test]
fn f64_mul_vec_is_bitwise_stable() {
    // The PageRank path runs in f64; check that precision too.
    let s: CsrMatrix<f64> = CsrMatrix::from_dense(&dense(23, 11, 19));
    let v: Vec<f64> = (0..11).map(|i| f64::from(i as u32) * 0.125 - 0.5).collect();
    let bits = |t: usize| -> Vec<u64> {
        ahntp_par::with_pool(t, 0, || s.mul_vec(&v).iter().map(|x| x.to_bits()).collect())
    };
    let serial = bits(1);
    for t in [2, 7] {
        assert_eq!(serial, bits(t), "f64 mul_vec at {t} threads");
    }
}

/// One kernel under test next to a naive scalar version of it.
type Case = (
    &'static str,
    fn(&Inputs) -> Vec<f32>,
    fn(&Inputs) -> Vec<f32>,
);

/// Operands shared by every row of the reference table.
struct Inputs {
    a: Tensor,
    b: Tensor,
    /// One value per column of `a`.
    bias: Vec<f32>,
    /// One value per row of `a`.
    scales: Vec<f32>,
    /// `a`'s nonzeros as CSR.
    s: CsrMatrix<f32>,
    /// Operands of the dense products, `m×k` and `k×n`, and their
    /// transposes for the two fused-transpose kernels.
    left: Tensor,
    right: Tensor,
    left_t: Tensor,
    right_t: Tensor,
}

/// Applies `row_fn` to each row of `t`, concatenating what it returns.
fn per_row(t: &Tensor, row_fn: impl Fn(usize, &[f32]) -> Vec<f32>) -> Vec<f32> {
    (0..t.rows()).flat_map(|r| row_fn(r, t.row(r))).collect()
}

/// Left-to-right scalar sum, the order the row kernels accumulate in.
fn sum_of(values: impl Iterator<Item = f32>) -> f32 {
    let mut acc = 0.0f32;
    for v in values {
        acc += v;
    }
    acc
}

/// The three dense products as scalar loops: what `matmul.rs` ran before
/// its register tile, kept here as the reference. `matmul` and `t_matmul`
/// skip zeros of the left operand and accumulate into the output;
/// `matmul_t` is one dot product per element.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let aik = a[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += aik * b[kk * n + j];
            }
        }
    }
    out
}

fn naive_t_matmul(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for kk in 0..k {
        for i in 0..m {
            let aki = a[kk * m + i];
            if aki == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += aki * b[kk * n + j];
            }
        }
    }
    out
}

fn naive_matmul_t(a: &Tensor, b: &Tensor) -> Vec<f32> {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = sum_of((0..k).map(|kk| a[i * k + kk] * b[j * k + kk]));
        }
    }
    out
}

/// `t` as the vector `matmul` promotes back to it: a single row on the left
/// of a product, a single column on the right.
fn as_vector_if(single: bool, t: &Tensor) -> Tensor {
    if single {
        Tensor::vector(t.as_slice().to_vec())
    } else {
        t.clone()
    }
}

#[test]
fn naive_references_match_bitwise() {
    // The kernels below used to carry a hand-written serial loop beside
    // the banded one; now the band closure is the only implementation.
    // Each is compared, at every thread count, against an index-by-index
    // scalar version that shares no code with it.
    const CASES: &[Case] = &[
        (
            "map",
            |i| i.a.map(|v| (v * 1.7).tanh()).as_slice().to_vec(),
            |i| i.a.as_slice().iter().map(|&v| (v * 1.7).tanh()).collect(),
        ),
        (
            "zip",
            |i| i.a.zip(&i.b, |x, y| x * y + 0.5).as_slice().to_vec(),
            |i| {
                (0..i.a.len())
                    .map(|e| i.a.as_slice()[e] * i.b.as_slice()[e] + 0.5)
                    .collect()
            },
        ),
        (
            "axpy_inplace",
            |i| {
                let mut c = i.a.clone();
                c.axpy_inplace(-0.3, &i.b);
                c.as_slice().to_vec()
            },
            |i| {
                (0..i.a.len())
                    .map(|e| i.a.as_slice()[e] + -0.3 * i.b.as_slice()[e])
                    .collect()
            },
        ),
        (
            "add_row_broadcast",
            |i| {
                i.a.add_row_broadcast(&Tensor::vector(i.bias.clone()))
                    .as_slice()
                    .to_vec()
            },
            |i| {
                per_row(&i.a, |_, row| {
                    (0..row.len()).map(|c| row[c] + i.bias[c]).collect()
                })
            },
        ),
        (
            "scale_rows",
            |i| {
                i.a.scale_rows(&Tensor::vector(i.scales.clone()))
                    .as_slice()
                    .to_vec()
            },
            |i| {
                per_row(&i.a, |r, row| {
                    row.iter().map(|&v| v * i.scales[r]).collect()
                })
            },
        ),
        (
            "row_sums",
            |i| i.a.row_sums().as_slice().to_vec(),
            |i| per_row(&i.a, |_, row| vec![sum_of(row.iter().copied())]),
        ),
        (
            "row_norms",
            |i| i.a.row_norms().as_slice().to_vec(),
            |i| {
                per_row(&i.a, |_, row| {
                    vec![sum_of(row.iter().map(|&v| v * v)).sqrt()]
                })
            },
        ),
        (
            "softmax_rows",
            |i| i.a.softmax_rows().as_slice().to_vec(),
            |i| {
                per_row(&i.a, |_, row| {
                    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let e: Vec<f32> = row.iter().map(|&v| (v - m).exp()).collect();
                    let z = sum_of(e.iter().copied());
                    e.iter().map(|&v| v / z).collect()
                })
            },
        ),
        (
            "normalize_rows",
            |i| i.a.normalize_rows().as_slice().to_vec(),
            |i| {
                per_row(&i.a, |_, row| {
                    let n = sum_of(row.iter().map(|&v| v * v)).sqrt();
                    row.iter()
                        .map(|&v| if n > 0.0 { v / n } else { v })
                        .collect()
                })
            },
        ),
        (
            "mul_vec",
            |i| i.s.mul_vec(&i.bias),
            |i| {
                // Stored entries only, ascending column: CSR row order.
                per_row(&i.a, |_, row| {
                    let stored = (0..row.len()).filter(|&c| row[c] != 0.0);
                    vec![sum_of(stored.map(|c| row[c] * i.bias[c]))]
                })
            },
        ),
        (
            "matmul",
            |i| i.left.matmul(&i.right).as_slice().to_vec(),
            |i| naive_matmul(&i.left, &i.right),
        ),
        (
            "matmul of vectors",
            |i| {
                let left = as_vector_if(i.left.rows() == 1, &i.left);
                let right = as_vector_if(i.right.cols() == 1, &i.right);
                left.matmul(&right).as_slice().to_vec()
            },
            |i| naive_matmul(&i.left, &i.right),
        ),
        (
            "t_matmul",
            |i| i.left_t.t_matmul(&i.right).as_slice().to_vec(),
            |i| naive_t_matmul(&i.left_t, &i.right),
        ),
        (
            "matmul_t",
            |i| i.left.matmul_t(&i.right_t).as_slice().to_vec(),
            |i| naive_matmul_t(&i.left, &i.right_t),
        ),
    ];
    for (m, k, n) in reference_shapes() {
        let a = dense(m, n, 21);
        let (left, right) = (edgy(m, k, 25), edgy(k, n, 26));
        let inputs = Inputs {
            b: dense(m, n, 22),
            bias: dense(1, n, 23).row(0).to_vec(),
            scales: dense(1, m, 24).row(0).to_vec(),
            s: CsrMatrix::from_dense(&a),
            a,
            left_t: left.transpose(),
            right_t: right.transpose(),
            left,
            right,
        };
        for &(name, kernel, naive) in CASES {
            let want: Vec<u32> = naive(&inputs).iter().map(|v| v.to_bits()).collect();
            for &t in &THREAD_COUNTS {
                let got: Vec<u32> = ahntp_par::with_pool(t, 0, || {
                    kernel(&inputs).iter().map(|v| v.to_bits()).collect()
                });
                assert_eq!(
                    got, want,
                    "{name} {m}x{k}x{n} at {t} threads differs from the naive loop"
                );
            }
        }
    }
}
