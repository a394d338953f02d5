//! Every kernel against a naive scalar loop, bit for bit.
//!
//! Each kernel is one loop on the calling thread, and each is compared
//! here against an index-by-index scalar version that shares no code with
//! it — for the dense products, the scalar loops (zero-skip included) that
//! the register-tiled kernel replaced; for the sparse products, the dense
//! sums over stored entries in storage order.

use ahntp_tensor::{CsrMatrix, Tensor};

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

/// Small, square, ragged and tall-thin `(m, k, n)` shapes.
const SHAPES: [(usize, usize, usize); 4] = [(3, 5, 4), (7, 7, 7), (13, 6, 9), (40, 17, 8)];

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

/// `a @ b` in CSR parts `(row_ptr, col_idx, values)` from a naive pass: for each
/// output row, the stored entries of `a`'s row in column order, each
/// fanning out over the stored entries of `b`'s row, into the columns it
/// touches — the pattern `spmm` emits, explicit zeros included.
fn naive_spmm(a: &Tensor, b: &Tensor) -> (Vec<usize>, Vec<usize>, Vec<f32>) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (mut row_ptr, mut cols, mut values) = (vec![0], Vec::new(), Vec::new());
    for i in 0..m {
        for j in 0..n {
            let terms: Vec<f32> = (0..k)
                .filter(|&kk| a.get(i, kk) != 0.0 && b.get(kk, j) != 0.0)
                .map(|kk| a.get(i, kk) * b.get(kk, j))
                .collect();
            if !terms.is_empty() {
                cols.push(j);
                values.push(sum_of(terms.into_iter()));
            }
        }
        row_ptr.push(cols.len());
    }
    (row_ptr, cols, values)
}

#[test]
fn spmm_structure_matches_a_naive_product() {
    // Structure (row_ptr / col_idx), not just values: a column whose terms
    // cancel is still stored.
    let cancel = Tensor::from_rows(&[&[1.0, 1.0], &[0.0, 2.0]]);
    let opposite = Tensor::from_rows(&[&[3.0, 0.0], &[-3.0, 5.0]]);
    for (a, b) in [
        (dense(13, 9, 11), dense(9, 12, 12)),
        (dense(40, 17, 5), dense(17, 8, 8)),
        (cancel, opposite),
    ] {
        let p = CsrMatrix::from_dense(&a).spmm(&CsrMatrix::from_dense(&b));
        p.validate().expect("spmm output is valid CSR");
        let (row_ptr, cols, values) = naive_spmm(&a, &b);
        assert_eq!(p.row_ptr(), row_ptr.as_slice(), "row_ptr");
        assert_eq!(p.col_indices(), cols.as_slice(), "col_idx");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(p.values()), bits(&values), "values");
    }
}

#[test]
fn f64_mul_vec_matches_a_naive_loop() {
    // The PageRank path runs in f64; check that precision too.
    let a = dense(23, 11, 19);
    let s: CsrMatrix<f64> = CsrMatrix::from_dense(&a);
    let v: Vec<f64> = (0..11).map(|i| f64::from(i as u32) * 0.125 - 0.5).collect();
    let want: Vec<u64> = (0..a.rows())
        .map(|r| {
            let mut acc = 0.0f64;
            for c in (0..a.cols()).filter(|&c| a.get(r, c) != 0.0) {
                acc += f64::from(a.get(r, c)) * v[c];
            }
            acc.to_bits()
        })
        .collect();
    let got: Vec<u64> = s.mul_vec(&v).iter().map(|x| x.to_bits()).collect();
    assert_eq!(got, want);
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
    /// `b` transposed: the dense operand of `s.mul_dense`.
    b_t: Tensor,
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
    // Each kernel is compared against an index-by-index scalar version
    // that shares no code with it.
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
            "mul_dense",
            |i| i.s.mul_dense(&i.b_t).as_slice().to_vec(),
            |i| {
                // Stored entries of each row of `s`, ascending column.
                per_row(&i.a, |_, row| {
                    (0..i.b_t.cols())
                        .map(|j| {
                            let stored = (0..row.len()).filter(|&c| row[c] != 0.0);
                            sum_of(stored.map(|c| row[c] * i.b_t.get(c, j)))
                        })
                        .collect()
                })
            },
        ),
        (
            "t_mul_dense",
            |i| i.s.t_mul_dense(&i.b).as_slice().to_vec(),
            |i| {
                // Output row `c` sums over the rows of `s` storing column
                // `c`, ascending.
                let (m, n) = (i.a.rows(), i.a.cols());
                (0..n)
                    .flat_map(|c| {
                        (0..n).map(move |j| {
                            let stored = (0..m).filter(|&r| i.a.get(r, c) != 0.0);
                            sum_of(stored.map(|r| i.a.get(r, c) * i.b.get(r, j)))
                        })
                    })
                    .collect()
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
        let b = dense(m, n, 22);
        let inputs = Inputs {
            b_t: b.transpose(),
            b,
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
            let got: Vec<u32> = kernel(&inputs).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{name} {m}x{k}x{n} differs from the naive loop");
        }
    }
}
