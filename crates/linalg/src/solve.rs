//! Triangular solves used by the interpolative decomposition and the
//! ULV-style HSS factorization.
//!
//! The ID needs `T = R11^{-1} R12` where `R11` is the leading `k x k` upper
//! triangle of the pivoted-QR factor.  We solve column by column with plain
//! back-substitution; `k` is bounded by the maximum submatrix rank (256 in the
//! paper's default configuration), so this is never a bottleneck.
//!
//! The lower-triangular variants are the forward/backward substitution
//! kernels of the Cholesky-based solves (`crate::chol`, `matrox-factor`):
//! the ULV sweeps solve `L y = b` on the way up and `L^T x = y` on the way
//! down, both against the same stored lower factor.

use crate::matrix::Matrix;

/// Solve `U x = b` where `U` is the upper-triangular leading block of `u`
/// (only entries `u[i][j]` with `j >= i` and `i, j < n` are referenced).
///
/// # Panics
/// Panics on dimension mismatch or on an exactly singular diagonal entry.
pub fn solve_upper_triangular(u: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = b.len();
    assert!(u.rows() >= n && u.cols() >= n, "solve: U too small");
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut acc = x[i];
        let row = u.row(i);
        for j in (i + 1)..n {
            acc -= row[j] * x[j];
        }
        let d = row[i];
        assert!(d != 0.0, "solve_upper_triangular: singular diagonal at {i}");
        x[i] = acc / d;
    }
    x
}

/// Solve `U X = B` column-by-column, where `U` is `k x k` upper triangular
/// (taken from the leading block of `u`) and `B` is `k x n`.
pub fn solve_upper_triangular_matrix(u: &Matrix, b: &Matrix) -> Matrix {
    let k = b.rows();
    let n = b.cols();
    let mut x = Matrix::zeros(k, n);
    // Back-substitution over all right-hand sides at once, row-major friendly:
    // process rows bottom-up, updating full rows.  Row `i` of `x` is its own
    // accumulator, and the already-solved rows below it are read in place, so
    // the solve allocates nothing beyond `x`.
    for i in (0..k).rev() {
        let urow_i = u.row(i);
        let d = urow_i[i];
        assert!(
            d != 0.0,
            "solve_upper_triangular_matrix: singular diagonal at {i}"
        );
        // x[i, :] = (b[i, :] - sum_{j>i} U[i,j] * x[j, :]) / d
        let (head, solved) = x.as_mut_slice().split_at_mut((i + 1) * n);
        let acc = &mut head[i * n..];
        acc.copy_from_slice(b.row(i));
        // `max(1)`: `chunks_exact` rejects 0, and with no columns there are
        // no solved rows to read anyway.
        for (uij, xrow) in urow_i[i + 1..k].iter().zip(solved.chunks_exact(n.max(1))) {
            if *uij == 0.0 {
                continue;
            }
            for (a, xc) in acc.iter_mut().zip(xrow) {
                *a -= uij * xc;
            }
        }
        for a in acc.iter_mut() {
            *a /= d;
        }
    }
    x
}

/// Solve `L x = b` where `L` is the lower-triangular leading block of `l`
/// (only entries `l[i][j]` with `j <= i` and `i, j < b.len()` are
/// referenced).
///
/// # Panics
/// Panics on dimension mismatch or on an exactly singular diagonal entry.
pub fn solve_lower_triangular(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = b.len();
    assert!(l.rows() >= n && l.cols() >= n, "solve: L too small");
    let mut x = b.to_vec();
    for i in 0..n {
        let row = l.row(i);
        let mut acc = x[i];
        for j in 0..i {
            acc -= row[j] * x[j];
        }
        let d = row[i];
        assert!(d != 0.0, "solve_lower_triangular: singular diagonal at {i}");
        x[i] = acc / d;
    }
    x
}

/// Solve `L X = B` by forward substitution over all right-hand sides at
/// once, where `L` is `k x k` lower triangular (taken from the leading block
/// of `l`) and `B` is `k x n`.  This is the upward half of the ULV leaf
/// solves.
pub fn solve_lower_triangular_matrix(l: &Matrix, b: &Matrix) -> Matrix {
    let k = b.rows();
    let n = b.cols();
    assert!(l.rows() >= k && l.cols() >= k, "solve: L too small");
    let mut x = Matrix::zeros(k, n);
    for i in 0..k {
        let lrow_i = l.row(i).to_vec();
        let d = lrow_i[i];
        assert!(
            d != 0.0,
            "solve_lower_triangular_matrix: singular diagonal at {i}"
        );
        let mut acc = b.row(i).to_vec();
        for j in 0..i {
            let lij = lrow_i[j];
            if lij == 0.0 {
                continue;
            }
            let xrow = x.row(j).to_vec();
            for c in 0..n {
                acc[c] -= lij * xrow[c];
            }
        }
        for c in 0..n {
            acc[c] /= d;
        }
        x.row_mut(i).copy_from_slice(&acc);
    }
    x
}

/// Solve `L^T X = B` against the *stored lower* factor `L` (the backward
/// half of a Cholesky solve, without materializing the transpose).
pub fn solve_lower_transpose_matrix(l: &Matrix, b: &Matrix) -> Matrix {
    let k = b.rows();
    let n = b.cols();
    assert!(l.rows() >= k && l.cols() >= k, "solve: L too small");
    let mut x = Matrix::zeros(k, n);
    for i in (0..k).rev() {
        let d = l.get(i, i);
        assert!(
            d != 0.0,
            "solve_lower_transpose_matrix: singular diagonal at {i}"
        );
        let mut acc = b.row(i).to_vec();
        for j in (i + 1)..k {
            // (L^T)[i, j] = L[j, i]
            let lji = l.get(j, i);
            if lji == 0.0 {
                continue;
            }
            let xrow = x.row(j).to_vec();
            for c in 0..n {
                acc[c] -= lji * xrow[c];
            }
        }
        for c in 0..n {
            acc[c] /= d;
        }
        x.row_mut(i).copy_from_slice(&acc);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::norms::relative_error;

    fn upper(n: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, n, |i, j| {
            if j > i {
                rng.gen_range(-1.0..1.0)
            } else if j == i {
                rng.gen_range(1.0..2.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn vector_solve_matches_product() {
        let u = upper(8, 1);
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut b = vec![0.0; 8];
        crate::gemm::gemv(1.0, &u, crate::gemm::GemmOp::NoTrans, &x_true, 0.0, &mut b);
        let x = solve_upper_triangular(&u, &b);
        for (a, b) in x.iter().zip(x_true.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn matrix_solve_matches_product() {
        let u = upper(10, 2);
        let x_true = Matrix::from_fn(10, 4, |i, j| ((i * 4 + j) as f64).sin());
        let b = matmul(&u, &x_true);
        let x = solve_upper_triangular_matrix(&u, &b);
        assert!(relative_error(&x, &x_true) < 1e-10);
    }

    #[test]
    #[should_panic]
    fn singular_diagonal_panics() {
        let mut u = upper(4, 3);
        u.set(2, 2, 0.0);
        let _ = solve_upper_triangular(&u, &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_solve_is_empty() {
        let u = Matrix::zeros(0, 0);
        let b = Matrix::zeros(0, 3);
        let x = solve_upper_triangular_matrix(&u, &b);
        assert_eq!(x.shape(), (0, 3));
    }

    fn lower(n: usize, seed: u64) -> Matrix {
        upper(n, seed).transpose()
    }

    #[test]
    fn lower_vector_solve_matches_product() {
        let l = lower(9, 4);
        let x_true: Vec<f64> = (0..9).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut b = vec![0.0; 9];
        crate::gemm::gemv(1.0, &l, crate::gemm::GemmOp::NoTrans, &x_true, 0.0, &mut b);
        let x = solve_lower_triangular(&l, &b);
        for (a, b) in x.iter().zip(x_true.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn lower_matrix_solve_matches_product() {
        let l = lower(12, 5);
        let x_true = Matrix::from_fn(12, 3, |i, j| ((i * 3 + j) as f64 * 0.2).cos());
        let b = matmul(&l, &x_true);
        let x = solve_lower_triangular_matrix(&l, &b);
        assert!(relative_error(&x, &x_true) < 1e-10);
    }

    #[test]
    fn lower_transpose_solve_matches_explicit_transpose() {
        let l = lower(10, 6);
        let x_true = Matrix::from_fn(10, 2, |i, j| ((i + j) as f64 * 0.4).sin());
        let b = matmul(&l.transpose(), &x_true);
        let x = solve_lower_transpose_matrix(&l, &b);
        assert!(relative_error(&x, &x_true) < 1e-10);
        // Must agree with solving the materialized transpose as an upper system.
        let x2 = solve_upper_triangular_matrix(&l.transpose(), &b);
        assert!(relative_error(&x, &x2) < 1e-13);
    }

    #[test]
    fn lower_empty_solves_are_empty() {
        let l = Matrix::zeros(0, 0);
        assert_eq!(
            solve_lower_triangular_matrix(&l, &Matrix::zeros(0, 2)).shape(),
            (0, 2)
        );
        assert_eq!(
            solve_lower_transpose_matrix(&l, &Matrix::zeros(0, 2)).shape(),
            (0, 2)
        );
        assert!(solve_lower_triangular(&l, &[]).is_empty());
    }
}
