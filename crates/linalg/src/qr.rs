//! Householder column-pivoted QR (Businger–Golub) with adaptive rank
//! detection.
//!
//! MatRox uses interpolative decomposition (ID) for the low-rank blocks of
//! the HMatrix; the standard way to compute an ID is a rank-revealing,
//! column-pivoted QR of the sample matrix.  The factorization is truncated as
//! soon as the trailing diagonal of `R` drops below `tol * |R[0,0]|`, which is
//! exactly how the submatrix rank (`srank`) is "adaptively tuned to meet the
//! user-requested block approximation accuracy" in the paper.

use crate::matrix::Matrix;

/// Result of a (possibly truncated) column-pivoted QR factorization
/// `A P = Q R`.
///
/// `Q` is kept in factored form — the Householder reflectors — and only
/// formed on request by [`PivotedQr::q`]: the interpolative decomposition
/// reads `R` and the permutation alone, so building an explicit `Q` for
/// every block would be discarded work.
#[derive(Debug, Clone)]
pub struct PivotedQr {
    /// Number of Householder reflections applied; equals the detected
    /// numerical rank when a tolerance is supplied.
    pub rank: usize,
    /// Column permutation: `perm[k]` is the original column index that was
    /// moved to position `k`.
    pub perm: Vec<usize>,
    /// The `rank x n` upper-trapezoidal factor `R` (rows beyond `rank` are
    /// dropped).
    pub r: Matrix,
    /// Row count `m` of the factored matrix.
    m: usize,
    /// Column-major `m x n` work buffer: column `k < rank` holds reflector
    /// `k`'s tail `v[1..]` below the diagonal.
    house: Vec<f64>,
    /// Leading entry `v[0]` of each reflector.
    v0s: Vec<f64>,
    /// Householder scalars `tau_k` (reflector `I - tau v v^T`).
    taus: Vec<f64>,
}

impl PivotedQr {
    /// Form the `m x rank` orthonormal factor `Q` explicitly by applying
    /// the reflectors to the leading columns of the identity, in reverse
    /// order.
    pub fn q(&self) -> Matrix {
        let m = self.m;
        let rank = self.rank;
        let mut q = Matrix::zeros(m, rank);
        for k in 0..rank {
            q.set(k, k, 1.0);
        }
        let mut v = vec![0.0; m];
        for k in (0..rank).rev() {
            let tau = self.taus[k];
            if tau == 0.0 {
                continue;
            }
            let v = &mut v[..m - k];
            v[0] = self.v0s[k];
            v[1..].copy_from_slice(&self.house[k * m + k + 1..(k + 1) * m]);
            // Q <- (I - tau v v^T) Q, affecting rows k..m.
            for j in 0..rank {
                let mut dot = 0.0;
                for (i, vi) in v.iter().enumerate() {
                    dot += vi * q.get(k + i, j);
                }
                let scale = tau * dot;
                if scale != 0.0 {
                    for (i, vi) in v.iter().enumerate() {
                        let cur = q.get(k + i, j);
                        q.set(k + i, j, cur - scale * vi);
                    }
                }
            }
        }
        q
    }

    /// Reconstruct the (approximation of the) original matrix `Q * R * P^T`.
    pub fn reconstruct(&self) -> Matrix {
        let m = self.m;
        let n = self.r.cols();
        let mut qr = Matrix::zeros(m, n);
        crate::gemm::gemm_seq(
            1.0,
            &self.q(),
            crate::gemm::GemmOp::NoTrans,
            &self.r,
            crate::gemm::GemmOp::NoTrans,
            0.0,
            &mut qr,
        );
        // Undo the column permutation: column k of QR corresponds to original
        // column perm[k].
        let mut out = Matrix::zeros(m, n);
        for k in 0..n {
            let orig = self.perm[k];
            for i in 0..m {
                out.set(i, orig, qr.get(i, k));
            }
        }
        out
    }
}

/// Compute a column-pivoted QR factorization of `a`, truncated at relative
/// tolerance `tol` and absolute maximum rank `max_rank`.
///
/// * `tol` — stop when `|R[k,k]| <= tol * |R[0,0]|`.  Pass `0.0` for a full
///   factorization (up to `max_rank`).
/// * `max_rank` — hard cap on the number of reflections (the paper caps the
///   submatrix rank at 256 by default).
///
/// Returns the truncated factors together with the detected rank and the
/// column permutation.
pub fn pivoted_qr(a: &Matrix, tol: f64, max_rank: usize) -> PivotedQr {
    let (m, n) = a.shape();
    // Work on a column-major copy: the Householder updates touch whole
    // columns, so column-major keeps them contiguous.
    let mut cols = vec![0.0; m * n];
    for i in 0..m {
        for (j, &x) in a.row(i).iter().enumerate() {
            cols[j * m + i] = x;
        }
    }
    pivoted_qr_col_major(cols, m, n, tol, max_rank)
}

/// [`pivoted_qr`] of the `m x n` matrix stored column-major in `cols`
/// (consumed as the work buffer).  The row ID calls this directly: a
/// row-major `A` is exactly `A^T` in column-major order, so no transpose
/// is ever materialized.
pub(crate) fn pivoted_qr_col_major(
    mut cols: Vec<f64>,
    m: usize,
    n: usize,
    tol: f64,
    max_rank: usize,
) -> PivotedQr {
    debug_assert_eq!(cols.len(), m * n);
    let kmax = m.min(n).min(max_rank);
    let mut perm: Vec<usize> = (0..n).collect();
    // Squared column norms, updated incrementally (Businger–Golub downdating).
    let mut norms: Vec<f64> = (0..n)
        .map(|j| cols[j * m..(j + 1) * m].iter().map(|x| x * x).sum())
        .collect();

    // Householder reflector storage: v[0] per reflector (the sub-diagonal
    // entries of v are kept in-place below the diagonal of the column) and
    // the scalar taus.  `v` is one scratch buffer reused by every step.
    let mut taus: Vec<f64> = Vec::with_capacity(kmax);
    let mut v0s: Vec<f64> = Vec::with_capacity(kmax);
    let mut v: Vec<f64> = Vec::with_capacity(m);
    let mut r00: f64 = 0.0;
    let mut rank = 0;

    for k in 0..kmax {
        // Pivot: bring the column with the largest remaining norm to front.
        let pivot = norms[k..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i + k)
            .unwrap();
        if pivot != k {
            let (head, tail) = cols.split_at_mut(pivot * m);
            head[k * m..(k + 1) * m].swap_with_slice(&mut tail[..m]);
            perm.swap(k, pivot);
            norms.swap(k, pivot);
        }
        let col_k = &cols[k * m..(k + 1) * m];
        // Recompute the pivot norm exactly to avoid downdating drift.
        let exact: f64 = col_k[k..].iter().map(|x| x * x).sum();
        let alpha = exact.sqrt();
        if k == 0 {
            r00 = alpha;
        }
        // Rank detection: relative drop of the diagonal of R.
        if alpha <= tol * r00 || alpha == 0.0 {
            break;
        }

        // Householder reflector for column k, rows k..m.
        v.clear();
        v.extend_from_slice(&col_k[k..]);
        let beta = if v[0] >= 0.0 { -alpha } else { alpha };
        v[0] -= beta;
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        let tau = if vnorm2 == 0.0 { 0.0 } else { 2.0 / vnorm2 };

        // Apply the reflector to the trailing columns.
        for j in (k + 1)..n {
            let cj = &mut cols[j * m..(j + 1) * m];
            let mut dot = 0.0;
            for (i, vi) in v.iter().enumerate() {
                dot += vi * cj[k + i];
            }
            let scale = tau * dot;
            if scale != 0.0 {
                for (i, vi) in v.iter().enumerate() {
                    cj[k + i] -= scale * vi;
                }
            }
            // Downdate the running column norm.
            let r_kj = cj[k];
            norms[j] = (norms[j] - r_kj * r_kj).max(0.0);
        }

        // Store R[k,k] on the diagonal and the tail of v below it; v[0] and
        // tau go to side storage so Q can be re-assembled later.
        let col_k = &mut cols[k * m..(k + 1) * m];
        col_k[k] = beta;
        col_k[k + 1..].copy_from_slice(&v[1..]);
        taus.push(tau);
        v0s.push(v[0]);
        rank = k + 1;
    }

    // Assemble R (rank x n): R[k, j] = cols[j][k] for j >= k.
    let mut r = Matrix::zeros(rank, n);
    for j in 0..n {
        for k in 0..rank.min(j + 1) {
            r.set(k, j, cols[j * m + k]);
        }
    }

    PivotedQr {
        rank,
        perm,
        r,
        m,
        house: cols,
        v0s,
        taus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::{frobenius_norm, relative_error};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn low_rank_matrix(m: usize, n: usize, r: usize, seed: u64) -> Matrix {
        let a = random_matrix(m, r, seed);
        let b = random_matrix(r, n, seed + 1);
        crate::gemm::matmul(&a, &b)
    }

    #[test]
    fn full_qr_reconstructs() {
        let a = random_matrix(12, 8, 42);
        let f = pivoted_qr(&a, 0.0, usize::MAX);
        assert_eq!(f.rank, 8);
        let rec = f.reconstruct();
        assert!(relative_error(&rec, &a) < 1e-12);
    }

    #[test]
    fn q_is_orthonormal() {
        let a = random_matrix(20, 10, 7);
        let f = pivoted_qr(&a, 0.0, usize::MAX);
        let q = f.q();
        let qtq = crate::gemm::matmul(&q.transpose(), &q);
        let eye = Matrix::identity(f.rank);
        assert!(relative_error(&qtq, &eye) < 1e-12);
    }

    #[test]
    fn detects_numerical_rank_of_low_rank_matrix() {
        let a = low_rank_matrix(40, 30, 5, 3);
        let f = pivoted_qr(&a, 1e-10, usize::MAX);
        assert_eq!(f.rank, 5);
        let rec = f.reconstruct();
        assert!(relative_error(&rec, &a) < 1e-8);
    }

    #[test]
    fn respects_max_rank_cap() {
        let a = random_matrix(30, 30, 9);
        let f = pivoted_qr(&a, 0.0, 7);
        assert_eq!(f.rank, 7);
        assert_eq!(f.q().cols(), 7);
        assert_eq!(f.r.rows(), 7);
    }

    #[test]
    fn r_diagonal_is_non_increasing() {
        let a = random_matrix(25, 18, 11);
        let f = pivoted_qr(&a, 0.0, usize::MAX);
        let mut prev = f64::INFINITY;
        for k in 0..f.rank {
            let d = f.r.get(k, k).abs();
            assert!(d <= prev + 1e-10, "diagonal not non-increasing");
            prev = d;
        }
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        let a = Matrix::zeros(6, 6);
        let f = pivoted_qr(&a, 1e-12, usize::MAX);
        assert_eq!(f.rank, 0);
    }

    #[test]
    fn wide_and_tall_matrices_work() {
        let wide = random_matrix(5, 20, 21);
        let f = pivoted_qr(&wide, 0.0, usize::MAX);
        assert_eq!(f.rank, 5);
        assert!(relative_error(&f.reconstruct(), &wide) < 1e-12);

        let tall = random_matrix(20, 5, 22);
        let f = pivoted_qr(&tall, 0.0, usize::MAX);
        assert_eq!(f.rank, 5);
        assert!(relative_error(&f.reconstruct(), &tall) < 1e-12);
    }

    #[test]
    fn truncated_qr_error_matches_tolerance() {
        // A matrix with geometrically decaying singular values.
        let m = 40;
        let n = 40;
        let mut a = Matrix::zeros(m, n);
        for r in 0..n {
            let u = random_matrix(m, 1, 100 + r as u64);
            let v = random_matrix(1, n, 200 + r as u64);
            let mut uv = crate::gemm::matmul(&u, &v);
            uv.scale(0.5_f64.powi(r as i32));
            a.add_assign(&uv);
        }
        let tol = 1e-6;
        let f = pivoted_qr(&a, tol, usize::MAX);
        let rec = f.reconstruct();
        let err = relative_error(&rec, &a);
        // CPQR is rank revealing in practice; allow two orders of slack.
        assert!(err < tol * 100.0, "error {err} too large for tol {tol}");
        assert!(f.rank < 40, "should have truncated");
        assert!(frobenius_norm(&a) > 0.0);
    }
}
