//! # matrox-points
//!
//! Point sets, kernel functions, and synthetic dataset generators.
//!
//! MatRox never assembles the full kernel matrix `K`; it only ever evaluates
//! `K(x_i, x_j)` for the point pairs required by the compression phase (near
//! blocks, coupling blocks, sampled far-field blocks).  This crate provides:
//!
//! * [`PointSet`] — an `N x d` collection of points with distance helpers.
//! * [`Kernel`] — the kernel functions used in the paper's evaluation
//!   (Gaussian with bandwidth `h`, the inverse-distance kernel used by the
//!   SMASH comparison, plus a Laplace kernel).
//! * [`datasets`] — synthetic generators standing in for the Table 1
//!   datasets (UCI machine-learning sets and low-dimensional scientific point
//!   clouds).  See DESIGN.md substitution S2.
//! * [`kernel_block`] helpers that evaluate dense kernel sub-blocks (used by
//!   compression and by the accuracy/GEMM baselines).

#![forbid(unsafe_code)]

pub mod datasets;
pub mod kernel;
pub mod pointset;

pub use datasets::{generate, DatasetId, DatasetSpec, TABLE1};
pub use kernel::Kernel;
pub use pointset::PointSet;

use matrox_linalg::Matrix;
use rayon::prelude::*;

/// Evaluate the dense kernel block `K(rows, cols)` for the given global point
/// indices.  This is the only way the rest of the workspace touches kernel
/// entries, mirroring the "implicit" kernel matrix of the paper.
///
/// The block is evaluated a row at a time from a dimension-major copy of
/// the column points, and every entry is bitwise equal to
/// `kernel.eval(points.point(i), points.point(j))`.
pub fn kernel_block(points: &PointSet, kernel: &Kernel, rows: &[usize], cols: &[usize]) -> Matrix {
    let tile = ColumnTile::gather(points, cols);
    let mut out = Matrix::zeros(rows.len(), cols.len());
    for (ri, &i) in rows.iter().enumerate() {
        tile.eval_row(kernel, points.point(i), 0, out.row_mut(ri));
    }
    out
}

/// The symmetric block `K(idx, idx)`, bitwise equal to
/// `kernel_block(points, kernel, idx, idx)`.
///
/// Only the upper triangle is evaluated; the lower one is its mirror.  Every
/// [`Kernel`] is bitwise symmetric — `x - y` and `y - x` differ only in sign,
/// so their squares and the sums of those squares are identical — hence the
/// mirrored entries are exactly the ones a full evaluation would produce.
pub fn kernel_block_symmetric(points: &PointSet, kernel: &Kernel, idx: &[usize]) -> Matrix {
    let n = idx.len();
    let tile = ColumnTile::gather(points, idx);
    let mut out = Matrix::zeros(n, n);
    for (r, &i) in idx.iter().enumerate() {
        tile.eval_row(kernel, points.point(i), r, &mut out.row_mut(r)[r..]);
        for c in 0..r {
            out.set(r, c, out.get(c, r));
        }
    }
    out
}

/// Parallel version of [`kernel_block`] for large blocks (used by the dense
/// GEMM baseline and the accuracy checks, where the block is `N x N`-ish).
pub fn kernel_block_par(
    points: &PointSet,
    kernel: &Kernel,
    rows: &[usize],
    cols: &[usize],
) -> Matrix {
    let ncols = cols.len();
    let tile = ColumnTile::gather(points, cols);
    let mut out = Matrix::zeros(rows.len(), ncols);
    out.as_mut_slice()
        .par_chunks_mut(ncols.max(1))
        .zip(rows.par_iter())
        .for_each(|(row, &i)| tile.eval_row(kernel, points.point(i), 0, row));
    out
}

/// Column points gathered dimension-major: `coords[k * ncols + c]` is
/// coordinate `k` of column point `c`.
///
/// One block row then accumulates the squared distances of all its entries
/// dimension by dimension.  Each entry is its own chain — starting from
/// `+0.0` and adding `(x[k] - y[k])^2` for `k = 0..dim` in order, exactly
/// as [`Kernel::eval`] does — so the loop over columns vectorizes without
/// reassociating any sum, and the entries stay bitwise equal to
/// `Kernel::eval`.
struct ColumnTile {
    ncols: usize,
    coords: Vec<f64>,
}

impl ColumnTile {
    fn gather(points: &PointSet, cols: &[usize]) -> Self {
        let ncols = cols.len();
        let mut coords = vec![0.0; points.dim() * ncols];
        for (c, &j) in cols.iter().enumerate() {
            for (k, &y) in points.point(j).iter().enumerate() {
                coords[k * ncols + c] = y;
            }
        }
        ColumnTile { ncols, coords }
    }

    /// Write `K(x, y_c)` for the columns `first..` into `row`, whose length
    /// is `ncols - first`.
    fn eval_row(&self, kernel: &Kernel, x: &[f64], first: usize, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.ncols - first);
        row.fill(0.0);
        for (k, &xk) in x.iter().enumerate() {
            let ys = &self.coords[k * self.ncols + first..(k + 1) * self.ncols];
            for (d2, &y) in row.iter_mut().zip(ys) {
                let d = xk - y;
                *d2 += d * d;
            }
        }
        for v in row.iter_mut() {
            *v = kernel.eval_dist2(*v);
        }
    }
}

/// Compute the exact product `K * W` without assembling `K`, in parallel over
/// row blocks.  Used as the reference for the overall-accuracy measure
/// `eps_f = ||K~W - KW||_F / ||KW||_F` (Figure 9) and as the un-approximated
/// GEMM baseline discussed in Sections 2.2 and 4.2.
pub fn dense_kernel_matmul(points: &PointSet, kernel: &Kernel, w: &Matrix) -> Matrix {
    let n = points.len();
    assert_eq!(w.rows(), n, "dense_kernel_matmul: W must have N rows");
    let q = w.cols();
    let mut y = Matrix::zeros(n, q);
    y.as_mut_slice()
        .par_chunks_mut(q.max(1))
        .enumerate()
        .for_each(|(i, yrow)| {
            let pi = points.point(i);
            for j in 0..n {
                let k = kernel.eval(pi, points.point(j));
                if k == 0.0 {
                    continue;
                }
                let wrow = w.row(j);
                for c in 0..q {
                    yrow[c] += k * wrow[c];
                }
            }
        });
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kernel_block_is_symmetric_for_symmetric_kernels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let pts = PointSet::random_uniform(20, 3, &mut rng);
        let k = Kernel::Gaussian { bandwidth: 2.0 };
        let idx: Vec<usize> = (0..20).collect();
        let block = kernel_block(&pts, &k, &idx, &idx);
        for i in 0..20 {
            for j in 0..20 {
                assert!((block.get(i, j) - block.get(j, i)).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn kernel_block_par_matches_seq() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let pts = PointSet::random_uniform(50, 4, &mut rng);
        let k = Kernel::Gaussian { bandwidth: 1.0 };
        let rows: Vec<usize> = (0..50).step_by(2).collect();
        let cols: Vec<usize> = (1..50).step_by(3).collect();
        let a = kernel_block(&pts, &k, &rows, &cols);
        let b = kernel_block_par(&pts, &k, &rows, &cols);
        assert_eq!(a, b);
    }

    #[test]
    fn dense_matmul_matches_explicit_assembly() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let pts = PointSet::random_uniform(30, 2, &mut rng);
        let k = Kernel::Gaussian { bandwidth: 0.5 };
        let idx: Vec<usize> = (0..30).collect();
        let kmat = kernel_block(&pts, &k, &idx, &idx);
        let w = Matrix::random_uniform(30, 4, &mut rng);
        let expected = matrox_linalg::matmul(&kmat, &w);
        let got = dense_kernel_matmul(&pts, &k, &w);
        assert!(matrox_linalg::relative_error(&got, &expected) < 1e-12);
    }
}
