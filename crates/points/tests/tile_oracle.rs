//! The dimension-major kernel tile is bitwise equal to per-entry evaluation.
//!
//! `kernel_block`, `kernel_block_par` and `kernel_block_symmetric` evaluate
//! a whole block row at a time from a dimension-major copy of the column
//! points.  Every entry must still carry exactly the bits of
//! `Kernel::eval(x_i, x_j)`: the per-entry loop below is the oracle.  The
//! sweep covers every kernel variant, several dimensions (18 is the susy
//! width of the benchmarks), repeated indices and coincident points (the
//! `d2 == 0` rules of `GaussianRidge` and `InverseDistance`), empty index
//! lists and column counts that leave vector remainders.

use matrox_linalg::Matrix;
use matrox_points::{kernel_block, kernel_block_par, kernel_block_symmetric, Kernel, PointSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KERNELS: [Kernel; 5] = [
    Kernel::Gaussian { bandwidth: 0.8 },
    Kernel::GaussianRidge {
        bandwidth: 1.3,
        ridge: 0.25,
    },
    Kernel::InverseDistance { diag: 2.0 },
    Kernel::Laplace { bandwidth: 0.6 },
    Kernel::Cauchy { bandwidth: 0.9 },
];

/// The oracle: one `Kernel::eval` call per entry.
fn per_entry(points: &PointSet, kernel: &Kernel, rows: &[usize], cols: &[usize]) -> Matrix {
    Matrix::from_fn(rows.len(), cols.len(), |r, c| {
        kernel.eval(points.point(rows[r]), points.point(cols[c]))
    })
}

fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (e, (a, b)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: entry {e}: {a} vs {b}");
    }
}

/// 40 random points in `dim` dimensions, then 8 exact copies of earlier
/// points (coincident but distinct indices).
fn points_with_copies(dim: usize, seed: u64) -> PointSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords: Vec<f64> = (0..40 * dim).map(|_| rng.gen_range(-2.0..2.0)).collect();
    for p in [0usize, 3, 3, 7, 11, 20, 33, 39] {
        let copy = coords[p * dim..(p + 1) * dim].to_vec();
        coords.extend_from_slice(&copy);
    }
    PointSet::new(dim, coords)
}

#[test]
fn kernel_blocks_equal_per_entry_eval_bitwise() {
    for dim in [1usize, 2, 3, 8, 18] {
        let pts = points_with_copies(dim, 0x7113 + dim as u64);
        let n = pts.len();
        let mut rng = StdRng::seed_from_u64(dim as u64);
        let mut pick =
            |len: usize| -> Vec<usize> { (0..len).map(|_| rng.gen_range(0..n)).collect() };
        // Rows and columns with repeats and coincident copies (40.. are
        // copies of 0, 3, 3, 7, ...), plus random lists of every width.
        let mut lists: Vec<Vec<usize>> =
            vec![vec![], vec![5], vec![0, 40, 3, 41, 42], vec![7, 7, 43, 2]];
        for len in [1usize, 3, 5, 67] {
            lists.push(pick(len));
        }
        for kernel in &KERNELS {
            for rows in &lists {
                for cols in &lists {
                    let want = per_entry(&pts, kernel, rows, cols);
                    let what = format!("{} dim {dim} {}x{}", kernel.name(), rows.len(), cols.len());
                    assert_bitwise(&kernel_block(&pts, kernel, rows, cols), &want, &what);
                    assert_bitwise(
                        &kernel_block_par(&pts, kernel, rows, cols),
                        &want,
                        &format!("{what} (par)"),
                    );
                }
                assert_bitwise(
                    &kernel_block_symmetric(&pts, kernel, rows),
                    &per_entry(&pts, kernel, rows, rows),
                    &format!("{} dim {dim} symmetric {}", kernel.name(), rows.len()),
                );
            }
        }
    }
}
