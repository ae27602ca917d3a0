//! The interpolative decomposition allocates a bounded number of buffers.
//!
//! Every cluster-tree node's compression runs a row ID, so a per-step or
//! per-pair allocation inside the pivoted QR or the triangular solve is
//! paid thousands of times per inspection.  The ID allocates its work
//! buffers up front: the count must not grow with the detected rank.  The
//! test wraps the global allocator with a counter and asserts that row IDs
//! of the same block at several tolerances (hence several ranks) make
//! exactly as many allocations, and few of them.

use matrox_linalg::{row_id, Matrix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter (allocations only;
/// deallocations are irrelevant to the invariant).
struct CountingAlloc;

// CONCURRENCY: a single Relaxed counter — allocations are counted, never
// ordered; the test reads it only at quiescent points (before/after a
// decomposition completes).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a counter bump — every
// GlobalAlloc obligation (layout fitting, no unwinding, pointer validity)
// is discharged by `System` itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: contract inherited verbatim from the `GlobalAlloc` trait.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's layout contract verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: contract inherited verbatim from the `GlobalAlloc` trait.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's layout contract verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: contract inherited verbatim from the `GlobalAlloc` trait.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's pointer/layout contract verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: contract inherited verbatim from the `GlobalAlloc` trait.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding the caller's pointer/layout contract verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Upper bound on the allocations of one row ID: the QR work buffer,
/// permutation, norms, reflector scalars and scratch, `R`, its two
/// blocks, the solve result, the interpolation matrix and its transpose,
/// and the skeleton.
const MAX_ALLOCS: u64 = 16;

/// A well-separated Cauchy block: its singular values decay
/// geometrically, so the tolerance controls the detected rank.
fn far_block(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = i as f64 / rows as f64;
        let y = 1.25 + j as f64 / cols as f64;
        1.0 / (1.0 + (x - y) * (x - y))
    })
}

/// `(rank, allocations)` of one row ID.  The count is the minimum over a
/// few repeats: the ID itself is deterministic, and the only noise is the
/// test harness's own thread allocating concurrently, which can only add.
fn row_id_allocs(a: &Matrix, tol: f64) -> (usize, u64) {
    let mut rank = 0;
    let mut fewest = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let id = row_id(a, tol, usize::MAX);
        let after = ALLOCS.load(Ordering::Relaxed);
        rank = id.rank;
        fewest = fewest.min(after - before);
    }
    (rank, fewest)
}

// One test function: the counter is process-global, so a second test
// running concurrently would pollute the counts.
#[test]
fn row_id_allocations_are_bounded_and_rank_independent() {
    for (rows, cols) in [(64, 64), (128, 64)] {
        let a = far_block(rows, cols);
        let runs: Vec<(usize, u64)> = [1e-2, 1e-5, 1e-8, 1e-11]
            .iter()
            .map(|&tol| row_id_allocs(&a, tol))
            .collect();
        let ranks: Vec<usize> = runs.iter().map(|r| r.0).collect();
        assert!(
            ranks.windows(2).all(|w| w[0] < w[1]) && ranks[ranks.len() - 1] < cols,
            "{rows}x{cols}: tolerances must give distinct partial ranks, got {ranks:?}"
        );
        let counts: Vec<u64> = runs.iter().map(|r| r.1).collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{rows}x{cols}: allocations {counts:?} vary with rank {ranks:?}"
        );
        assert!(
            counts[0] <= MAX_ALLOCS,
            "{rows}x{cols}: row ID made {} allocations (expected <= {MAX_ALLOCS})",
            counts[0]
        );
    }
}
