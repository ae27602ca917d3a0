//! Approximate k-nearest-neighbour search with random-projection trees.
//!
//! MatRox's sampling module computes a k-nearest-neighbour list for every
//! point "using a greedy search based on random projection trees that
//! recursively partitions the points along a random direction" (Section 3.1,
//! citing Dasgupta & Freund).  Exact k-NN would be `O(N^2 d)`; the RP-tree
//! approach builds a handful of randomized trees, restricts candidate pairs
//! to RP-tree leaves, and keeps the best `k` candidates per point.
//!
//! Both phases run on the work-stealing pool and are bitwise deterministic
//! across pool widths:
//!
//! * **Tree construction** parallelizes *across* trees.  Every tree draws
//!   its projection directions from its own RNG seeded by `(seed, tree
//!   index)`, so tree `t` is a pure function of the inputs no matter which
//!   worker builds it or in what order.
//! * **Neighbour search** parallelizes *across points*.  Each point gathers
//!   the distinct candidates from its own leaf in every tree, then keeps
//!   the best `k` by `(distance, index)` — the index tie-break makes the
//!   result independent of gathering order even for equidistant candidates.
//!   Each point's list lands in its own pre-sized output slot; there is no
//!   shared candidate accumulation anywhere.

use crate::marker::with_marker;
use matrox_linalg::knobs::resolve_grain;
use matrox_points::PointSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::cmp::Ordering;

/// Parameters for the approximate k-NN search.
#[derive(Debug, Clone, Copy)]
pub struct KnnParams {
    /// Number of neighbours kept per point (the paper's sampling size `k`).
    pub k: usize,
    /// Number of random-projection trees to build; more trees improve recall.
    pub num_trees: usize,
    /// RP-tree leaf capacity; candidates are scored all-pairs inside a leaf.
    pub leaf_cap: usize,
    /// RNG seed for the random projection directions.
    pub seed: u64,
    /// Minimum points per parallel search task; `0` = auto (the
    /// `MATROX_GRAIN` env knob, then 1).  Chunking only — never changes the
    /// neighbour lists.
    pub grain: usize,
}

impl Default for KnnParams {
    fn default() -> Self {
        KnnParams {
            k: 32,
            num_trees: 4,
            leaf_cap: 96,
            seed: 0x5eed,
            grain: 0,
        }
    }
}

/// One built random-projection tree: the permuted point indices plus the
/// leaf partition over them, and for every point the leaf it landed in.
struct RpTree {
    /// Point indices, permuted so each leaf is a contiguous range.
    idx: Vec<usize>,
    /// `(start, end)` ranges into `idx`, one per leaf.
    leaves: Vec<(usize, usize)>,
    /// `leaf_of[point] = leaf index` in `leaves`.
    leaf_of: Vec<usize>,
}

/// Build one RP-tree deterministically from `(points, seed, tree index)`.
fn build_rp_tree(points: &PointSet, leaf_bound: usize, seed: u64, tree: usize) -> RpTree {
    let n = points.len();
    let dim = points.dim();
    // Per-tree RNG: directions depend only on the tree index, never on
    // which worker builds the tree or when.
    let mut rng = StdRng::seed_from_u64(seed ^ (tree as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let mut idx: Vec<usize> = (0..n).collect();
    let mut leaves: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(0, n)];
    // In-place recursive partitioning of `idx` along random directions.
    while let Some((start, end)) = stack.pop() {
        let len = end - start;
        if len <= leaf_bound {
            leaves.push((start, end));
            continue;
        }
        // Random unit-ish direction.
        let dir: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mid = start + len / 2;
        idx[start..end].select_nth_unstable_by(len / 2, |&a, &b| {
            let pa: f64 = points.point(a).iter().zip(&dir).map(|(x, d)| x * d).sum();
            let pb: f64 = points.point(b).iter().zip(&dir).map(|(x, d)| x * d).sum();
            pa.partial_cmp(&pb).unwrap()
        });
        stack.push((start, mid));
        stack.push((mid, end));
    }
    let mut leaf_of = vec![0usize; n];
    for (l, &(s, e)) in leaves.iter().enumerate() {
        for &p in &idx[s..e] {
            leaf_of[p] = l;
        }
    }
    RpTree {
        idx,
        leaves,
        leaf_of,
    }
}

/// Approximate k-nearest neighbours of every point.
///
/// Returns, for each point `i`, up to `params.k` neighbour indices sorted by
/// increasing distance (never containing `i` itself).  The output is a pure
/// function of `(points, params)` — bitwise identical at every pool width
/// and grain.
pub fn approximate_knn(points: &PointSet, params: &KnnParams) -> Vec<Vec<usize>> {
    let n = points.len();
    if n <= 1 {
        return vec![Vec::new(); n];
    }
    let k = params.k.min(n - 1);
    let grain = resolve_grain(params.grain);
    let leaf_bound = params.leaf_cap.max(2 * k).max(4);

    // Phase 1: build the trees, one parallel task per tree.
    let trees: Vec<RpTree> = (0..params.num_trees.max(1))
        .into_par_iter()
        .map(|t| build_rp_tree(points, leaf_bound, params.seed, t))
        .collect();

    // Phase 2: per-point candidate gathering and ranking, one output slot
    // per point.  Ties rank by index, so the schedule cannot influence the
    // lists.
    let mut knn: Vec<Vec<usize>> = vec![Vec::new(); n];
    knn.par_iter_mut()
        .enumerate()
        .with_min_len(grain)
        .for_each(|(i, out)| {
            let leaves = trees.iter().map(|tree| {
                let (s, e) = tree.leaves[tree.leaf_of[i]];
                &tree.idx[s..e]
            });
            *out = nearest_in_leaves(points, i, leaves, k);
        });
    knn
}

/// Candidate order: by distance, ties broken by index.
fn by_distance_then_index(a: &(f64, usize), b: &(f64, usize)) -> Ordering {
    a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1))
}

/// The `k` nearest of the points in `leaves` to point `i` (excluding `i`),
/// ascending under the (distance, index) order.
///
/// The same neighbour reached through several trees is kept once, before
/// any distance is computed, by this thread's generation-stamped marker.
/// Indices are then distinct, so (distance, index) is a strict total order
/// and the `k` smallest entries are unique whatever order the candidates
/// were gathered in: selecting them and sorting only those gives exactly
/// the list a full sort would.
fn nearest_in_leaves<'a>(
    points: &PointSet,
    i: usize,
    leaves: impl Iterator<Item = &'a [usize]> + Clone,
    k: usize,
) -> Vec<usize> {
    let mut cands: Vec<(f64, usize)> = Vec::with_capacity(leaves.clone().map(<[usize]>::len).sum());
    with_marker(points.len(), |seen| {
        for leaf in leaves {
            for &j in leaf {
                if j != i && seen.insert(j) {
                    cands.push((points.dist2(i, j), j));
                }
            }
        }
    });
    if cands.len() > k {
        cands.select_nth_unstable_by(k, by_distance_then_index);
        cands.truncate(k);
    }
    cands.sort_unstable_by(by_distance_then_index);
    // Collect from a borrow: `into_iter` would reuse the candidate buffer
    // in place, and every point's list would keep its capacity.
    cands.iter().map(|&(_, j)| j).collect()
}

/// Exact k-nearest neighbours (quadratic); used by tests to measure the
/// recall of the approximate search and usable for tiny point sets.
pub fn exact_knn(points: &PointSet, k: usize) -> Vec<Vec<usize>> {
    let n = points.len();
    let k = k.min(n.saturating_sub(1));
    (0..n)
        .map(|i| {
            let mut dists: Vec<(f64, usize)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (points.dist2(i, j), j))
                .collect();
            dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            dists.into_iter().take(k).map(|(_, j)| j).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matrox_points::{generate, DatasetId};

    #[test]
    fn knn_lists_have_requested_size_and_no_self() {
        let pts = generate(DatasetId::Random, 300, 1);
        let knn = approximate_knn(
            &pts,
            &KnnParams {
                k: 8,
                ..Default::default()
            },
        );
        assert_eq!(knn.len(), 300);
        for (i, list) in knn.iter().enumerate() {
            assert_eq!(list.len(), 8, "point {i}");
            assert!(!list.contains(&i));
            let unique: std::collections::HashSet<_> = list.iter().collect();
            assert_eq!(unique.len(), list.len());
        }
    }

    #[test]
    fn recall_against_exact_is_reasonable() {
        let pts = generate(DatasetId::Grid, 400, 2);
        let k = 10;
        let approx = approximate_knn(
            &pts,
            &KnnParams {
                k,
                num_trees: 6,
                leaf_cap: 64,
                seed: 3,
                grain: 0,
            },
        );
        let exact = exact_knn(&pts, k);
        let mut hit = 0usize;
        let mut total = 0usize;
        for i in 0..pts.len() {
            let truth: std::collections::HashSet<_> = exact[i].iter().collect();
            hit += approx[i].iter().filter(|j| truth.contains(j)).count();
            total += k;
        }
        let recall = hit as f64 / total as f64;
        assert!(recall > 0.6, "recall {recall} too low");
    }

    #[test]
    fn exact_knn_on_line_points_matches_intuition() {
        let pts =
            matrox_points::PointSet::from_points(&[vec![0.0], vec![1.0], vec![2.0], vec![10.0]]);
        let knn = exact_knn(&pts, 2);
        assert_eq!(knn[0], vec![1, 2]);
        assert_eq!(knn[3], vec![2, 1]);
    }

    #[test]
    fn tiny_point_sets_do_not_panic() {
        let pts = matrox_points::PointSet::from_points(&[vec![0.0, 0.0]]);
        let knn = approximate_knn(&pts, &KnnParams::default());
        assert_eq!(knn, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn high_dimensional_knn_works() {
        let pts = generate(DatasetId::Higgs, 256, 4);
        let knn = approximate_knn(
            &pts,
            &KnnParams {
                k: 16,
                ..Default::default()
            },
        );
        assert!(knn.iter().all(|l| l.len() == 16));
    }

    /// The ranking `nearest_in_leaves` replaced, kept as its oracle: score
    /// every gathered candidate, sort them all, drop the duplicates found
    /// through several trees (adjacent after the sort), keep the first `k`.
    fn nearest_sort_all(points: &PointSet, i: usize, leaves: &[&[usize]], k: usize) -> Vec<usize> {
        let mut cands: Vec<(f64, usize)> = Vec::new();
        for leaf in leaves {
            for &j in *leaf {
                if j != i {
                    cands.push((points.dist2(i, j), j));
                }
            }
        }
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        cands.dedup();
        cands.into_iter().take(k).map(|(_, j)| j).collect()
    }

    /// Assert the select-based ranking equals the sort-all oracle for every
    /// point of `pts`, both on the raw candidate sets (including a `k`
    /// beyond the candidate count) and through `approximate_knn`.
    fn assert_matches_sort_all(pts: &PointSet) {
        let n = pts.len();
        for k in [1usize, 8, 32] {
            let params = KnnParams {
                k,
                ..Default::default()
            };
            let leaf_bound = params.leaf_cap.max(2 * k).max(4);
            let trees: Vec<RpTree> = (0..params.num_trees)
                .map(|t| build_rp_tree(pts, leaf_bound, params.seed, t))
                .collect();
            let knn = approximate_knn(pts, &params);
            for (i, list) in knn.iter().enumerate() {
                let leaves: Vec<&[usize]> = trees
                    .iter()
                    .map(|t| {
                        let (s, e) = t.leaves[t.leaf_of[i]];
                        &t.idx[s..e]
                    })
                    .collect();
                let want = nearest_sort_all(pts, i, &leaves, k);
                assert_eq!(list, &want, "k={k}, point {i}");
                assert_eq!(
                    nearest_in_leaves(pts, i, leaves.iter().copied(), k),
                    want,
                    "k={k}, point {i}"
                );
                // More neighbours requested than there are candidates.
                let all = nearest_sort_all(pts, i, &leaves, usize::MAX);
                assert!(all.len() < 4 * n);
                assert_eq!(
                    nearest_in_leaves(pts, i, leaves.iter().copied(), 4 * n),
                    all,
                    "k beyond the {} candidates, point {i}",
                    all.len()
                );
            }
        }
    }

    #[test]
    fn select_matches_sort_all_with_duplicated_points() {
        // Every point three times over: distance-0 ties between distinct
        // indices, and the same candidate reached through several trees.
        let base = generate(DatasetId::Random, 120, 11);
        let coords: Vec<f64> = (0..3)
            .flat_map(|_| (0..base.len()).flat_map(|i| base.point(i).to_vec()))
            .collect();
        assert_matches_sort_all(&PointSet::new(base.dim(), coords));
    }

    #[test]
    fn select_matches_sort_all_on_a_lattice() {
        // A regular grid: most candidates tie on distance with others.
        assert_matches_sort_all(&generate(DatasetId::Grid, 400, 0));
    }

    #[test]
    fn grain_never_changes_the_lists() {
        let pts = generate(DatasetId::Random, 257, 9);
        let base = approximate_knn(
            &pts,
            &KnnParams {
                k: 12,
                ..Default::default()
            },
        );
        for grain in [1, 7, 1024] {
            let other = approximate_knn(
                &pts,
                &KnnParams {
                    k: 12,
                    grain,
                    ..Default::default()
                },
            );
            assert_eq!(base, other, "grain {grain}");
        }
    }
}
