//! Marker-based neighbour merging and top-k weight selection in
//! `sample_nodes` reproduce the hash-set merge and full stable sort they
//! replaced, sample for sample.
//!
//! The oracle below is that earlier per-node procedure: merge the member
//! points' kNN lists through a `HashSet` in member order, sort every merged
//! neighbour by kernel weight with a stable sort, keep the first
//! `sampling_size`, then top up with uniform far samples from the node's own
//! RNG.  Duplicated points tie on both kNN distance and kernel weight, so
//! they pin the tie order.

use matrox_points::{generate, DatasetId, Kernel, PointSet};
use matrox_sampling::{approximate_knn, sample_nodes, SamplingParams};
use matrox_tree::{ClusterTree, PartitionMethod};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

fn oracle_samples(
    points: &PointSet,
    tree: &ClusterTree,
    kernel: &Kernel,
    params: &SamplingParams,
) -> Vec<Vec<usize>> {
    let point_knn = approximate_knn(points, &params.knn);
    let pos = &tree.pos;
    tree.nodes
        .iter()
        .map(|node| {
            let mut rng = StdRng::seed_from_u64(
                params.seed ^ (node.id as u64).wrapping_mul(0x9e3779b97f4a7c15),
            );
            let inside = |q: usize| pos[q] >= node.start && pos[q] < node.end;
            let mut merged: Vec<usize> = Vec::new();
            let mut seen = HashSet::new();
            for &p in tree.perm[node.start..node.end].iter() {
                for &q in &point_knn[p] {
                    if !inside(q) && seen.insert(q) {
                        merged.push(q);
                    }
                }
            }
            let mut weighted: Vec<(f64, usize)> = merged
                .iter()
                .map(|&q| (kernel.eval(&node.centroid, points.point(q)), q))
                .collect();
            weighted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let mut chosen: Vec<usize> = weighted
                .iter()
                .take(params.sampling_size)
                .map(|&(_, q)| q)
                .collect();
            let outside_count = points.len() - node.num_points();
            let want_uniform = params
                .uniform_samples
                .min(outside_count.saturating_sub(chosen.len()));
            let mut guard = 0;
            while chosen.len() < params.sampling_size.min(outside_count) + want_uniform
                && guard < 20 * (want_uniform + 1)
            {
                guard += 1;
                let q = rng.gen_range(0..points.len());
                if !inside(q) && !chosen.contains(&q) {
                    chosen.push(q);
                }
            }
            chosen
        })
        .collect()
}

fn assert_matches_oracle(points: &PointSet, what: &str) {
    let kernels = [
        Kernel::paper_gaussian(),
        Kernel::Gaussian { bandwidth: 0.2 },
        Kernel::InverseDistance { diag: 1.0 },
        Kernel::Cauchy { bandwidth: 0.7 },
    ];
    for method in [PartitionMethod::KdTree, PartitionMethod::TwoMeans] {
        let tree = ClusterTree::build(points, method, 32, 0);
        for kernel in &kernels {
            for sampling_size in [0usize, 5, 32, 100_000] {
                let params = SamplingParams {
                    sampling_size,
                    ..Default::default()
                };
                let got = sample_nodes(points, &tree, kernel, &params);
                // Full neighbour lists, so the merge below is exercised.
                assert!(got.point_knn.iter().all(|l| l.len() == params.knn.k));
                let want = oracle_samples(points, &tree, kernel, &params);
                assert_eq!(
                    got.samples,
                    want,
                    "{what}: {method:?}, {}, sampling_size {sampling_size}",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn sample_nodes_matches_hash_set_and_stable_sort_on_random_points() {
    assert_matches_oracle(&generate(DatasetId::Random, 600, 13), "random");
}

#[test]
fn sample_nodes_matches_hash_set_and_stable_sort_with_duplicated_points() {
    // Every point three times over: equal kNN distances and equal kernel
    // weights between distinct indices.
    let base = generate(DatasetId::Random, 160, 17);
    let coords: Vec<f64> = (0..3)
        .flat_map(|_| (0..base.len()).flat_map(|i| base.point(i).to_vec()))
        .collect();
    assert_matches_oracle(&PointSet::new(base.dim(), coords), "duplicated");
}
