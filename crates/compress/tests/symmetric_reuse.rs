//! Symmetric block reuse leaves the compressed blocks bitwise unchanged.
//!
//! `compress` evaluates one block of every symmetric near or far pair and
//! fills the other with its transpose, and evaluates only the upper
//! triangle of a diagonal near block.  The oracle below is the per-pair
//! evaluation it replaced: `D_{i,j} = K(I_i, I_j)` and `B_{i,j} =
//! K(skel_i, skel_j)` for every listed pair, in the HTree's order.  Both
//! block lists must match it in order and in every bit, for each structure
//! mode and each kernel variant.

use matrox_compress::{compress, Compression, CompressionParams};
use matrox_linalg::Matrix;
use matrox_points::{generate, kernel_block, DatasetId, Kernel, PointSet};
use matrox_sampling::{sample_nodes, SamplingParams};
use matrox_tree::{ClusterTree, HTree, PartitionMethod, Structure};

const KERNELS: [Kernel; 5] = [
    Kernel::Gaussian { bandwidth: 1.0 },
    Kernel::GaussianRidge {
        bandwidth: 1.0,
        ridge: 0.5,
    },
    Kernel::InverseDistance { diag: 1.0 },
    Kernel::Laplace { bandwidth: 1.5 },
    Kernel::Cauchy { bandwidth: 0.7 },
];

type Blocks = Vec<((usize, usize), Matrix)>;

/// The oracle: every listed pair evaluated on its own.
fn per_pair(
    pairs: &[(usize, usize)],
    rows_of: impl Fn(usize) -> Vec<usize>,
    points: &PointSet,
    kernel: &Kernel,
) -> Blocks {
    pairs
        .iter()
        .map(|&(i, j)| {
            (
                (i, j),
                kernel_block(points, kernel, &rows_of(i), &rows_of(j)),
            )
        })
        .collect()
}

fn assert_same_blocks(got: &Blocks, want: &Blocks, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: block count");
    for ((gp, gm), (wp, wm)) in got.iter().zip(want) {
        assert_eq!(gp, wp, "{what}: pair order");
        assert_eq!(gm.shape(), wm.shape(), "{what}: shape of {gp:?}");
        let same = gm
            .as_slice()
            .iter()
            .zip(wm.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{what}: bits of block {gp:?}");
    }
}

#[test]
fn near_and_far_blocks_equal_per_pair_evaluation() {
    let structures = [
        Structure::Hss,
        Structure::h2b(),
        Structure::Geometric { tau: 0.65 },
    ];
    let pts = generate(DatasetId::Random, 512, 5);
    let tree = ClusterTree::build(&pts, PartitionMethod::Auto, 32, 0);
    let mut mirrored_near = 0;
    for structure in structures {
        let htree = HTree::build(&tree, structure);
        mirrored_near += htree.near_pairs().iter().filter(|(i, j)| i > j).count();
        for kernel in &KERNELS {
            let sampling = sample_nodes(&pts, &tree, kernel, &SamplingParams::default());
            let c: Compression = compress(
                &pts,
                &tree,
                &htree,
                kernel,
                &sampling,
                &CompressionParams {
                    bacc: 1e-5,
                    max_rank: 64,
                    grain: 0,
                },
            );
            let what = format!("{} / {}", structure.name(), kernel.name());
            let near = per_pair(
                &htree.near_pairs(),
                |i| tree.indices(i).to_vec(),
                &pts,
                kernel,
            );
            assert_same_blocks(&c.near_blocks, &near, &format!("{what} near"));
            let far = per_pair(
                &htree.far_pairs(),
                |i| c.bases[i].skeleton.clone(),
                &pts,
                kernel,
            );
            assert_same_blocks(&c.far_blocks, &far, &format!("{what} far"));
        }
    }
    assert!(mirrored_near > 0, "no off-diagonal near pair was exercised");
}
