//! Pieces every workload shares: seeded inputs, output checks, the traced
//! layer-by-layer inspector, and the executor/kernel profile of the traced
//! run.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use matrox_analysis::{build_blockset, build_cds_with_grain, build_coarsenset};
use matrox_codegen::generate_plan;
use matrox_compress::{compress, CompressionParams};
use matrox_core::{
    inspector_p1, inspector_p2, EvalSession, HMatrix, InspectorP1, InspectorTimings, MatRoxParams,
    MatroxError,
};
use matrox_exec::PreparedExec;
use matrox_linalg::{KernelDispatch, Matrix};
use matrox_points::{Kernel, PointSet};
use matrox_sampling::sample_nodes;
use matrox_tree::{ClusterTree, HTree};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Metric name -> value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
}

/// Output checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// splitmix64: derive independent input seeds from the workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded right-hand side with entries in `[-1, 1)`.
pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| (derive(seed, i) >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        .collect()
}

/// The fixed accuracy probe: `eps_f` is measured on it with a fixed-seed
/// model, so it is deterministic and a speed-up bought with accuracy shows.
pub fn probe(n: usize) -> Matrix {
    rhs_matrix(n, 4, 0x5eed)
}

/// A seeded `n x q` right-hand-side matrix.
pub fn rhs_matrix(n: usize, q: usize, seed: u64) -> Matrix {
    Matrix::from_vec(n, q, rhs(n * q, seed))
}

pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU time stolen from this machine by the hypervisor, in
/// clock ticks (the `steal` column of `/proc/stat`).
pub fn steal_ticks() -> Option<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()?
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

pub fn threads() -> usize {
    rayon::current_num_threads()
}

/// Run `f` `k` times and return the last result with the median wall time
/// in seconds.
pub fn repeat_setup<T>(
    k: usize,
    mut f: impl FnMut() -> Result<T, MatroxError>,
) -> Result<(T, f64), MatroxError> {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k.max(1) {
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let secs = median(&times).unwrap_or(0.0);
    Ok((last.expect("k >= 1 setups ran"), secs))
}

/// What a closed loop did: latencies (ms) of the ops the run reports on,
/// and counts over every op it ran.
pub struct Loop {
    pub lat: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// What a closed-loop body ran: per-op latencies in ms, when each op ended
/// (its output check included), and how many outputs failed their check.
#[derive(Default)]
pub struct Ops {
    pub lat: Vec<f64>,
    pub ends: Vec<Instant>,
    pub failed: u64,
}

impl Ops {
    /// Record one op that took `ms` and whose check `passed`.
    pub fn push(&mut self, ms: f64, passed: bool) {
        self.lat.push(ms);
        self.ends.push(Instant::now());
        self.failed += u64::from(!passed);
    }
}

/// Ops per second as the median over consecutive windows of at least one
/// second, so a burst of stolen CPU time moves the windows it hits rather
/// than the whole figure.  A run shorter than one window gives its mean.
pub fn windowed_rate(start: Instant, ends: &[Instant]) -> f64 {
    let mut rates = Vec::new();
    let (mut from, mut n) = (start, 0usize);
    for &end in ends {
        n += 1;
        let secs = end.saturating_duration_since(from).as_secs_f64();
        if secs >= 1.0 {
            rates.push(n as f64 / secs);
            (from, n) = (end, 0);
        }
    }
    median(&rates).unwrap_or_else(|| {
        let secs = ends
            .last()
            .map_or(0.0, |e| e.saturating_duration_since(start).as_secs_f64());
        ends.len() as f64 / secs.max(f64::MIN_POSITIVE)
    })
}

/// Drive a closed loop for `budget`.  `body` runs the loop for a given time
/// and returns the ops it ran.  Untraced, this records `ops_per_s`; traced,
/// half the budget runs untraced and half traced, and the difference of
/// their medians prices the tracing.
pub fn closed_loop(
    budget: Duration,
    tr: &mut Tracer,
    m: &mut Metrics,
    mut body: impl FnMut(Duration, &mut Tracer) -> Result<Ops, MatroxError>,
) -> Result<Loop, MatroxError> {
    if !tr.is_on() {
        let t0 = Instant::now();
        let ops = body(budget, tr)?;
        m.insert("ops_per_s", windowed_rate(t0, &ops.ends));
        return Ok(Loop {
            attempted: ops.lat.len() as u64,
            failed: ops.failed,
            lat: ops.lat,
        });
    }
    let plain = body(budget / 2, &mut Tracer::new(false))?;
    let traced = body(budget / 2, tr)?;
    let (a, b) = (
        median(&plain.lat).unwrap_or(0.0),
        median(&traced.lat).unwrap_or(0.0),
    );
    m.insert("trace.overhead_frac", (b - a) / a);
    m.insert("ledger.unattributed_frac", tr.unattributed_frac("op"));
    Ok(Loop {
        attempted: (plain.lat.len() + traced.lat.len()) as u64,
        failed: plain.failed + traced.failed,
        lat: traced.lat,
    })
}

/// Inspector-p1.  Untraced it is the library's `inspector_p1`; traced, the
/// same modules are called one by one, each inside its layer's span.
pub fn p1(
    points: &PointSet,
    kernel: &Kernel,
    params: &MatRoxParams,
    tr: &mut Tracer,
) -> Result<InspectorP1, MatroxError> {
    if !tr.is_on() {
        return inspector_p1(points, kernel, params);
    }
    let tree = tr.span("tree.cluster", |_| {
        ClusterTree::build_with_grain(
            points,
            params.partition,
            params.leaf_size,
            params.seed,
            params.grain,
        )
    });
    let htree = tr.span("tree.htree", |_| HTree::build(&tree, params.structure));
    // A sub-parameter grain of 0 inherits the top-level grain, as in the
    // library's inspector.
    let mut sp = params.sampling;
    if sp.grain == 0 {
        sp.grain = params.grain;
    }
    if sp.knn.grain == 0 {
        sp.knn.grain = params.grain;
    }
    let sampling = tr.span("sampling.sample", |_| {
        sample_nodes(points, &tree, kernel, &sp)
    });
    let (near_blockset, far_blockset) = tr.span("analysis.blocking", |_| {
        (
            build_blockset(&htree.near_pairs(), tree.num_nodes(), params.near_blocksize),
            build_blockset(&htree.far_pairs(), tree.num_nodes(), params.far_blocksize),
        )
    });
    Ok(InspectorP1 {
        tree,
        htree,
        sampling,
        near_blockset,
        far_blockset,
        params: *params,
        timings: InspectorTimings::default(),
    })
}

/// Inspector-p2, traced layer by layer like [`p1`].
pub fn p2(
    points: &PointSet,
    p1: &InspectorP1,
    kernel: &Kernel,
    bacc: f64,
    tr: &mut Tracer,
) -> Result<HMatrix, MatroxError> {
    if !tr.is_on() {
        return inspector_p2(points, p1, kernel, bacc);
    }
    let params = &p1.params;
    let compression = tr.span("compress.lowrank", |_| {
        compress(
            points,
            &p1.tree,
            &p1.htree,
            kernel,
            &p1.sampling,
            &CompressionParams {
                bacc,
                max_rank: params.max_rank,
                grain: params.grain,
            },
        )
    });
    let coarsenset = tr.span("analysis.coarsen", |_| {
        build_coarsenset(&p1.tree, &compression.sranks, &params.coarsen)
    });
    let cds = tr.span("analysis.cds", |_| {
        build_cds_with_grain(
            &p1.tree,
            &compression,
            &p1.near_blockset,
            &p1.far_blockset,
            &coarsenset,
            params.grain,
        )
    });
    let plan = tr.span("codegen.plan", |_| {
        generate_plan(
            p1.near_blockset.clone(),
            p1.far_blockset.clone(),
            coarsenset,
            cds,
            p1.tree.height,
            p1.tree.leaves().len(),
            &params.codegen,
        )
    });
    Ok(HMatrix {
        tree: p1.tree.clone(),
        plan,
        structure: params.structure,
        kernel: *kernel,
        bacc,
        timings: p1.timings,
        panel_width: params.panel_width,
        gemm_kernel: params.kernel,
    })
}

/// Traced runs only: the layer-by-layer composition must serialize to the
/// same `MATROX1` image as `inspector_p2(inspector_p1(..))`, which is timed
/// as `core.inspect`.
pub fn check_composition(
    composed: &HMatrix,
    points: &PointSet,
    kernel: &Kernel,
    params: &MatRoxParams,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Result<(), MatroxError> {
    if !tr.is_on() {
        return Ok(());
    }
    let library = tr.span("core.inspect", |_| {
        inspector_p2(
            points,
            &inspector_p1(points, kernel, params)?,
            kernel,
            composed.bacc,
        )
    })?;
    let (a, b) = (
        matrox_core::to_bytes(composed),
        matrox_core::to_bytes(&library),
    );
    checks.check(a[..] == b[..], || {
        format!(
            "traced layer composition differs from inspector_p2(inspector_p1(..)) at bacc {:e}",
            composed.bacc
        )
    });
    Ok(())
}

/// Layer counts read off a compressed matrix and its p1 sampling.
pub fn model_counts(h: &HMatrix, total_samples: usize, m: &mut Metrics) {
    let sranks = &h.plan.cds.sranks;
    m.insert("tree.nodes", h.tree.num_nodes() as f64);
    m.insert("sampling.total_samples", total_samples as f64);
    m.insert("compress.srank_sum", sranks.iter().sum::<usize>() as f64);
    m.insert(
        "compress.srank_max",
        sranks.iter().copied().max().unwrap_or(0) as f64,
    );
    m.insert("analysis.cds_bytes", h.plan.cds.storage_bytes() as f64);
    m.insert(
        "analysis.near_blocks",
        h.plan.near_blockset.num_interactions() as f64,
    );
    m.insert(
        "analysis.far_blocks",
        h.plan.far_blockset.num_interactions() as f64,
    );
    m.insert("codegen.flops_q64", h.flops(64) as f64);
}

/// Median GF/s of one `n^3` product through the dispatched kernel on the
/// calling thread (a per-core figure).
fn kernel_gflops(n: usize, reps: usize) -> f64 {
    let kd = KernelDispatch::global();
    let a: Vec<f64> = rhs(n * n, 1);
    let b: Vec<f64> = rhs(n * n, 2);
    let mut c = vec![0.0; n * n];
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        kd.gemm(&a, n, n, &b, n, &mut c);
        secs.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&mut c);
    }
    let s = median(&secs).unwrap_or(f64::INFINITY);
    2.0 * (n * n * n) as f64 / s / 1e9
}

/// Median milliseconds of `reps` calls of `f`.
fn median_ms<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, MatroxError>,
) -> Result<f64, MatroxError> {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f()?);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms).unwrap_or(0.0))
}

/// The kernel and executor layers of the traced run, on `session` with the
/// right-hand side `w`.  The roofline reference is measured here, in the
/// same process, and the same evaluation is repeated at full pool width
/// and on a 1-thread pool.  `exec.eval_ms` / `exec.eval_p99_ms` describe
/// the `exec.eval` calls the workload itself made, when it made any.
pub fn exec_profile(
    session: &EvalSession,
    w: &Matrix,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), MatroxError> {
    let peak = kernel_gflops(256, 15);
    m.insert("linalg.peak_gflops", peak);
    m.insert("linalg.leaf_gflops", kernel_gflops(64, 400));

    let h = session.hmatrix();
    let opts = *session.options();
    for _ in 0..5 {
        tr.span("exec.prepare", |_| {
            std::hint::black_box(PreparedExec::new(&h.plan, &h.tree, &opts));
        });
    }
    let full_ms = median_ms(15, || session.evaluate(w))?;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| MatroxError::InvalidInput(format!("1-thread pool: {e}")))?;
    let w1_ms = median_ms(9, || pool.install(|| session.evaluate(w)))?;

    let mut evals = tr.durations_ms("exec.eval");
    if evals.is_empty() {
        evals.push(full_ms);
    }
    let p = threads() as f64;
    let flops = h.flops(w.cols()) as f64;
    let bytes = (h.plan.storage_bytes() + 2 * w.len() * std::mem::size_of::<f64>()) as f64;
    let gflops = flops / (full_ms * 1e-3) / 1e9;
    m.insert("exec.eval_ms", median(&evals).unwrap_or(0.0));
    m.insert("exec.eval_p99_ms", percentile(&evals, 99.0).unwrap_or(0.0));
    m.insert("exec.gflops", gflops);
    m.insert("exec.frac_peak", gflops / (peak * p));
    m.insert("exec.bytes_computed", bytes);
    m.insert("exec.flops_per_byte", flops / bytes);
    m.insert("exec.eval_w1_ms", w1_ms);
    m.insert("exec.parallel_eff", w1_ms / (full_ms * p));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::windowed_rate;
    use std::time::{Duration, Instant};

    #[test]
    fn windowed_rate_takes_the_median_window() {
        let t0 = Instant::now();
        // 10 ops/s for nine seconds, then one second in which a single op
        // ends: the slow window does not move the median.
        let mut ends: Vec<Instant> = (1..=90)
            .map(|i| t0 + Duration::from_millis(100 * i))
            .collect();
        ends.push(t0 + Duration::from_millis(10_000));
        assert!((windowed_rate(t0, &ends) - 10.0).abs() < 1e-9);
        // Shorter than one window: the mean.
        let short = [
            t0 + Duration::from_millis(250),
            t0 + Duration::from_millis(500),
        ];
        assert!((windowed_rate(t0, &short) - 4.0).abs() < 1e-9);
        assert_eq!(windowed_rate(t0, &[]), 0.0);
    }
}
