//! `rebuild`: the paper's Fig 10 reuse experiment.  Each closed-loop cycle
//! runs inspector-p1 once on a fresh susy point set (N = 2048), then for
//! each of five accuracies inspector-p2 followed by one Q = 64 `matmul`.

use crate::common::{
    check_composition, closed_loop, derive, exec_profile, model_counts, p1, p2, peak_rss_mb, probe,
    repeat_setup, rhs_matrix, Checks, Metrics, Ops, Outcome,
};
use crate::stats::median;
use crate::trace::Tracer;
use matrox_baselines::GofmmEvaluator;
use matrox_core::{EvalSession, MatroxError};
use matrox_linalg::Matrix;
use matrox_points::{generate, DatasetId, PointSet};
use matrox_tree::Structure;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const N: usize = 2048;
const Q: usize = 64;
const BACCS: [f64; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];
/// Distinct point sets generated in setup; cycle `i` uses set `i % SETS`,
/// so repeats of a set must reproduce their outputs bitwise.
const SETS: usize = 16;
const SETUPS: usize = 5;
const FIXED_CYCLE_SEED: u64 = 0;

fn fingerprint(y: &Matrix) -> u64 {
    y.as_slice().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x100_0000_01b3)
    })
}

struct Cycle {
    /// Output fingerprint per accuracy.
    prints: [u64; 5],
}

fn cycle(points: &PointSet, w: &Matrix, tr: &mut Tracer) -> Result<Cycle, MatroxError> {
    let kernel = crate::eval::kernel();
    let params = crate::eval::params();
    let first = p1(points, &kernel, &params, tr)?;
    let mut prints = [0u64; 5];
    for (k, &bacc) in BACCS.iter().enumerate() {
        let h = p2(points, &first, &kernel, bacc, tr)?;
        let y = tr.span("exec.eval", |_| h.matmul(w))?;
        prints[k] = fingerprint(&y);
    }
    Ok(Cycle { prints })
}

struct Setup {
    sets: Vec<PointSet>,
    w: Matrix,
}

fn setup(seed: u64, tr: &mut Tracer) -> Result<Setup, MatroxError> {
    let sets: Vec<PointSet> = (0..SETS as u64)
        .map(|i| {
            tr.span("points.generate", |_| {
                generate(DatasetId::Susy, N, derive(seed, 100 + i))
            })
        })
        .collect();
    let w = rhs_matrix(N, Q, derive(seed, 2));
    // One untimed warm cycle: page faults and pool start-up land here.
    let mut off = Tracer::new(false);
    cycle(&sets[0], &w, &mut off)?;
    Ok(Setup { sets, w })
}

/// Cycles for `budget`; a cycle fails its check when its outputs differ
/// from an earlier cycle on the same point set.
fn cycles(
    s: &Setup,
    budget: Duration,
    tr: &mut Tracer,
    seen: &mut HashMap<usize, [u64; 5]>,
) -> Result<Ops, MatroxError> {
    let mut ops = Ops::default();
    let start = Instant::now();
    while start.elapsed() < budget {
        let set = ops.lat.len() % SETS;
        let t0 = Instant::now();
        let c = tr.span("op", |tr| cycle(&s.sets[set], &s.w, tr))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let first = *seen.entry(set).or_insert(c.prints);
        ops.push(ms, first == c.prints);
    }
    Ok(ops)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, MatroxError> {
    let mut checks = Checks::default();
    let mut tr = Tracer::new(trace);
    let mut m = Metrics::new();
    let (s, setup_s) = repeat_setup(SETUPS, || setup(seed, &mut tr))?;
    let budget = Duration::from_secs_f64(seconds);
    let mut seen = HashMap::new();

    let run = closed_loop(budget, &mut tr, &mut m, |b, tr| {
        cycles(&s, b, tr, &mut seen)
    })?;
    checks.check(run.failed == 0, || {
        format!(
            "{} cycles differ bitwise from an earlier cycle on the same point set",
            run.failed
        )
    });
    crate::report::timing("op", &run.lat);

    // Accuracy of the bacc = 1e-5 model of a fixed-seed cycle.
    let kernel = crate::eval::kernel();
    let params = crate::eval::params();
    let points = &generate(DatasetId::Susy, N, FIXED_CYCLE_SEED);
    let mut off = Tracer::new(false);
    let first = p1(points, &kernel, &params, &mut off)?;
    let h = p2(points, &first, &kernel, 1e-5, &mut off)?;
    let eps = h.overall_accuracy(points, &probe(N))?;
    checks.check(eps.is_finite(), || format!("eps_f is not finite: {eps}"));

    if trace {
        // The traced composition must build the same matrices as the library
        // at every accuracy of the cycle.
        let composed = p1(points, &kernel, &params, &mut tr)?;
        for &bacc in &BACCS {
            let hc = p2(points, &composed, &kernel, bacc, &mut tr)?;
            check_composition(
                &hc,
                points,
                &kernel,
                &params.with_bacc(bacc),
                &mut tr,
                &mut checks,
            )?;
        }
        model_counts(&h, first.sampling.total_samples(), &mut m);
        let session = EvalSession::from_hmatrix(h);
        exec_profile(&session, &s.w, &mut tr, &mut m)?;
        for _ in 0..3 {
            let bl = tr.span("baselines.gofmm_compress", |_| {
                matrox_bench::build_baseline(points, DatasetId::Susy, Structure::h2b(), 1e-5)
            });
            let gofmm = GofmmEvaluator::new(&bl.tree, &bl.htree, &bl.compression);
            tr.span("baselines.gofmm_eval", |_| {
                std::hint::black_box(gofmm.evaluate(&s.w))
            });
        }
    } else {
        m.insert("setup_s", setup_s);
        m.insert("op_p50_ms", median(&run.lat).unwrap_or(0.0));
        m.insert("eps_f", eps);
        m.insert(
            "ok_frac",
            1.0 - run.failed as f64 / run.attempted.max(1) as f64,
        );
        m.insert("peak_rss_mb", peak_rss_mb());
    }
    Ok(Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: crate::report::finish_layers(m, &tr),
        checks,
    })
}
