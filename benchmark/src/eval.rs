//! `eval`: the paper's plan-once / evaluate-many loop.  One closed-loop
//! caller evaluates a pre-generated Q = 64 right-hand side over one
//! `EvalSession` (susy, N = 4096, H2-b, bacc 1e-5).  The traced run also
//! runs the serving probe, which reports the `serve`, `serve.net` and
//! `factor` layers.

use crate::common::{
    bitwise_eq, check_composition, closed_loop, derive, exec_profile, model_counts, p1, p2,
    peak_rss_mb, probe, repeat_setup, rhs_matrix, Checks, Metrics, Ops, Outcome,
};
use crate::stats::median;
use crate::trace::Tracer;
use matrox_baselines::GofmmEvaluator;
use matrox_core::{EvalSession, MatRoxParams, MatroxError};
use matrox_points::{generate, DatasetId, Kernel, PointSet};
use matrox_tree::Structure;
use std::time::{Duration, Instant};

const N: usize = 4096;
const Q: usize = 64;
const BACC: f64 = 1e-5;
const SETUPS: usize = 5;
/// The point set is fixed so every seed evaluates the same plan (its ranks,
/// flops and eps_f); the seed draws the right-hand side.
const POINTS_SEED: u64 = 0;

pub(crate) fn kernel() -> Kernel {
    Kernel::Gaussian { bandwidth: 5.0 }
}

pub(crate) fn params() -> MatRoxParams {
    MatRoxParams::h2b().with_bacc(BACC)
}

struct Setup {
    points: PointSet,
    session: EvalSession,
    total_samples: usize,
    w: matrox_linalg::Matrix,
    reference: matrox_linalg::Matrix,
}

fn setup(seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Result<Setup, MatroxError> {
    let points = tr.span("points.generate", |_| {
        generate(DatasetId::Susy, N, POINTS_SEED)
    });
    let first = p1(&points, &kernel(), &params(), tr)?;
    let h = p2(&points, &first, &kernel(), BACC, tr)?;
    check_composition(&h, &points, &kernel(), &params(), tr, checks)?;
    let session = EvalSession::from_hmatrix(h);
    let w = rhs_matrix(N, Q, derive(seed, 2));
    let reference = session.evaluate(&w)?;
    Ok(Setup {
        points,
        session,
        total_samples: first.sampling.total_samples(),
        w,
        reference,
    })
}

/// Evaluate for `budget`; an op fails its check when its output is not
/// bitwise equal to the reference made in setup.
fn evaluations(s: &Setup, budget: Duration, tr: &mut Tracer) -> Result<Ops, MatroxError> {
    let mut ops = Ops::default();
    let start = Instant::now();
    while start.elapsed() < budget {
        let t0 = Instant::now();
        let y = tr.span("op", |tr| {
            tr.span("exec.eval", |_| s.session.evaluate(&s.w))
        })?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        ops.push(ms, bitwise_eq(y.as_slice(), s.reference.as_slice()));
    }
    Ok(ops)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, MatroxError> {
    let mut checks = Checks::default();
    let mut tr = Tracer::new(trace);
    let mut m = Metrics::new();
    let (s, setup_s) = repeat_setup(SETUPS, || setup(seed, &mut tr, &mut checks))?;
    let budget = Duration::from_secs_f64(seconds);

    let mut run = closed_loop(budget, &mut tr, &mut m, |b, tr| evaluations(&s, b, tr))?;
    checks.check(run.failed == 0, || {
        format!(
            "{} of {} evaluations differ from the setup reference",
            run.failed, run.attempted
        )
    });
    crate::report::timing("op", &run.lat);
    let eps = s.session.hmatrix().overall_accuracy(&s.points, &probe(N))?;
    checks.check(eps.is_finite(), || format!("eps_f is not finite: {eps}"));

    if trace {
        model_counts(s.session.hmatrix(), s.total_samples, &mut m);
        exec_profile(&s.session, &s.w, &mut tr, &mut m)?;
        let bl = tr.span("baselines.gofmm_compress", |_| {
            matrox_bench::build_baseline(&s.points, DatasetId::Susy, Structure::h2b(), BACC)
        });
        let gofmm = GofmmEvaluator::new(&bl.tree, &bl.htree, &bl.compression);
        for _ in 0..3 {
            tr.span("baselines.gofmm_eval", |_| {
                std::hint::black_box(gofmm.evaluate(&s.w))
            });
        }
        let (attempted, failed) = crate::serve::probe(seed, &mut tr, &mut m, &mut checks)?;
        run.attempted += attempted;
        run.failed += failed;
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
