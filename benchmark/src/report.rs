//! Turning a workload's outcome into the printed metrics and the result
//! line.

use crate::common::{Metrics, Outcome};
use crate::json::quote;
use crate::spec::Spec;
use crate::stats::{median, tail};
use crate::trace::Tracer;

/// Per-layer metrics that are the median duration of one span name.
const SPAN_METRICS: [(&str, &str); 16] = [
    ("points.generate_ms", "points.generate"),
    ("tree.cluster_ms", "tree.cluster"),
    ("tree.htree_ms", "tree.htree"),
    ("sampling.sample_ms", "sampling.sample"),
    ("compress.lowrank_ms", "compress.lowrank"),
    ("analysis.blocking_ms", "analysis.blocking"),
    ("analysis.coarsen_ms", "analysis.coarsen"),
    ("analysis.cds_ms", "analysis.cds"),
    ("codegen.plan_ms", "codegen.plan"),
    ("core.inspect_ms", "core.inspect"),
    ("exec.prepare_ms", "exec.prepare"),
    ("exec.narrow_ms", "exec.narrow"),
    ("factor.factorize_ms", "factor.factorize"),
    ("factor.solve_ms", "factor.solve"),
    ("baselines.gofmm_eval_ms", "baselines.gofmm_eval"),
    ("baselines.gofmm_compress_ms", "baselines.gofmm_compress"),
];

/// Print a timing's median and its highest percentile with at least ten
/// samples beyond it, with the sample count.
pub fn timing(label: &str, samples_ms: &[f64]) {
    let p50 = median(samples_ms).unwrap_or(f64::NAN);
    match tail(samples_ms) {
        Some((p, v, beyond)) => println!(
            "{label}: {} samples, p50 {p50:.4} ms, p{p} {v:.4} ms ({beyond} beyond)",
            samples_ms.len()
        ),
        None => println!(
            "{label}: {} samples, p50 {p50:.4} ms (too few samples for a tail)",
            samples_ms.len()
        ),
    }
}

/// Add the span-derived layer metrics of a traced run.
pub fn finish_layers(mut m: Metrics, tr: &Tracer) -> Metrics {
    if tr.is_on() {
        for (metric, span) in SPAN_METRICS {
            m.entry(metric).or_insert_with(|| tr.median_ms(span));
        }
    }
    m
}

/// Print every metric with its unit and the result line.  Returns whether
/// the run is correct: all checks passed and the metrics are exactly the
/// ones `BENCHMARK.json` lists for this mode, each finite.
pub fn emit(spec: &Spec, mut out: Outcome, trace: bool) -> bool {
    let wanted = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for name in out.metrics.keys() {
        if !wanted.iter().any(|m| m.name == *name) {
            out.checks
                .failures
                .push(format!("metric {name} is not listed in BENCHMARK.json"));
        }
    }
    let mut fields = Vec::with_capacity(wanted.len());
    for spec_metric in wanted {
        let (value, note) = match out.metrics.get(spec_metric.name.as_str()) {
            Some(&v) => (v, ""),
            // A layer this workload never calls reads 0.
            None if trace => (0.0, " (not exercised by this workload)"),
            None => {
                out.checks
                    .failures
                    .push(format!("metric {} was not measured", spec_metric.name));
                (0.0, "")
            }
        };
        if !value.is_finite() {
            out.checks.failures.push(format!(
                "metric {} is not finite: {value}",
                spec_metric.name
            ));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{} = {value} {}{note}", spec_metric.name, spec_metric.unit);
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(&spec_metric.name),
            quote(&spec_metric.unit)
        ));
    }
    for f in &out.checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = out.checks.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    correct
}
