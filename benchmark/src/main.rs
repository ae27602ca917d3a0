//! The MatRox repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <eval|rebuild> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced and prints every end-to-end
//! metric of `BENCHMARK.json`; with `--trace 1` it records spans around the
//! calls into each crate and prints the per-layer metrics.  The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.  The exit code is non-zero when any output check fails.

mod common;
mod eval;
mod json;
mod rebuild;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = match spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} on {} pool threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::threads()
    );
    let run = match args.workload.as_str() {
        "eval" => eval::run,
        "rebuild" => rebuild::run,
        other => {
            eprintln!(
                "unknown workload {other}; BENCHMARK.json lists {:?}",
                spec.workloads
            );
            return ExitCode::from(2);
        }
    };
    // Stolen CPU time slows every timing; print it so a noisy run shows.
    let (t0, steal0) = (std::time::Instant::now(), common::steal_ticks());
    let result = run(args.seed, args.seconds, args.trace);
    if let (Some(a), Some(b)) = (steal0, common::steal_ticks()) {
        let cpu_ticks = t0.elapsed().as_secs_f64() * 100.0 * common::threads() as f64;
        println!(
            "host steal: {:.1}% of CPU time",
            (b - a) as f64 / cpu_ticks * 100.0
        );
    }
    match result {
        Ok(outcome) => {
            if report::emit(&spec, outcome, args.trace) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("workload {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_strict() {
        let a = parse_args(&args("--workload eval --seed 7 --seconds 10 --trace 1")).expect("ok");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("eval", 7, 10.0, true)
        );
        for bad in [
            "--workload eval --seed x --seconds 10",
            "--workload eval --seed 1 --seconds 0",
            "--workload eval --seed 1 --seconds 10 --trace 2",
            "--workload eval --seed 1 --seconds 10 --bogus 1",
            "--seed 1 --seconds 10",
            "--workload eval --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
