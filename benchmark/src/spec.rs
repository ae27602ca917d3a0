//! `BENCHMARK.json`: the workloads and metrics this program must report.
//! The file is compiled in, so the binary and its metric list cannot drift.

use crate::json::{parse, Value};

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// A metric or workload name: starts with a letter or digit, at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn metric(v: &Value, with_bound: bool) -> Result<MetricSpec, String> {
    let mut expect = vec!["name", "unit", "better"];
    if with_bound {
        expect.push("bound");
    }
    if v.keys() != expect {
        return Err(format!("metric keys {:?}, expected {expect:?}", v.keys()));
    }
    let field = |k: &str| {
        v.get(k)
            .and_then(Value::as_str)
            .ok_or(format!("metric field {k} is not a string"))
    };
    let name = field("name")?.to_string();
    let unit = field("unit")?.to_string();
    if !valid_name(&name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    if !valid_unit(&unit) {
        return Err(format!("invalid unit {unit:?} of {name}"));
    }
    let higher_is_better = match field("better")? {
        "higher" => true,
        "lower" => false,
        other => {
            return Err(format!(
                "{name}: better must be higher or lower, not {other:?}"
            ))
        }
    };
    let bound = match v.get("bound") {
        None => None,
        Some(Value::Num(b)) if *b > 0.0 && *b <= 0.25 => Some(*b),
        Some(b) => return Err(format!("{name}: bound {b:?} is not in (0, 0.25]")),
    };
    Ok(MetricSpec {
        name,
        unit,
        higher_is_better,
        bound,
    })
}

pub fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = parse(text)?;
    let list = |k: &str| {
        doc.get(k)
            .and_then(Value::as_arr)
            .ok_or(format!("{k} is not a list"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| {
            let name = w.get("name").and_then(Value::as_str).unwrap_or_default();
            if w.keys() != ["name", "why"] || !valid_name(name) {
                return Err(format!("bad workload entry {w:?}"));
            }
            Ok(name.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let end_to_end = list("end_to_end")?
        .iter()
        .map(|v| metric(v, true))
        .collect::<Result<Vec<_>, _>>()?;
    let per_layer = list("per_layer")?
        .iter()
        .map(|v| metric(v, false))
        .collect::<Result<Vec<_>, _>>()?;
    let mut names: Vec<&str> = workloads
        .iter()
        .map(String::as_str)
        .chain(end_to_end.iter().chain(&per_layer).map(|m| m.name.as_str()))
        .collect();
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name {} is used twice", w[0]));
    }
    Ok(Spec {
        workloads,
        end_to_end,
        per_layer,
    })
}

pub fn load() -> Result<Spec, String> {
    parse_spec(BENCHMARK_JSON)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for ok in ["eval", "op_p50_ms", "serve.net.p50_ms", "9a-b_c.d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "GF/s", "flop/B"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "ms!", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn the_committed_file_is_valid() {
        let spec = load().expect("BENCHMARK.json parses and validates");
        assert_eq!(spec.workloads, ["eval", "rebuild"]);
        let doc = parse(BENCHMARK_JSON).expect("parse");
        assert_eq!(
            doc.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    /// Units and directions follow from the metric's name, so a metric
    /// cannot be declared with a unit or direction it does not measure.
    #[test]
    fn units_and_directions_match_the_names() {
        let spec = load().expect("valid");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let n = m.name.as_str();
            let (unit, higher) = if n.ends_with("_ms") {
                ("ms", false)
            } else if n.ends_with("_per_s") || n.ends_with("_qps") {
                ("1/s", true)
            } else if n.ends_with("_s") {
                ("s", false)
            } else if n.ends_with("gflops") {
                ("GF/s", true)
            } else if n.ends_with("_mb") {
                ("MiB", false)
            } else if n.ends_with("bytes") || n.ends_with("bytes_computed") {
                ("B", false)
            } else if n.ends_with("_per_byte") {
                ("flop/B", true)
            } else if n.ends_with("flops_q64") {
                ("flop", false)
            } else if n.ends_with("ok_frac") || n.ends_with("_peak") || n.ends_with("_eff") {
                ("ratio", true)
            } else if n.ends_with("_frac") || n.ends_with("eps_f") {
                ("ratio", false)
            } else if n.ends_with("batch_width") {
                ("count", true)
            } else {
                ("count", false)
            };
            assert_eq!((m.unit.as_str(), m.higher_is_better), (unit, higher), "{n}");
        }
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let ok = r#"{"workloads": [{"name": "a", "why": "x"}], "end_to_end": [{"name": "m_ms", "unit": "ms", "better": "lower", "bound": 0.1}], "per_layer": []}"#;
        assert!(parse_spec(ok).is_ok());
        for (from, to) in [
            ("\"lower\"", "\"down\""),
            ("0.1", "0.5"),
            ("\"ms\", \"better\"", "\"m s\", \"better\""),
            ("\"m_ms\"", "\"_m\""),
            ("\"name\": \"a\"", "\"name\": \"m_ms\""),
        ] {
            assert!(parse_spec(&ok.replace(from, to)).is_err(), "{to}");
        }
    }
}
