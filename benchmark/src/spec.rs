//! `BENCHMARK.json`, compiled in: the workload names, and each metric's
//! unit, direction and regression bound. The runner's output and
//! `compare`'s verdicts both answer to it.

use crate::json::{self, Value};

pub const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Parses the compiled-in `BENCHMARK.json`.
pub fn spec() -> Result<Spec, String> {
    parse(SPEC_JSON)
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))
    };
    let str_of = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: an entry lacks `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: str_of(m, "name")?,
                    unit: str_of(m, "unit")?,
                    higher_is_better: str_of(m, "better")? == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| str_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn spec_names_the_runner_workloads_and_bounds_every_end_to_end_metric() {
        let spec = spec().expect("BENCHMARK.json parses");
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.per_layer.len() <= 128);
    }

    #[test]
    fn malformed_specs_are_errors() {
        assert!(parse("{").is_err());
        assert!(parse("{\"workloads\": 3}").is_err());
        assert!(parse(
            "{\"workloads\": [], \"end_to_end\": [{\"name\": \"x\"}], \"per_layer\": []}"
        )
        .is_err());
    }
}
