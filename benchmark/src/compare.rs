//! `benchmark compare A B`: two sets of result documents (each a file or
//! a directory of them, as `--out` writes them), compared per workload and
//! metric against the bounds of `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, quartiles, relative_iqr};
use std::fmt::Write as _;
use std::path::Path;

/// How side B's metric stands against side A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound either way.
    Within,
    /// Worsened by more than the bound.
    Worse,
    /// A side's interquartile range exceeds the bound, so a move within it
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on samples `a` (parent) and `b` (change) of one metric.
/// Wide spread makes it unresolved unless every run of `b` beats every
/// run of `a`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return Verdict::Unresolved;
    };
    let worse_by = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let spread = relative_iqr(a)
        .unwrap_or(0.0)
        .max(relative_iqr(b).unwrap_or(0.0));
    if spread > bound {
        if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One result document.
#[derive(Debug, Clone, PartialEq)]
pub struct RunDoc {
    pub workload: String,
    pub trace: bool,
    pub attempted: f64,
    pub failed: f64,
    pub metrics: Vec<(String, f64)>,
}

fn read_doc(path: &Path) -> Result<RunDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let doc = json::parse(&text).map_err(|e| bad(&e.to_string()))?;
    let result = doc.get("result").ok_or_else(|| bad("no `result`"))?;
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).ok_or_else(|| bad(key));
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| bad("no `result.metrics`"))?
        .iter()
        .map(|(name, m)| Ok((name.clone(), num(m, "value")?)))
        .collect::<Result<_, String>>()?;
    Ok(RunDoc {
        workload: doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no `workload`"))?
            .to_string(),
        trace: num(&doc, "trace")? != 0.0,
        attempted: num(result, "attempted")?,
        failed: num(result, "failed")?,
        metrics,
    })
}

/// Reads `path`: one result document, or every `*.json` in a directory.
pub fn load(path: &Path) -> Result<Vec<RunDoc>, String> {
    if !path.is_dir() {
        return Ok(vec![read_doc(path)?]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files.iter().map(|p| read_doc(p)).collect()
}

fn samples(docs: &[RunDoc], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter(|d| d.workload == workload && d.trace == trace)
        .filter_map(|d| d.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
        .collect()
}

/// Six significant digits, without an exponent for the magnitudes the
/// metrics take.
fn sig(x: f64) -> String {
    let digits = 5 - (x.abs().max(1e-9).log10().floor() as i32).clamp(-3, 5);
    format!("{x:.*}", digits as usize)
}

fn describe(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, q2, q3]) => format!("{} [{}, {}] n={}", sig(q2), sig(q1), sig(q3), xs.len()),
        None => "-".to_string(),
    }
}

/// The comparison report, and whether any verdict is `worse`.
pub fn compare(spec: &Spec, a: &[RunDoc], b: &[RunDoc]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<16} {:<14} {:<42} {:<42} {:>6} verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "bound"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (xa, xb) = (samples(a, w, false, &m.name), samples(b, w, false, &m.name));
            if xa.is_empty() && xb.is_empty() {
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(&xa, &xb, bound, m.higher_is_better);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{w:<16} {:<14} {:<42} {:<42} {bound:>6} {}",
                m.name,
                describe(&xa),
                describe(&xb),
                v.label()
            );
        }
        // fail_ratio: any increase in failed/attempted is a regression.
        let ratio = |docs: &[RunDoc]| {
            let (att, fail) = docs
                .iter()
                .filter(|d| d.workload == *w)
                .fold((0.0, 0.0), |(a, f), d| (a + d.attempted, f + d.failed));
            (att > 0.0).then(|| fail / att)
        };
        if let (Some(ra), Some(rb)) = (ratio(a), ratio(b)) {
            let v = if rb > ra {
                Verdict::Worse
            } else {
                Verdict::Within
            };
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "{w:<16} {:<14} {ra:<42} {rb:<42} {:>6} {}",
                "fail_ratio",
                0,
                v.label()
            );
        }
    }

    // Per-layer metrics have no bound: rank their moves, largest first,
    // signed so that positive means worse.
    let mut moves: Vec<(f64, String, &MetricSpec, f64, f64)> = Vec::new();
    for w in &spec.workloads {
        for m in &spec.per_layer {
            let (Some(ma), Some(mb)) = (
                median(&samples(a, w, true, &m.name)),
                median(&samples(b, w, true, &m.name)),
            ) else {
                continue;
            };
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worse = if m.higher_is_better { -change } else { change };
            moves.push((worse, w.clone(), m, ma, mb));
        }
    }
    if !moves.is_empty() {
        moves.sort_by(|x, y| y.0.abs().total_cmp(&x.0.abs()));
        let _ = writeln!(out, "\nper-layer medians, largest move first (+ is worse):");
        for (worse, w, m, ma, mb) in moves {
            let _ = writeln!(
                out,
                "{:>+9.2}%  {w:<16} {:<44} {:>12} -> {:<12} {}",
                100.0 * worse,
                m.name,
                sig(ma),
                sig(mb),
                m.unit
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&a, &[10.2, 10.3, 10.1, 10.2], 0.1, false),
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0], 0.1, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[12.0, 12.1, 11.9, 12.0], 0.1, true),
            Verdict::Better
        );
        assert_eq!(
            verdict(&a, &[8.0, 8.1, 7.9, 8.0], 0.1, false),
            Verdict::Better
        );
        // Spread wider than the bound: unresolved unless B wins every pair.
        let wide = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(verdict(&a, &wide, 0.1, false), Verdict::Unresolved);
        assert_eq!(
            verdict(&wide, &[1.0, 1.1, 1.2, 1.3], 0.1, false),
            Verdict::Better
        );
        assert_eq!(verdict(&[], &a, 0.1, false), Verdict::Unresolved);
    }

    fn doc(workload: &str, trace: bool, failed: f64, metrics: &[(&str, f64)]) -> RunDoc {
        RunDoc {
            workload: workload.to_string(),
            trace,
            attempted: 10.0,
            failed,
            metrics: metrics.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        }
    }

    #[test]
    fn compare_reports_fail_ratio_and_ranks_layers() {
        let spec = crate::spec::spec().expect("spec parses");
        let a = vec![
            doc("paper-fused", false, 0.0, &[("wall_cal", 15.0)]),
            doc("paper-fused", true, 0.0, &[("core.decode_ns_per_ref", 2.0)]),
        ];
        let same = compare(&spec, &a, &a);
        assert!(!same.1, "identical sets never regress:\n{}", same.0);
        assert!(same.0.contains("within"));
        let mut b = a.clone();
        b[0].failed = 1.0;
        b[1].metrics[0].1 = 3.0;
        let (text, worse) = compare(&spec, &a, &b);
        assert!(worse, "a new failure is a regression:\n{text}");
        assert!(text.contains("+50.00%"), "{text}");
    }
}
