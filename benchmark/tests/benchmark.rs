//! Tiny-scale, one-iteration runs of every workload in both modes, the
//! result-document round trip through `compare`, and the command line's
//! refusal of bad input.

use std::path::PathBuf;
use std::process::Command;
use unicache_benchmark::compare;
use unicache_benchmark::runner::run;
use unicache_benchmark::spec::spec;
use unicache_benchmark::workload::{Config, Workload};
use unicache_workloads::Scale;

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 1,
        seconds: 0.0,
        scale: Scale::Tiny,
        trace,
    }
}

fn names(report: &unicache_benchmark::runner::Report) -> Vec<&str> {
    report.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric_without_failures() {
    let spec = spec().expect("BENCHMARK.json parses");
    let want: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
    for w in Workload::ALL {
        let report = run(&tiny(w, false)).expect("run completes");
        assert_eq!(names(&report), want, "{}", w.name());
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.failures);
        assert!(report.attempted > 0);
        for (m, s) in report.metrics.iter().zip(&spec.end_to_end) {
            assert_eq!(m.unit, s.unit, "{}", m.name);
            assert!(m.value > 0.0, "{} of {} is {}", m.name, w.name(), m.value);
        }
    }
}

#[test]
fn every_workload_traces_every_per_layer_metric_without_failures() {
    let spec = spec().expect("BENCHMARK.json parses");
    let mut want: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
    want.sort_unstable();
    for w in Workload::ALL {
        let report = run(&tiny(w, true)).expect("run completes");
        let mut got = names(&report);
        got.sort_unstable();
        assert_eq!(got, want, "{}", w.name());
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.failures);
        for m in &report.metrics {
            let s = spec
                .per_layer
                .iter()
                .find(|s| s.name == m.name)
                .expect("listed");
            assert_eq!(m.unit, s.unit, "{}", m.name);
            assert!(m.value.is_finite(), "{} of {}", m.name, w.name());
        }
        assert!(!report.tracer.spans().is_empty());
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn benchmark(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn result_documents_feed_compare() {
    let dir = scratch("compare");
    let out = dir.join("coherent.json");
    let run = benchmark(&[
        "--workload",
        "paper-coherent",
        "--scale",
        "tiny",
        "--seconds",
        "0",
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    let line = unicache_benchmark::json::parse(last).expect("the result line is JSON");
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

    let docs = compare::load(&dir).expect("the document loads");
    assert_eq!(docs.len(), 1);
    assert_eq!(docs[0].workload, "paper-coherent");
    let (text, worse) = compare::compare(&spec().expect("spec"), &docs, &docs);
    assert!(!worse, "{text}");
    let cmp = benchmark(&[
        "compare",
        dir.to_str().expect("utf-8"),
        out.to_str().expect("utf-8"),
    ]);
    assert!(
        cmp.status.success(),
        "{}",
        String::from_utf8_lossy(&cmp.stderr)
    );
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let dir = scratch("usage");
    let unwritable = dir.join("no-such-dir").join("out.json");
    for args in [
        vec!["--workload", "paper-nope"],
        vec!["--workload", "paper-fused", "--seed", "one"],
        vec!["--workload", "paper-fused", "--seconds", "ten"],
        vec!["--workload", "paper-fused", "--trace", "yes"],
        vec![
            "--workload",
            "paper-fused",
            "--out",
            unwritable.to_str().expect("utf-8"),
        ],
        vec!["compare", "only-one"],
        vec!["compare", "missing-a.json", "missing-b.json"],
    ] {
        let out = benchmark(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?}"
        );
    }
}
