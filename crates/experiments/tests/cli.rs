//! End-to-end tests of the `xp` binary: every experiment name runs, the
//! CSV output parses, bad invocations fail with usage help, and an
//! artifact that cannot be written fails the run.

use std::process::Command;

fn xp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xp"))
}

#[test]
fn usage_on_no_args_and_bad_args() {
    let out = xp().output().expect("spawn xp");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");

    let out = xp().args(["not-an-experiment"]).output().expect("spawn");
    assert!(!out.status.success());

    let out = xp()
        .args(["fig4", "--scale", "bogus"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // The retired process-global ablation knobs (`--no-` plus the
    // knob's name) are unknown flags now.
    for knob in ["simd", "coherent-chunk"] {
        let flag = format!("--no-{knob}");
        let out = xp().args(["fig4", &flag]).output().expect("spawn");
        assert!(!out.status.success(), "{flag} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "{flag}: {err}");
    }
}

#[test]
fn fig4_csv_is_machine_readable() {
    let out = xp()
        .args(["fig4", "--scale", "tiny", "--csv"])
        .output()
        .expect("spawn xp");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let mut lines = stdout.lines().filter(|l| !l.starts_with('#'));
    let header = lines.next().expect("header");
    assert!(header.starts_with("workload,"));
    let cols = header.split(',').count();
    let mut rows = 0;
    for line in lines {
        assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        // Every cell after the label must parse as f64.
        for cell in line.split(',').skip(1) {
            cell.parse::<f64>()
                .unwrap_or_else(|_| panic!("unparseable cell {cell:?} in {line:?}"));
        }
        rows += 1;
    }
    assert_eq!(rows, 12, "11 workloads + Average");
}

#[test]
fn fig1_prints_the_histogram_report() {
    let out = xp()
        .args(["fig1", "--scale", "tiny"])
        .output()
        .expect("spawn xp");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fig. 1"));
    assert!(stdout.contains("kurtosis"));
    assert!(stdout.contains("paper: 90.43%"));
}

#[test]
fn quick_experiments_all_run_at_tiny_scale() {
    // The fast subset (the slow ones are covered by unit tests of their
    // runner functions).
    for name in ["fig6", "fig13", "classify", "workloads", "icache"] {
        let out = xp()
            .args([name, "--scale", "tiny"])
            .output()
            .expect("spawn xp");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("=="),
            "{name}: no table emitted"
        );
    }
}

#[test]
fn unwritable_artifact_paths_fail_the_run() {
    let missing = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir");
    assert!(!missing.exists());
    for flag in [
        "--timing-json",
        "--metrics-json",
        "--model-json",
        "--trace-out",
    ] {
        let path = missing.join("artifact.json");
        let out = xp()
            .args(["fig6", "--scale", "tiny", flag])
            .arg(&path)
            .output()
            .expect("spawn xp");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {err}");
        assert!(err.contains("cannot write"), "{flag}: {err}");
    }
}

#[test]
fn timing_json_reports_unaccounted_seconds() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("timing_classify.json");
    let out = xp()
        .args(["classify", "--scale", "tiny", "--timing-json"])
        .arg(&path)
        .output()
        .expect("spawn xp");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success() && err.contains("unaccounted: "),
        "{err}"
    );
    let json = std::fs::read_to_string(&path).expect("artifact written");
    // A non-negative number: "-0.000000" would fail the digit scan.
    let value = json
        .split("\"unaccounted_seconds\": ")
        .nth(1)
        .and_then(|v| v.split(|c: char| !(c.is_ascii_digit() || c == '.')).next());
    assert!(value.is_some_and(|v| v.parse::<f64>().is_ok()), "{json}");
}
