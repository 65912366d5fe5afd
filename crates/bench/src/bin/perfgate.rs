//! `perfgate` — the CI gate over `xp --timing-json` artifacts.
//!
//! ```text
//! perfgate compare <baseline.json> <current.json> [--max-regress F] [--out diff.json]
//! perfgate speedup <serial.json> <parallel.json> [--min F]
//! ```
//!
//! `compare` fails (exit 1) when the calibrated time (seconds over the
//! run's yardstick) of any phase that took at least 0.3 s in the
//! baseline rose by more than `--max-regress` (default 0.25), or the
//! total calibrated time did while both runs simulated the same records;
//! otherwise the total prints as `not comparable`. `--out` writes the
//! diff verdict as a JSON artifact either way; a failed write exits 2
//! after the verdict is printed. `speedup` fails when wall-clock speedup
//! of the parallel artifact over the serial one is below `--min`
//! (default 2.0). An unknown flag, a flag without a value, or a bound
//! that is not a finite non-negative number prints usage and exits 2, as
//! does an artifact the gate cannot read. Logic and parsing live in
//! [`unicache_bench::gate`].

use std::process::ExitCode;
use unicache_bench::gate::{self, Comparison, PhaseVerdict};

/// Prints usage; returns the usage exit code.
fn usage() -> u8 {
    eprintln!(
        "usage: perfgate compare <baseline.json> <current.json> [--max-regress F] [--out FILE]\n\
         \x20      perfgate speedup <serial.json> <parallel.json> [--min F]"
    );
    2
}

/// Prints `e`; returns the exit code of an artifact the gate cannot use.
fn fail(e: String) -> u8 {
    eprintln!("perfgate: {e}");
    2
}

fn read(path: &str) -> Result<String, u8> {
    std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))
}

/// The `--flag VALUE` pairs after the two artifact paths, or `None` when
/// a flag is not in `known` or lacks a value.
fn flags<'a>(rest: &'a [String], known: &[&str]) -> Option<Vec<(&'a str, &'a str)>> {
    rest.chunks(2)
        .map(|pair| match pair {
            [flag, value] if known.contains(&flag.as_str()) && !value.starts_with("--") => {
                Some((flag.as_str(), value.as_str()))
            }
            _ => None,
        })
        .collect()
}

/// The last value of `flag`, if given.
fn last<'a>(flags: &[(&str, &'a str)], flag: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(f, _)| *f == flag)
        .map(|(_, v)| *v)
}

/// The verdict lines `compare` prints.
fn report(cmp: &Comparison) -> String {
    let line = |v: &PhaseVerdict, status: &str| {
        format!(
            "perfgate: {} {:.1} -> {:.1} cal ({:+.1}%, limit +{:.0}%): {status}\n",
            v.name,
            v.base,
            v.cur,
            100.0 * v.regress(),
            100.0 * cmp.max_regress
        )
    };
    let mut out = format!(
        "perfgate: yardstick {:.3} -> {:.3} ms per call\n",
        1e3 * cmp.yardstick.0,
        1e3 * cmp.yardstick.1
    );
    for p in &cmp.phases {
        out += &line(p, pass_fail(p.pass));
    }
    out += &if cmp.comparable() {
        line(&cmp.total, pass_fail(cmp.total.pass))
    } else {
        let (b, c) = cmp.records;
        line(
            &cmp.total,
            &format!("not comparable (records_simulated {b} -> {c})"),
        )
    };
    out + &format!(
        "perfgate: {} gated phases: {}\n",
        cmp.phases.len(),
        pass_fail(cmp.pass())
    )
}

fn pass_fail(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Runs one command: `Ok(pass)`, or `Err` with the exit code of a usage
/// error, an unreadable artifact or an unwritable `--out`.
fn run(args: &[String]) -> Result<bool, u8> {
    let [cmd, a, b, rest @ ..] = args else {
        return Err(usage());
    };
    let (known, limit_flag, default): (&[&str], &str, f64) = match cmd.as_str() {
        "compare" => (&["--max-regress", "--out"], "--max-regress", 0.25),
        "speedup" => (&["--min"], "--min", 2.0),
        _ => return Err(usage()),
    };
    let flags = flags(rest, known).ok_or_else(usage)?;
    let limit = match last(&flags, limit_flag) {
        None => default,
        Some(v) => v
            .parse()
            .ok()
            .filter(|x: &f64| x.is_finite() && *x >= 0.0)
            .ok_or_else(usage)?,
    };
    let (base, cur) = (read(a)?, read(b)?);
    if cmd == "speedup" {
        let s = gate::speedup(&base, &cur).map_err(fail)?;
        let pass = s >= limit;
        eprintln!(
            "perfgate: wall-clock speedup {s:.2}x (minimum {limit:.2}x): {}",
            pass_fail(pass)
        );
        return Ok(pass);
    }
    let cmp = gate::compare(&base, &cur, limit).map_err(fail)?;
    eprint!("{}", report(&cmp));
    if let Some(path) = last(&flags, "--out") {
        std::fs::write(path, cmp.to_json())
            .map_err(|e| fail(format!("cannot write {path}: {e}")))?;
    }
    Ok(cmp.pass())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(code) => ExitCode::from(code),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = "{\"phases\": [{\"name\": \"coherent\", \"seconds\": 3.0}], \
                        \"total_seconds\": 4.0, \"yardstick_seconds\": 0.003, \
                        \"records_simulated\": 100}";

    /// Writes `json` to a per-process temporary file; returns its path.
    fn artifact(name: &str, json: &str) -> String {
        let path = std::env::temp_dir().join(format!("perfgate-{}-{name}", std::process::id()));
        std::fs::write(&path, json).expect("write artifact");
        path.to_str().expect("utf-8 temp path").to_string()
    }

    fn run_with(args: &[&str]) -> Result<bool, u8> {
        run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn calibrated_verdicts_and_exit_codes() {
        let base = artifact("base.json", BASE);
        let slow = artifact("slow.json", &BASE.replace("3.0", "3.9"));
        let drift = artifact(
            "drift.json",
            &BASE.replace("4.0", "9.0").replace("100}", "120}"),
        );
        let no_cal = artifact("nocal.json", &BASE.replace("yardstick", "other"));
        assert_eq!(run_with(&["compare", &base, &base]), Ok(true));
        assert_eq!(run_with(&["compare", &base, &slow]), Ok(false));
        assert_eq!(run_with(&["compare", &base, &drift]), Ok(true));
        assert_eq!(run_with(&["compare", &base, &no_cal]), Err(2));
        assert_eq!(run_with(&["compare", &no_cal, &base]), Err(2));
        let cmp = gate::compare(BASE, &std::fs::read_to_string(&drift).unwrap(), 0.25).unwrap();
        let text = report(&cmp);
        assert!(
            text.contains(
                "total 1333.3 -> 3000.0 cal (+125.0%, limit +25%): not comparable \
                           (records_simulated 100 -> 120)"
            ),
            "{text}"
        );
        assert!(text.contains("perfgate: 1 gated phases: PASS"), "{text}");
        for path in [base, slow, drift, no_cal] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn bad_arguments_are_usage_errors_that_write_nothing() {
        let base = artifact("args.json", BASE);
        let diff = std::env::temp_dir().join(format!("perfgate-{}-diff.json", std::process::id()));
        let _ = std::fs::remove_file(&diff);
        let out = diff.to_str().expect("utf-8 temp path");
        for args in [
            vec!["compare", &base, &base, "--out"],
            vec!["compare", &base, &base, "--out", "--max-regress", "0.1"],
            vec!["compare", &base, &base, "--max-regress", "NaN"],
            vec!["compare", &base, &base, "--max-regress", "inf"],
            vec!["compare", &base, &base, "--max-regress", "-0.1"],
            vec!["compare", &base, &base, "--max-regress"],
            vec!["compare", &base, &base, "--phase", "coherent"],
            vec!["compare", &base, &base, "--min", "1", "--out", out],
            vec!["speedup", &base, &base, "--min", "-1"],
            vec!["speedup", &base, &base, "--min", "nan"],
            vec!["speedup", &base, &base, "--max-regress", "0.1"],
            vec!["bogus", &base, &base],
            vec!["compare", &base],
        ] {
            assert_eq!(run_with(&args), Err(2), "{args:?}");
        }
        assert!(!diff.exists(), "a usage error writes nothing");
        assert_eq!(run_with(&["compare", &base, &base, "--out", out]), Ok(true));
        assert!(diff.exists());
        let _ = std::fs::remove_file(&diff);
        assert_eq!(run_with(&["speedup", &base, &base, "--min", "1"]), Ok(true));
        let _ = std::fs::remove_file(base);
    }
}
