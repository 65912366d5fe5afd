//! `uca` — the unicache static-analysis driver.
//!
//! ```text
//! uca check [--json PATH]    verify scheme invariants, optionally
//!           [--group NAME]   writing the JSON report to PATH; --group
//!                            runs one invariant group in isolation
//!                            (schemes, assoc, conservation, fused,
//!                            coherence, model, patel)
//! uca lint [--root PATH]     lint crates/*/src for determinism rules
//!          [--json PATH]     (root defaults to the current directory)
//! uca lint --self-test       verify the linter detects seeded
//!                            violations and honours uca:allow escapes
//! uca conc [--root PATH]     flow-aware concurrency pass (shared
//!          [--json PATH]     statics, Relaxed-on-output-path, thread
//!                            reachability, shard drains, orderings)
//! uca conc --self-test       verify every conc rule family fires on
//!                            seeded fixtures and follows the call graph
//! ```
//!
//! Exit status: 0 on success, 1 when any invariant or rule fails, 2 on
//! usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use unicache_analysis::{check, conc, lint};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("lint") => run_lint(&args[1..]),
        Some("conc") => run_conc(&args[1..]),
        _ => {
            eprintln!(
                "usage: uca check [--json PATH] [--group NAME] | uca lint [--root PATH] \
                 [--json PATH] [--self-test] | uca conc [--root PATH] [--json PATH] [--self-test]"
            );
            ExitCode::from(2)
        }
    }
}

/// Shared flag set for the workspace-scanning subcommands.
struct ScanArgs {
    root: PathBuf,
    json_path: Option<PathBuf>,
    self_test: bool,
}

fn parse_scan_args(tool: &str, args: &[String]) -> Result<ScanArgs, ExitCode> {
    let mut parsed = ScanArgs {
        root: PathBuf::from("."),
        json_path: None,
        self_test: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--self-test" => parsed.self_test = true,
            "--root" => match it.next() {
                Some(p) => parsed.root = PathBuf::from(p),
                None => {
                    eprintln!("uca {tool}: --root requires a path");
                    return Err(ExitCode::from(2));
                }
            },
            "--json" => match it.next() {
                Some(p) => parsed.json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("uca {tool}: --json requires a path");
                    return Err(ExitCode::from(2));
                }
            },
            other => {
                eprintln!("uca {tool}: unknown argument '{other}'");
                return Err(ExitCode::from(2));
            }
        }
    }
    Ok(parsed)
}

fn write_json(tool: &str, path: &PathBuf, json: &str) -> Result<(), ExitCode> {
    match std::fs::write(path, json) {
        Ok(()) => {
            println!("report written to {}", path.display());
            Ok(())
        }
        Err(e) => {
            eprintln!("uca {tool}: cannot write {}: {e}", path.display());
            Err(ExitCode::from(2))
        }
    }
}

fn run_check(args: &[String]) -> ExitCode {
    let mut json_path: Option<PathBuf> = None;
    let mut group: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => match it.next() {
                Some(p) => json_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("uca check: --json requires a path");
                    return ExitCode::from(2);
                }
            },
            "--group" => match it.next() {
                Some(g) => group = Some(g.clone()),
                None => {
                    eprintln!(
                        "uca check: --group requires a name (one of: {})",
                        check::GROUPS.join(", ")
                    );
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("uca check: unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }

    let report = match group.as_deref() {
        None => check::run_all(),
        Some(name) => match check::run_group(name) {
            Some(r) => r,
            None => {
                eprintln!(
                    "uca check: unknown group '{name}' (one of: {})",
                    check::GROUPS.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };
    if let Some(path) = json_path {
        if let Err(code) = write_json("check", &path, &report.to_json()) {
            return code;
        }
    }
    for e in &report.entries {
        if !e.passed {
            eprintln!(
                "FAIL {} [{}] {}: {}",
                e.scheme, e.geometry, e.invariant, e.details
            );
        }
    }
    println!(
        "uca check: {} invariants, {} failures",
        report.entries.len(),
        report.failures()
    );
    if report.all_passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    let parsed = match parse_scan_args("lint", args) {
        Ok(p) => p,
        Err(code) => return code,
    };

    if parsed.self_test {
        return match lint::self_test() {
            Ok(()) => {
                println!("uca lint --self-test: all seeded violations detected");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("uca lint --self-test FAILED:\n{e}");
                ExitCode::from(1)
            }
        };
    }

    let violations = match lint::lint_workspace(&parsed.root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("uca lint: cannot scan {}: {e}", parsed.root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &parsed.json_path {
        let report = lint::report_from(&violations);
        if let Err(code) = write_json("lint", path, &report.to_json()) {
            return code;
        }
    }
    for v in &violations {
        eprintln!("{v}");
    }
    println!("uca lint: {} violations", violations.len());
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_conc(args: &[String]) -> ExitCode {
    let parsed = match parse_scan_args("conc", args) {
        Ok(p) => p,
        Err(code) => return code,
    };

    if parsed.self_test {
        return match conc::self_test() {
            Ok(()) => {
                println!(
                    "uca conc --self-test: all {} rule families fire and honour allows",
                    conc::RULES.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("uca conc --self-test FAILED:\n{e}");
                ExitCode::from(1)
            }
        };
    }

    let analysis = match conc::conc_workspace(&parsed.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("uca conc: cannot scan {}: {e}", parsed.root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &parsed.json_path {
        if let Err(code) = write_json("conc", path, &analysis.report.to_json()) {
            return code;
        }
    }
    for v in &analysis.violations {
        eprintln!("{v}");
    }
    for e in &analysis.report.entries[..conc::RULES.len()] {
        println!("uca conc: {:<18} {}", e.scheme, e.details);
    }
    println!(
        "uca conc: {} rule families, {} violations",
        conc::RULES.len(),
        analysis.violations.len()
    );
    if analysis.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
