//! `perfgate` — the CI gate over `xp --timing-json` artifacts.
//!
//! ```text
//! perfgate compare <baseline.json> <current.json> [--max-regress F]
//!                  [--phase NAME]... [--out diff.json]
//! perfgate speedup <serial.json> <parallel.json> [--min F]
//! ```
//!
//! `compare` fails (exit 1) when the current run's aggregate records/sec
//! has regressed more than `--max-regress` (default 0.25) below the
//! baseline, or when any `--phase` (repeatable, e.g. `--phase coherent`)
//! grew its share of total wall-clock by more than the same limit, or —
//! when both artifacts carry per-phase `records_per_sec` — when a gated
//! phase's own throughput dropped by more than the limit;
//! `--out` writes the diff verdict as a JSON artifact either way; a
//! failed write exits 2 after the verdict is printed.
//! `speedup` fails when wall-clock speedup of the parallel artifact
//! over the serial one is below `--min` (default 2.0). Logic and parsing
//! live in [`unicache_bench::gate`].

use std::process::ExitCode;
use unicache_bench::gate;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfgate compare <baseline.json> <current.json> [--max-regress F] \
         [--phase NAME]... [--out FILE]\n\
         \x20      perfgate speedup <serial.json> <parallel.json> [--min F]"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("perfgate: cannot read {path}: {e}");
        ExitCode::from(2)
    })
}

fn parse_flag(args: &[String], flag: &str, default: f64) -> Result<f64, ExitCode> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
            Some(v) => Ok(v),
            None => Err(usage()),
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(a), Some(b)) = (args.first(), args.get(1), args.get(2)) else {
        return usage();
    };
    match cmd.as_str() {
        "compare" => {
            let max_regress = match parse_flag(&args, "--max-regress", 0.25) {
                Ok(v) => v,
                Err(c) => return c,
            };
            let out = args
                .iter()
                .position(|x| x == "--out")
                .and_then(|i| args.get(i + 1));
            let phases: Vec<&str> = args
                .iter()
                .enumerate()
                .filter(|(_, x)| x.as_str() == "--phase")
                .filter_map(|(i, _)| args.get(i + 1).map(String::as_str))
                .collect();
            let (base, cur) = match (read(a), read(b)) {
                (Ok(x), Ok(y)) => (x, y),
                (Err(c), _) | (_, Err(c)) => return c,
            };
            let cmp = match gate::compare_with_phases(&base, &cur, max_regress, &phases) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("perfgate: {e}");
                    return ExitCode::from(2);
                }
            };
            let written = match out {
                Some(path) => std::fs::write(path, cmp.to_json())
                    .map_err(|e| eprintln!("perfgate: cannot write {path}: {e}"))
                    .is_ok(),
                None => true,
            };
            for w in &cmp.warnings {
                eprintln!("perfgate: warning: {w}");
            }
            for p in &cmp.phases {
                let rps = if p.base_rps > 0.0 && p.cur_rps > 0.0 {
                    format!(
                        ", {:.0} -> {:.0} rec/s ({:+.1}%)",
                        p.base_rps,
                        p.cur_rps,
                        -100.0 * p.rps_regress
                    )
                } else {
                    String::new()
                };
                eprintln!(
                    "perfgate: phase '{}' share {:.1}% -> {:.1}% of wall-clock{rps}: {}",
                    p.name,
                    100.0 * p.base_share,
                    100.0 * p.cur_share,
                    if p.pass { "PASS" } else { "FAIL" }
                );
            }
            eprintln!(
                "perfgate: baseline {:.0} rec/s, current {:.0} rec/s, change {:+.1}% \
                 (limit -{:.0}%): {}",
                cmp.base_rps,
                cmp.cur_rps,
                -100.0 * cmp.regress,
                100.0 * cmp.max_regress,
                if cmp.pass { "PASS" } else { "FAIL" }
            );
            if !written {
                ExitCode::from(2)
            } else if cmp.pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        "speedup" => {
            let min = match parse_flag(&args, "--min", 2.0) {
                Ok(v) => v,
                Err(c) => return c,
            };
            let (serial, parallel) = match (read(a), read(b)) {
                (Ok(x), Ok(y)) => (x, y),
                (Err(c), _) | (_, Err(c)) => return c,
            };
            let s = match gate::speedup(&serial, &parallel) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("perfgate: {e}");
                    return ExitCode::from(2);
                }
            };
            let pass = s >= min;
            eprintln!(
                "perfgate: wall-clock speedup {s:.2}x (minimum {min:.2}x): {}",
                if pass { "PASS" } else { "FAIL" }
            );
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        _ => usage(),
    }
}
