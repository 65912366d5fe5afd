//! Command-line parsing. Bad input is a `Usage` error, never a panic.

use crate::workload::{Config, Workload};
use std::path::PathBuf;
use unicache_workloads::Scale;

pub const USAGE: &str = "\
usage: benchmark [run] --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                       [--scale tiny|small] [--out FILE]
       benchmark trace --workload NAME [same options]      (run with --trace 1)
       benchmark compare A B     (A, B: a result document or a directory of them)
       benchmark digests [--scale tiny|small]
workloads: paper-fused paper-bypass paper-coherent synth-shared-rw
defaults: --seed 1 --seconds 25 --trace 0 --scale tiny";

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run { cfg: Config, out: Option<PathBuf> },
    Compare { a: PathBuf, b: PathBuf },
    Digests { scale: Scale },
}

/// Why the arguments were refused.
#[derive(Debug, Clone, PartialEq)]
pub struct Usage(pub String);

fn scale_of(v: &str) -> Result<Scale, Usage> {
    match v {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        _ => Err(Usage(format!("--scale: expected tiny or small, got {v:?}"))),
    }
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, Usage> {
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("run" | "trace" | "compare" | "digests")) => (s, &args[1..]),
        _ => ("run", args),
    };
    match sub {
        "compare" => match rest {
            [a, b] => Ok(Command::Compare {
                a: PathBuf::from(a),
                b: PathBuf::from(b),
            }),
            _ => Err(Usage("compare takes exactly two paths".into())),
        },
        "digests" => match rest {
            [] => Ok(Command::Digests {
                scale: Scale::Small,
            }),
            [flag, v] if flag == "--scale" => Ok(Command::Digests {
                scale: scale_of(v)?,
            }),
            _ => Err(Usage("digests takes only --scale".into())),
        },
        _ => parse_run(rest, sub == "trace"),
    }
}

fn parse_run(args: &[String], trace: bool) -> Result<Command, Usage> {
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::PaperFused,
        seed: 1,
        seconds: 25.0,
        scale: Scale::Tiny,
        trace,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| Usage(format!("{flag}: missing value")))?;
        let bad = |what: &str| Usage(format!("{flag}: expected {what}, got {value:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => trace,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => cfg.scale = scale_of(value)?,
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(Usage(format!("unknown option {flag}"))),
        }
    }
    cfg.workload = workload.ok_or_else(|| Usage("--workload is required".into()))?;
    Ok(Command::Run { cfg, out })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_json_command_line() {
        let cmd = parse(&args(
            "--workload synth-shared-rw --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        let Command::Run { cfg, out } = cmd else {
            panic!("expected a run")
        };
        assert_eq!(cfg.workload, Workload::SynthSharedRw);
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.trace, out),
            (7, 10.0, true, None)
        );
        assert_eq!(cfg.scale, Scale::Tiny);
    }

    #[test]
    fn subcommands_parse() {
        let Ok(Command::Run { cfg, .. }) =
            parse(&args("trace --workload paper-fused --scale small"))
        else {
            panic!("trace parses")
        };
        assert!(cfg.trace);
        assert_eq!(cfg.scale, Scale::Small);
        assert_eq!(
            parse(&args("compare a b")),
            Ok(Command::Compare {
                a: "a".into(),
                b: "b".into()
            })
        );
        assert_eq!(
            parse(&args("digests --scale tiny")),
            Ok(Command::Digests { scale: Scale::Tiny })
        );
    }

    #[test]
    fn bad_input_is_a_usage_error() {
        for bad in [
            "",
            "--workload nope",
            "--workload paper-fused --seed x",
            "--workload paper-fused --seed -1",
            "--workload paper-fused --seconds abc",
            "--workload paper-fused --seconds -2",
            "--workload paper-fused --seconds inf",
            "--workload paper-fused --trace 2",
            "--workload paper-fused --scale large",
            "--workload paper-fused --bogus 1",
            "--workload",
            "compare a",
            "digests --scale",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
