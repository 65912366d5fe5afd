//! `benchmark` — see `cli::USAGE` and the crate README.

use std::io::Write as _;
use std::process::ExitCode;
use unicache_benchmark::cli::{self, Command, Usage};
use unicache_benchmark::{compare, digests, runner, spec};
use unicache_experiments::{render_experiment, SimStore, ALL_EXPERIMENTS};
use unicache_workloads::Workload as Kernel;

fn usage(Usage(why): &Usage) -> ExitCode {
    eprintln!("benchmark: {why}\n{}", cli::USAGE);
    ExitCode::from(2)
}

fn main() -> ExitCode {
    unicache_exec::tune_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Err(u) => usage(&u),
        Ok(Command::Run { cfg, out }) => {
            // Open the result file first, so a bad path fails before the run.
            let file = match out.as_ref().map(std::fs::File::create).transpose() {
                Ok(f) => f,
                Err(e) => return usage(&Usage(format!("--out: {e}"))),
            };
            let report = match runner::run(&cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprint!("{}", report.summary());
            if let Some(mut f) = file {
                if let Err(e) = f.write_all(report.document_json().as_bytes()) {
                    eprintln!("benchmark: writing the result document: {e}");
                    return ExitCode::FAILURE;
                }
            }
            println!("{}", report.result_json());
            ExitCode::SUCCESS
        }
        Ok(Command::Compare { a, b }) => {
            let spec = match spec::spec() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (docs_a, docs_b) = match (compare::load(&a), compare::load(&b)) {
                (Ok(x), Ok(y)) => (x, y),
                (Err(e), _) | (_, Err(e)) => return usage(&Usage(e)),
            };
            let (text, any_worse) = compare::compare(&spec, &docs_a, &docs_b);
            print!("{text}");
            if any_worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Ok(Command::Digests { scale }) => {
            let store = SimStore::new(scale);
            println!(
                "const {}: &[(&str, u64)] = &[",
                runner::scale_name(scale).to_uppercase()
            );
            for name in ALL_EXPERIMENTS {
                let text = render_experiment(&store, name, false, Kernel::Fft)
                    .expect("registry names always render");
                println!("    ({name:?}, {:#018x}),", digests::fnv1a(text.as_bytes()));
            }
            println!("];");
            ExitCode::SUCCESS
        }
    }
}
