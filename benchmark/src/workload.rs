//! The benchmark's workloads and the closed loop that runs them.
//!
//! One client, the benchmark itself, starts each operation only after
//! the previous one has completed. An iteration sets up the workload's
//! inputs from scratch (timed as set-up), then runs every timed operation
//! once (timed as wall time). A run warms up untimed, starting with one
//! iteration of every operation, then runs timed iterations until its
//! time budget is spent, and checks the output of every operation it runs.

use crate::digests;
use crate::synth::{self, SynthInput, SynthOutput};
use crate::tracer::Tracer;
use unicache_experiments::figures::coherent::coherent_mix;
use unicache_experiments::{render_experiment, SimStore};
use unicache_timing::Stopwatch;
use unicache_workloads::{Scale, Workload as Kernel};

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Experiments served by SimStore's fused solo engine.
    PaperFused,
    /// Experiments whose runners simulate outside SimStore's memo.
    PaperBypass,
    /// The coherent-hierarchy sweep.
    PaperCoherent,
    /// Seeded four-thread shared read/write stream.
    SynthSharedRw,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperFused,
        Workload::PaperBypass,
        Workload::PaperCoherent,
        Workload::SynthSharedRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFused => "paper-fused",
            Workload::PaperBypass => "paper-bypass",
            Workload::PaperCoherent => "paper-coherent",
            Workload::SynthSharedRw => "synth-shared-rw",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiments a paper workload renders, in `xp all` order. Every
    /// experiment belongs to exactly one paper workload.
    pub fn experiments(self) -> &'static [&'static str] {
        match self {
            Workload::PaperFused => &[
                "fig1",
                "fig4",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "classify",
                "idx-amat",
                "assoc-sweep",
                "workloads",
                "select",
                "model",
            ],
            Workload::PaperBypass => &[
                "fig13",
                "fig14",
                "patel",
                "belady",
                "generalize",
                "hierarchy",
                "icache",
                "online",
                "phases",
            ],
            Workload::PaperCoherent => &["coherent"],
            Workload::SynthSharedRw => &[],
        }
    }

    /// The paper traces the workload's set-up generates.
    fn kernels(self) -> Vec<Kernel> {
        match self {
            Workload::PaperCoherent => coherent_mix(),
            _ => Kernel::all(),
        }
    }

    /// The names of the workload's operations, in order.
    pub fn op_names(self) -> Vec<String> {
        match self {
            Workload::SynthSharedRw => synth::op_names(),
            w => w.experiments().iter().map(|e| e.to_string()).collect(),
        }
    }

    /// Operations run and checked once per run but left out of the timed
    /// loop. `patel`'s bounded search spends its time in one branchy loop
    /// whose speed hangs on where the linker places it: two builds of the
    /// same source in checkouts whose paths differ in length ran it 0.21 s
    /// and 0.79 s, so timing it would make every comparison of this
    /// workload a draw of code placement. Its own time is the per-layer
    /// `indexing.patel_search_s`.
    fn untimed(self) -> &'static [&'static str] {
        match self {
            Workload::PaperBypass => &["patel"],
            _ => &[],
        }
    }

    /// Indices into [`Workload::op_names`] of every operation.
    pub(crate) fn all_ops(self) -> Vec<usize> {
        (0..self.op_names().len()).collect()
    }

    /// Indices into [`Workload::op_names`] of the timed operations.
    pub(crate) fn timed_ops(self) -> Vec<usize> {
        let names = self.op_names();
        (0..names.len())
            .filter(|&i| !self.untimed().contains(&names[i].as_str()))
            .collect()
    }

    /// The span name of the set-up, after the layer that does the work.
    fn setup_span(self) -> &'static str {
        match self {
            Workload::SynthSharedRw => "trace.synth",
            _ => "workloads.generate",
        }
    }
}

/// What a run is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Budget for the timed iterations; at least one always runs.
    pub seconds: f64,
    pub scale: Scale,
    pub trace: bool,
}

/// A workload's inputs, built by the set-up: for a paper workload a fresh
/// `SimStore` whose trace store holds the generated traces, for the
/// synthetic one the seeded streams.
pub enum Input {
    Paper(Box<SimStore>),
    Synth(SynthInput),
}

impl Input {
    pub fn setup(w: Workload, scale: Scale, seed: u64) -> Input {
        match w {
            Workload::SynthSharedRw => {
                Input::Synth(synth::generate(seed, synth::refs_per_thread(scale)))
            }
            _ => {
                let store = SimStore::new(scale);
                store.prefetch_traces(&w.kernels());
                Input::Paper(Box::new(store))
            }
        }
    }

    /// References in the traces the set-up built.
    pub fn refs(&self, w: Workload) -> u64 {
        match self {
            Input::Paper(store) => w.kernels().iter().map(|&k| store.get(k).len() as u64).sum(),
            Input::Synth(s) => s.merged.len() as u64,
        }
    }

    /// Runs operation `i` of `w.op_names()`.
    pub fn run_op(&self, w: Workload, i: usize) -> Output {
        match self {
            Input::Synth(s) => Output::Synth(synth::run_op(i, s)),
            Input::Paper(store) => {
                let text = render_experiment(store, w.experiments()[i], false, Kernel::Fft)
                    .expect("workload experiments are registered");
                Output::Digest(digests::fnv1a(text.as_bytes()))
            }
        }
    }
}

/// One operation's output, as the oracle compares it.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// FNV-1a of the rendered experiment.
    Digest(u64),
    Synth(SynthOutput),
}

/// What one iteration measured and produced.
pub struct Iteration {
    pub setup_s: f64,
    /// The operations run, as indices into [`Workload::op_names`], with
    /// each one's seconds and output.
    pub ops: Vec<usize>,
    pub op_s: Vec<f64>,
    pub outputs: Vec<Output>,
    pub input: Input,
}

impl Iteration {
    /// Seconds of the timed operations among those run.
    pub fn wall_s(&self, w: Workload) -> f64 {
        let timed = w.timed_ops();
        self.ops
            .iter()
            .zip(&self.op_s)
            .filter(|(i, _)| timed.contains(i))
            .map(|(_, s)| s)
            .sum()
    }
}

/// Sets up, then runs operations `ops` once each. Only the set-up and the
/// operations themselves are timed.
pub fn iteration(cfg: &Config, tracer: &mut Tracer, ops: &[usize]) -> Iteration {
    let w = cfg.workload;
    let names = w.op_names();
    let sw = Stopwatch::start();
    let input = tracer.span(w.setup_span(), |_| Input::setup(w, cfg.scale, cfg.seed));
    let setup_s = sw.elapsed_secs();
    let mut op_s = Vec::new();
    let mut outputs = Vec::new();
    for &i in ops {
        let sw = Stopwatch::start();
        outputs.push(tracer.span(&format!("op:{}", names[i]), |_| input.run_op(w, i)));
        op_s.push(sw.elapsed_secs());
    }
    Iteration {
        setup_s,
        ops: ops.to_vec(),
        op_s,
        outputs,
        input,
    }
}

/// The correctness oracle: frozen digests for the paper workloads, the
/// per-record reference for the synthetic one. Counts every operation it
/// checks.
pub struct Checker {
    workload: Workload,
    scale: Scale,
    synth_reference: Option<Vec<Output>>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(cfg: &Config) -> Self {
        Checker {
            workload: cfg.workload,
            scale: cfg.scale,
            synth_reference: None,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Checks `outputs` of operations `ops` (indices into
    /// [`Workload::op_names`]) on `input`. The synthetic reference is
    /// computed once per run, from the first inputs: every set-up
    /// regenerates the same inputs from the same seed.
    pub fn check(&mut self, input: &Input, ops: &[usize], outputs: &[Output]) {
        let w = self.workload;
        let names = w.op_names();
        if let (Input::Synth(s), None) = (input, &self.synth_reference) {
            let reference = synth::reference_outputs(s)
                .into_iter()
                .map(Output::Synth)
                .collect();
            self.synth_reference = Some(reference);
        }
        for (&i, got) in ops.iter().zip(outputs) {
            self.attempted += 1;
            let ok = match got {
                Output::Digest(d) => digests::expected(self.scale, &names[i]) == Some(*d),
                Output::Synth(_) => self
                    .synth_reference
                    .as_ref()
                    .is_some_and(|r| r.get(i) == Some(got)),
            };
            if !ok {
                self.failed += 1;
                self.failures.push(names[i].clone());
            }
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), where the
/// platform reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn paper_workloads_cover_every_experiment_exactly_once() {
        let mut seen = Vec::new();
        for w in Workload::ALL {
            seen.extend(w.experiments().iter().copied());
        }
        let unique: BTreeSet<&str> = seen.iter().copied().collect();
        assert_eq!(
            unique.len(),
            seen.len(),
            "an experiment is in two workloads"
        );
        let all: BTreeSet<&str> = unicache_experiments::ALL_EXPERIMENTS
            .iter()
            .copied()
            .collect();
        assert_eq!(unique, all);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("paper"), None);
    }

    #[test]
    fn checker_counts_a_wrong_digest_as_failed() {
        let cfg = Config {
            workload: Workload::PaperCoherent,
            seed: 1,
            seconds: 0.0,
            scale: Scale::Tiny,
            trace: false,
        };
        let ops = cfg.workload.all_ops();
        let mut it = iteration(&cfg, &mut Tracer::new(false), &ops);
        let mut checker = Checker::new(&cfg);
        checker.check(&it.input, &it.ops, &it.outputs);
        assert_eq!((checker.attempted, checker.failed), (1, 0));
        it.outputs[0] = Output::Digest(0);
        checker.check(&it.input, &it.ops, &it.outputs);
        assert_eq!((checker.attempted, checker.failed), (2, 1));
        assert_eq!(checker.failures, vec!["coherent".to_string()]);
    }

    #[test]
    fn only_patel_is_left_out_of_the_timed_loop() {
        for w in Workload::ALL {
            let names = w.op_names();
            let untimed: Vec<&str> = w
                .all_ops()
                .into_iter()
                .filter(|i| !w.timed_ops().contains(i))
                .map(|i| names[i].as_str())
                .collect();
            let want: &[&str] = if w == Workload::PaperBypass {
                &["patel"]
            } else {
                &[]
            };
            assert_eq!(untimed, want, "{}", w.name());
        }
    }
}
