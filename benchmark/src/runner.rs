//! One benchmark run: warm-up, the timed closed loop, and (with tracing
//! on) one traced iteration, warm re-runs and the layer probes; then the
//! result line and the optional result document.

use crate::calibrate;
use crate::json::{number, quote};
use crate::stats::{median, quartiles};
use crate::synth;
use crate::tracer::Tracer;
use crate::workload::{iteration, peak_rss_mib, Checker, Config, Input};
use std::fmt::Write as _;
use unicache_timing::Stopwatch;
use unicache_workloads::Scale;

/// Set-up time is the median of at least this many set-ups per run: one
/// set-up takes a few milliseconds, short enough for single samples to
/// scatter.
const MIN_SETUPS: usize = 21;

/// Untimed warm-up: iterations until this long has passed (at least one,
/// and never longer than the timed budget), so that lazy initialisation,
/// heap growth and the host's caches settle before timing.
const WARM_UP_SECONDS: f64 = 1.0;

/// Executor workers, for every workload, so that time is the kernels' and
/// not the schedule's. On two workers `paper-coherent` spread by a quarter
/// between identical runs, in wall time and in peak memory (each worker's
/// allocator arena grows with the tasks it happens to take).
pub const JOBS: usize = 1;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Everything a run measured.
pub struct Report {
    pub cfg: Config,
    pub input_refs: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-iteration wall, set-up and calibration seconds of the timed
    /// loop.
    pub wall_samples: Vec<f64>,
    pub setup_samples: Vec<f64>,
    pub cal_samples: Vec<f64>,
    /// End-to-end metrics without tracing, per-layer metrics with it.
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
}

/// Runs `cfg` to completion.
///
/// # Errors
/// When the platform does not report peak memory (`/proc/self/status`).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let w = cfg.workload;
    unicache_exec::set_global_jobs(JOBS);
    let mut checker = Checker::new(cfg);
    let mut untraced = Tracer::new(false);

    // The first warm-up iteration runs every operation, the untimed ones
    // included, so that each is checked once per run.
    let warm_up = Stopwatch::start();
    let mut ops = w.all_ops();
    let input_refs = loop {
        let it = iteration(cfg, &mut untraced, &ops);
        checker.check(&it.input, &it.ops, &it.outputs);
        let refs = it.input.refs(w);
        drop(it);
        ops = w.timed_ops();
        if warm_up.elapsed_secs() >= WARM_UP_SECONDS.min(cfg.seconds) {
            break refs;
        }
    };

    let mut wall_samples = Vec::new();
    let mut setup_samples = Vec::new();
    let mut cal_samples = Vec::new();
    let budget = Stopwatch::start();
    loop {
        let it = iteration(cfg, &mut untraced, &ops);
        checker.check(&it.input, &it.ops, &it.outputs);
        wall_samples.push(it.wall_s(w));
        setup_samples.push(it.setup_s);
        drop(it);
        cal_samples.push(calibrate::seconds());
        if budget.elapsed_secs() >= cfg.seconds {
            break;
        }
    }
    while setup_samples.len() < MIN_SETUPS {
        let sw = Stopwatch::start();
        let input = Input::setup(w, cfg.scale, cfg.seed);
        setup_samples.push(sw.elapsed_secs());
        drop(input);
    }
    let wall = median(&wall_samples).expect("the loop runs at least once");
    // Each iteration against the yardstick timed right after it.
    let per_cal: Vec<f64> = wall_samples
        .iter()
        .zip(&cal_samples)
        .map(|(w, c)| w / c)
        .collect();

    let (metrics, tracer) = if cfg.trace {
        traced(cfg, &mut checker, wall)
    } else {
        let peak = peak_rss_mib().ok_or("peak_rss_mib: /proc/self/status has no VmHWM")?;
        let metrics = vec![
            Metric::new(
                "wall_cal",
                median(&per_cal).expect("the loop runs at least once"),
                "cal",
            ),
            Metric::new(
                "setup_s",
                median(&setup_samples).expect("MIN_SETUPS > 0"),
                "s",
            ),
            Metric::new("peak_rss_mib", peak, "MiB"),
        ];
        (metrics, untraced)
    };
    Ok(Report {
        cfg: cfg.clone(),
        input_refs,
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        wall_samples,
        setup_samples,
        cal_samples,
        metrics,
        tracer,
    })
}

/// The traced part of a run: one cold iteration of every operation inside
/// spans, each operation re-run on the populated state, and the layer
/// probes. `untraced_wall` is the untraced median the overhead compares
/// with.
fn traced(cfg: &Config, checker: &mut Checker, untraced_wall: f64) -> (Vec<Metric>, Tracer) {
    let w = cfg.workload;
    let all = w.all_ops();
    let mut tracer = Tracer::new(true);
    tracer.set_iteration(1);
    unicache_exec::reset_stats();
    let sw = Stopwatch::start();
    let cold = tracer.span("iteration", |t| iteration(cfg, t, &all));
    let iteration_s = sw.elapsed_secs();
    let exec = unicache_exec::stats();
    checker.check(&cold.input, &cold.ops, &cold.outputs);
    let (sims_run, cache_hits, records, decoded) = match &cold.input {
        Input::Paper(store) => (
            store.sims_run(),
            store.hits(),
            store.records_simulated(),
            store.streams_decoded(),
        ),
        // The synthetic operations have no store: every operation is one
        // simulation of the merged stream, and only the fused group
        // decodes it.
        Input::Synth(_) => {
            let sims = (synth::hier_configs().len() + synth::fused_lanes().len()) as u64;
            (sims, 0, sims * cold.input.refs(w), 1)
        }
    };

    tracer.set_iteration(2);
    let mut warm_outputs = Vec::new();
    let mut warm_s = 0.0;
    for (i, name) in w.op_names().iter().enumerate() {
        let sw = Stopwatch::start();
        warm_outputs.push(tracer.span(&format!("warm:{name}"), |_| cold.input.run_op(w, i)));
        warm_s += sw.elapsed_secs();
    }
    checker.check(&cold.input, &all, &warm_outputs);
    let cold_s: f64 = cold.op_s.iter().sum();

    tracer.set_iteration(0);
    let mut m = crate::probes::run(cfg, &cold.input, &mut tracer);
    m.extend([
        Metric::new("experiments.render_cold_s", cold_s, "s"),
        Metric::new("experiments.render_warm_s", warm_s, "s"),
        Metric::new("experiments.memo_ratio", 1.0 - warm_s / cold_s, "ratio"),
        Metric::new("experiments.sims_run", sims_run as f64, "count"),
        Metric::new("experiments.cache_hits", cache_hits as f64, "count"),
        Metric::new("experiments.records_simulated", records as f64, "count"),
        Metric::new("experiments.streams_decoded", decoded as f64, "count"),
        Metric::new("exec.tasks", exec.tasks as f64, "count"),
        Metric::new("exec.busy_s", exec.busy_seconds, "s"),
        Metric::new("exec.max_task_s", exec.max_task_seconds, "s"),
        Metric::new(
            "exec.utilization",
            exec.busy_seconds / (iteration_s * JOBS as f64),
            "ratio",
        ),
        Metric::new(
            "trace_overhead_pct",
            100.0 * (cold.wall_s(w) - untraced_wall) / untraced_wall,
            "%",
        ),
    ]);
    (m, tracer)
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result document `--out` writes: the result line plus what
    /// produced it, the raw samples and (traced) the spans.
    pub fn document_json(&self) -> String {
        let list = |xs: &[f64]| xs.iter().map(|&x| number(x)).collect::<Vec<_>>().join(", ");
        let mut out = format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"scale\": {},\n  \"trace\": {},\n  \
             \"seconds\": {},\n  \"jobs\": {},\n  \"input_refs\": {},\n  \
             \"samples\": {{\"wall_s\": [{}], \"setup_s\": [{}], \"cal_s\": [{}]}},\n  \
             \"result\": {}",
            quote(self.cfg.workload.name()),
            self.cfg.seed,
            quote(scale_name(self.cfg.scale)),
            u8::from(self.cfg.trace),
            number(self.cfg.seconds),
            JOBS,
            self.input_refs,
            list(&self.wall_samples),
            list(&self.setup_samples),
            list(&self.cal_samples),
            self.result_json()
        );
        if self.cfg.trace {
            let _ = write!(out, ",\n  \"spans\": {}", self.tracer.to_json());
        }
        out.push_str("\n}\n");
        out
    }

    /// A human-readable account for stderr.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} seed {} scale {} jobs {}: {} input refs, {} timed iterations\n",
            self.cfg.workload.name(),
            self.cfg.seed,
            scale_name(self.cfg.scale),
            JOBS,
            self.input_refs,
            self.wall_samples.len()
        );
        for (name, xs) in [
            ("wall_s", &self.wall_samples),
            ("setup_s", &self.setup_samples),
            ("cal_s", &self.cal_samples),
        ] {
            if let Some([q1, q2, q3]) = quartiles(xs) {
                let _ = writeln!(
                    s,
                    "  {name}: median {q2:.4} [q1 {q1:.4}, q3 {q3:.4}] n={}",
                    xs.len()
                );
            }
        }
        if let Some(wall) = median(&self.wall_samples) {
            let _ = writeln!(
                s,
                "  refs_per_s: {:.0} (input refs / median wall_s)",
                self.input_refs as f64 / wall
            );
        }
        let _ = writeln!(
            s,
            "  ops: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for f in &self.failures {
            let _ = writeln!(s, "  FAILED: {f}");
        }
        if self.cfg.trace {
            s.push_str("  self time by span:\n");
            for (name, secs) in self.tracer.self_seconds_by_name() {
                let _ = writeln!(s, "    {secs:9.4}s  {name}");
            }
        }
        s
    }
}

pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Large => "large",
    }
}
