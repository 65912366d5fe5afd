//! The CI perf gate: compares two `xp --timing-json` artifacts.
//!
//! `xp all --scale small --timing-json BENCH_small.json` writes each
//! phase's (experiment's) wall-clock seconds and `yardstick_seconds`:
//! what one call of a fixed, memory-bound piece of work took in the same
//! process, timed between phases. A phase's seconds over the yardstick
//! is its *calibrated time*. It follows the phase's own code: a host
//! that runs slower slows the yardstick with it, and a speedup in
//! another phase leaves it alone. CI keeps a committed baseline
//! (`BENCH_baseline.json`) and [`compare`] gates the current run on it:
//!
//! * **phases** — every phase that took at least [`GATED_MIN_SECONDS`]
//!   in the baseline is gated, so the baseline decides the set. One
//!   whose calibrated time rose by more than `max_regress` fails the
//!   gate; one missing from the current artifact is an error.
//! * **total** — the run's total calibrated time is gated the same way,
//!   but only when both runs simulated the same number of records. When
//!   `records_simulated` differs, the work differs and the totals are
//!   not comparable: they are reported, not gated.
//!
//! An artifact without a positive `yardstick_seconds` is an error, never
//! a pass.
//!
//! [`speedup`] serves the parallel-determinism CI job: given a `--jobs 1`
//! and a `--jobs N` artifact it returns the wall-clock ratio, gated at
//! ≥2x for N ≥ 4 on the small scale.
//!
//! Parsing is a hand-rolled key scan ([`json_f64`]) because there is no
//! JSON crate in the offline workspace; the artifacts are machine-written
//! with known keys, so a scan is exact here.

/// Baseline seconds from which a phase is gated. Shorter phases are
/// left to the total: a few timer ticks of jitter are a large fraction
/// of them.
pub const GATED_MIN_SECONDS: f64 = 0.3;

/// The numeric value of `"key": <number>` in `src`, if present.
///
/// Scans for the quoted key and parses the number after the colon;
/// handles integer and decimal forms. Only suitable for flat,
/// machine-written JSON whose keys appear once (the timing artifacts) —
/// a nested duplicate key would match whichever comes first.
pub fn json_f64(src: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = src.find(&needle)? + needle.len();
    let rest = src[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Integer form of [`json_f64`] (counts like `records_simulated`).
pub fn json_u64(src: &str, key: &str) -> Option<u64> {
    let v = json_f64(src, key)?;
    if v < 0.0 {
        return None;
    }
    Some(v as u64)
}

/// `(name, seconds)` of every entry of a `--timing-json` artifact's
/// `"phases"` list, in order. Matches the exact machine-written entry
/// form `{"name": "X", "seconds": N, …}` the `xp` binary emits; like
/// [`json_f64`], a scan is exact here and only here.
pub fn phases(src: &str) -> Vec<(&str, f64)> {
    let Some(at) = src.find("\"phases\": [") else {
        return Vec::new();
    };
    let list = &src[at..];
    let list = &list[..list.find(']').unwrap_or(list.len())];
    list.split("{\"name\": \"")
        .skip(1)
        .filter_map(|entry| {
            let (name, rest) = entry.split_once('"')?;
            let fields = &rest[..rest.find('}').unwrap_or(rest.len())];
            Some((name, json_f64(fields, "seconds")?))
        })
        .collect()
}

/// A positive, finite `key` of the `which` artifact, or the error that
/// fails the gate.
fn positive(src: &str, key: &str, which: &str) -> Result<f64, String> {
    json_f64(src, key)
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("{which} artifact lacks a positive {key}"))
}

/// Calibrated time (seconds over the run's yardstick) of one gated
/// phase or of the total, baseline vs current.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseVerdict {
    /// Phase (experiment) name, or `total`.
    pub name: String,
    /// Baseline calibrated time.
    pub base: f64,
    /// Current calibrated time.
    pub cur: f64,
    /// True when the calibrated time rose by no more than the limit.
    pub pass: bool,
}

impl PhaseVerdict {
    fn new(name: &str, base: f64, cur: f64, max_regress: f64) -> Self {
        let pass = cur / base - 1.0 <= max_regress;
        let name = name.to_string();
        PhaseVerdict {
            name,
            base,
            cur,
            pass,
        }
    }

    /// Fractional rise of the calibrated time: positive = slower.
    pub fn regress(&self) -> f64 {
        self.cur / self.base - 1.0
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"base_calibrated\": {:.4}, \"cur_calibrated\": {:.4}, \
             \"regress\": {:.6}, \"pass\": {}}}",
            self.name,
            self.base,
            self.cur,
            self.regress(),
            self.pass
        )
    }
}

/// Outcome of a baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One verdict per gated phase, in the baseline's order.
    pub phases: Vec<PhaseVerdict>,
    /// The total calibrated time; gated only when [`Self::comparable`].
    pub total: PhaseVerdict,
    /// `yardstick_seconds`, baseline and current.
    pub yardstick: (f64, f64),
    /// `records_simulated`, baseline and current.
    pub records: (u64, u64),
    /// Threshold the gate was evaluated against.
    pub max_regress: f64,
}

impl Comparison {
    /// True when both runs simulated the same records, so their totals
    /// measure the same work.
    pub fn comparable(&self) -> bool {
        self.records.0 == self.records.1
    }

    /// True when every gated phase passed, and the total did too if it
    /// is comparable.
    pub fn pass(&self) -> bool {
        self.phases.iter().all(|p| p.pass) && (self.total.pass || !self.comparable())
    }

    /// The diff artifact CI uploads (hand-rolled JSON).
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| format!("\n    {}", p.to_json()))
            .collect();
        format!(
            "{{\n  \"max_regress\": {:.6},\n  \"pass\": {},\n  \
             \"base_yardstick_seconds\": {:.9},\n  \"cur_yardstick_seconds\": {:.9},\n  \
             \"base_records_simulated\": {},\n  \"cur_records_simulated\": {},\n  \
             \"comparable\": {},\n  \"total\": {},\n  \"phases\": [{}\n  ]\n}}\n",
            self.max_regress,
            self.pass(),
            self.yardstick.0,
            self.yardstick.1,
            self.records.0,
            self.records.1,
            self.comparable(),
            self.total.to_json(),
            phases.join(","),
        )
    }
}

/// Gates `current` against `baseline` (both `--timing-json` contents) on
/// calibrated time: every phase of at least [`GATED_MIN_SECONDS`] in the
/// baseline, and the total when the work matches.
///
/// Returns `Err` when an artifact lacks a field the gate reads, or the
/// baseline has no phase to gate — a malformed artifact must fail CI
/// loudly, not pass vacuously.
pub fn compare(baseline: &str, current: &str, max_regress: f64) -> Result<Comparison, String> {
    let yardstick = (
        positive(baseline, "yardstick_seconds", "baseline")?,
        positive(current, "yardstick_seconds", "current")?,
    );
    let records = (
        json_u64(baseline, "records_simulated")
            .ok_or_else(|| "baseline artifact lacks records_simulated".to_string())?,
        json_u64(current, "records_simulated")
            .ok_or_else(|| "current artifact lacks records_simulated".to_string())?,
    );
    let current_phases = phases(current);
    let mut gated = Vec::new();
    for (name, secs) in phases(baseline) {
        if secs < GATED_MIN_SECONDS {
            continue;
        }
        let &(_, cur_secs) = current_phases
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("current artifact lacks phase '{name}'"))?;
        gated.push(PhaseVerdict::new(
            name,
            secs / yardstick.0,
            cur_secs / yardstick.1,
            max_regress,
        ));
    }
    if gated.is_empty() {
        return Err(format!(
            "baseline artifact has no phase of at least {GATED_MIN_SECONDS} s"
        ));
    }
    let total = PhaseVerdict::new(
        "total",
        positive(baseline, "total_seconds", "baseline")? / yardstick.0,
        positive(current, "total_seconds", "current")? / yardstick.1,
        max_regress,
    );
    Ok(Comparison {
        phases: gated,
        total,
        yardstick,
        records,
        max_regress,
    })
}

/// Wall-clock speedup of `parallel` over `serial` (both `--timing-json`
/// contents): serial total seconds divided by parallel total seconds.
pub fn speedup(serial: &str, parallel: &str) -> Result<f64, String> {
    let s = positive(serial, "total_seconds", "serial")?;
    Ok(s / positive(parallel, "total_seconds", "parallel")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An artifact in the shape `xp --timing-json` writes, cut to the
    /// fields the gate reads: fig4, coherent and icache taking the given
    /// seconds, the total their sum plus 0.5 s, yardstick `y`.
    fn run_of(fig4: f64, coherent: f64, icache: f64, y: f64, records: u64) -> String {
        let entries: Vec<String> = [("fig4", fig4), ("icache", icache), ("coherent", coherent)]
            .iter()
            .map(|(n, s)| format!("    {{\"name\": \"{n}\", \"seconds\": {s:.6}, \"records\": 1}}"))
            .collect();
        format!(
            "{{\n  \"phases\": [\n{}\n  ],\n  \"total_seconds\": {:.6},\n  \
             \"yardstick_seconds\": {y:.9},\n  \"sims_run\": 100,\n  \
             \"records_simulated\": {records}\n}}\n",
            entries.join(",\n"),
            0.5 + fig4 + coherent + icache
        )
    }

    /// [`run_of`] at 1M records.
    fn run(fig4: f64, coherent: f64, icache: f64, y: f64) -> String {
        run_of(fig4, coherent, icache, y, 1_000_000)
    }

    /// The baseline: two gated phases and one below the floor.
    fn base() -> String {
        run(8.0, 2.0, 0.1, 0.003)
    }

    fn verdict<'a>(c: &'a Comparison, name: &str) -> &'a PhaseVerdict {
        c.phases.iter().find(|p| p.name == name).expect("gated")
    }

    #[test]
    fn key_scan_parses_ints_and_decimals() {
        let b = base();
        assert_eq!(json_f64(&b, "total_seconds"), Some(10.6));
        assert_eq!(json_u64(&b, "sims_run"), Some(100));
        assert_eq!(json_f64(&b, "yardstick_seconds"), Some(0.003));
        assert_eq!(json_f64(&b, "absent"), None);
    }

    #[test]
    fn phases_scan_the_phase_list() {
        let b = base();
        assert_eq!(
            phases(&b),
            vec![("fig4", 8.0), ("icache", 0.1), ("coherent", 2.0)]
        );
        assert!(phases("{\"total_seconds\": 1.0}").is_empty());
    }

    #[test]
    fn a_speedup_elsewhere_leaves_an_unchanged_phase_passing() {
        // The red-CI case of the share gate: fig4 gets 30% faster, so
        // coherent's share of wall-clock grows from 18.9% to 24.4%
        // (+29% relative), but coherent itself is unchanged.
        let c = compare(&base(), &run(5.6, 2.0, 0.1, 0.003), 0.25).unwrap();
        assert!(c.pass(), "{c:?}");
        assert!(verdict(&c, "coherent").regress().abs() < 1e-9);
        assert!((verdict(&c, "fig4").regress() + 0.3).abs() < 1e-9);
        assert!(c.total.regress() < 0.0);
    }

    #[test]
    fn small_slowdown_passes_large_fails() {
        let ok = compare(&base(), &run(8.8, 2.0, 0.1, 0.003), 0.25).unwrap();
        assert!(ok.pass(), "10% slower is inside the 25% band: {ok:?}");
        let bad = compare(&base(), &run(8.0, 2.6, 0.1, 0.003), 0.25).unwrap();
        assert!(!bad.pass(), "30% slower must fail: {bad:?}");
        assert!(!verdict(&bad, "coherent").pass);
        assert!(verdict(&bad, "fig4").pass);
        assert!((verdict(&bad, "coherent").regress() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn a_slower_host_is_calibrated_away() {
        // Every phase and the yardstick take 60% longer: no code changed.
        let c = compare(&base(), &run(12.8, 3.2, 0.16, 0.0048), 0.25).unwrap();
        assert!(c.pass(), "{c:?}");
        assert!(c.phases.iter().all(|p| p.regress().abs() < 1e-6));
        // The same seconds under an unchanged yardstick are a slowdown.
        let c = compare(&base(), &run(12.8, 3.2, 0.16, 0.003), 0.25).unwrap();
        assert!(!c.pass(), "{c:?}");
    }

    #[test]
    fn speedups_never_fail_the_gate() {
        let c = compare(&base(), &run(2.0, 1.0, 0.1, 0.003), 0.25).unwrap();
        assert!(c.pass());
        assert!(c.phases.iter().all(|p| p.regress() < 0.0));
    }

    #[test]
    fn phases_below_the_floor_are_not_gated() {
        // icache triples, but 0.1 s is under GATED_MIN_SECONDS.
        let c = compare(&base(), &run(8.0, 2.0, 0.3, 0.003), 0.25).unwrap();
        assert!(c.pass(), "{c:?}");
        let names: Vec<&str> = c.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["fig4", "coherent"]);
    }

    #[test]
    fn the_total_is_gated_when_the_work_matches() {
        // Every gated phase inside the band, the ungated rest 10x slower.
        let c = compare(&base(), &run(8.0, 2.0, 4.0, 0.003), 0.25).unwrap();
        assert!(c.comparable());
        assert!(c.phases.iter().all(|p| p.pass));
        assert!(!c.total.pass);
        assert!(!c.pass(), "{c:?}");
    }

    #[test]
    fn record_drift_makes_the_total_not_comparable() {
        let cur = run_of(8.0, 2.0, 4.0, 0.003, 1_200_000);
        let c = compare(&base(), &cur, 0.25).unwrap();
        assert!(!c.comparable());
        assert_eq!(c.records, (1_000_000, 1_200_000));
        assert!(!c.total.pass);
        assert!(
            c.pass(),
            "an incomparable total is reported, not gated: {c:?}"
        );
    }

    #[test]
    fn malformed_artifacts_error_loudly() {
        let b = base();
        assert!(compare("{}", &b, 0.25).is_err());
        assert!(compare(&b, "{}", 0.25).is_err());
        assert!(speedup("{}", &b).is_err());
        let no_yardstick = b.replace("\"yardstick_seconds\"", "\"other\"");
        let err = compare(&b, &no_yardstick, 0.25).unwrap_err();
        assert!(err.contains("yardstick_seconds"), "{err}");
        assert!(compare(&no_yardstick, &b, 0.25).is_err());
        let zero = b.replace("\"yardstick_seconds\": 0.003", "\"yardstick_seconds\": 0.0");
        assert!(compare(&b, &zero, 0.25).is_err());
    }

    #[test]
    fn gated_phase_missing_from_current_errors() {
        let cur = base().replace("coherent", "renamed");
        let err = compare(&base(), &cur, 0.25).unwrap_err();
        assert!(err.contains("'coherent'"), "{err}");
        // A baseline with nothing to gate gates nothing: an error too.
        let short = run(0.1, 0.1, 0.1, 0.003);
        assert!(compare(&short, &short, 0.25).is_err());
    }

    #[test]
    fn speedup_is_serial_over_parallel() {
        let serial = run(4.0, 3.5, 0.0, 0.003);
        let parallel = run(1.0, 0.5, 0.0, 0.003);
        let s = speedup(&serial, &parallel).unwrap();
        assert!((s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn diff_json_roundtrips_the_verdict() {
        let c = compare(&base(), &run(8.0, 2.6, 0.1, 0.003), 0.25).unwrap();
        let j = c.to_json();
        assert!(j.contains("\"pass\": false"), "{j}");
        assert!(j.contains("\"comparable\": true"), "{j}");
        assert!(
            j.contains("{\"name\": \"coherent\", \"base_calibrated\": 666.6667"),
            "{j}"
        );
        assert_eq!(json_f64(&j, "max_regress"), Some(0.25));
        assert_eq!(json_f64(&j, "cur_yardstick_seconds"), Some(0.003));
    }
}
