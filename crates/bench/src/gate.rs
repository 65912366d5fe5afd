//! The CI perf gate: compares two `xp --timing-json` artifacts.
//!
//! `xp all --scale small --timing-json BENCH_small.json` writes a flat
//! report (total seconds, simulations run, records simulated, aggregate
//! records/sec, plus the executor's `parallel` section). CI keeps a
//! committed baseline (`BENCH_baseline.json`) and this module decides,
//! machine-to-machine noise notwithstanding, whether the current run has
//! regressed:
//!
//! * **throughput** — the gate metric is `records_per_sec` (normalised
//!   per-record cost, so it survives figure additions that change the
//!   total workload). A drop of more than `max_regress` (default 25%)
//!   fails the gate.
//! * **work drift** — `sims_run` / `records_simulated` differences are
//!   *reported* but never fail the gate: adding a figure legitimately
//!   grows the workload, and wall totals are not comparable across
//!   different work amounts.
//! * **phase share** — named phases (e.g. the `coherent` hierarchy
//!   sweep, gated by CI) are compared by their *share* of total
//!   wall-clock, which is machine-independent: a phase whose share grows
//!   by more than `max_regress` relative (and more than two points of
//!   total absolute, so microscopic phases can't trip the gate on noise)
//!   fails like a throughput regression does.
//! * **phase throughput** — when both artifacts carry a per-phase
//!   `records_per_sec` (newer `xp` builds emit it alongside `seconds`),
//!   the phase is additionally gated on normalised per-record cost, the
//!   same way the aggregate is. Older artifacts without the field fall
//!   back to share-only gating, so the gate stays usable across baseline
//!   generations.
//!
//! [`speedup`] serves the parallel-determinism CI job: given a `--jobs 1`
//! and a `--jobs N` artifact it returns the wall-clock ratio, gated at
//! ≥2x for N ≥ 4 on the small scale.
//!
//! Parsing is a hand-rolled key scan ([`json_f64`]) because there is no
//! JSON crate in the offline workspace; the artifacts are machine-written
//! with known keys, so a scan is exact here.

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

/// The top level of a `--timing-json` artifact: the text after its
/// `"phases"` array, whose entries repeat aggregate keys such as
/// `records_per_sec` ahead of the top-level ones. An artifact without a
/// phase list is all top level.
fn top_level(src: &str) -> &str {
    match src.find("\"phases\"") {
        Some(at) => src[at..].find(']').map_or("", |end| &src[at + end..]),
        None => src,
    }
}

/// Integer form of [`json_f64`] (counts like `sims_run`).
pub fn json_u64(src: &str, key: &str) -> Option<u64> {
    let v = json_f64(src, key)?;
    if v < 0.0 {
        return None;
    }
    Some(v as u64)
}

/// Wall-clock seconds of one named phase in a `--timing-json` artifact.
///
/// Matches the exact machine-written form `{"name": "X", "seconds": N}`
/// the `xp` binary emits — like [`json_f64`], a scan is exact here and
/// only here.
pub fn phase_seconds(src: &str, name: &str) -> Option<f64> {
    let needle = format!("{{\"name\": \"{name}\", \"seconds\": ");
    let at = src.find(&needle)? + needle.len();
    let rest = &src[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Records/sec of one named phase in a `--timing-json` artifact, when
/// present. Newer `xp` builds append `"records"` and
/// `"records_per_sec"` after `"seconds"` in each phase entry; older
/// artifacts (and phases that simulated no records) yield `None`, which
/// callers treat as "no phase-throughput data — share gate only".
pub fn phase_records_per_sec(src: &str, name: &str) -> Option<f64> {
    let needle = format!("{{\"name\": \"{name}\", \"seconds\": ");
    let at = src.find(&needle)?;
    let entry = &src[at..];
    let entry = &entry[..entry.find('}')?];
    json_f64(entry, "records_per_sec")
}

/// Verdict for one gated phase: its share of total wall-clock (and,
/// when both artifacts report it, its records/sec), baseline vs
/// current.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseVerdict {
    /// Phase (experiment) name.
    pub name: String,
    /// Baseline `phase seconds / total seconds`.
    pub base_share: f64,
    /// Current `phase seconds / total seconds`.
    pub cur_share: f64,
    /// Fractional share growth: positive = the phase got relatively
    /// slower.
    pub regress: f64,
    /// Baseline phase records/sec (0 when the artifact predates the
    /// field or the phase simulated no records).
    pub base_rps: f64,
    /// Current phase records/sec (0 under the same conditions).
    pub cur_rps: f64,
    /// Fractional phase-throughput drop: positive = regression. Zero
    /// when either artifact lacks a positive phase records/sec.
    pub rps_regress: f64,
    /// True when the share grew by no more than the limit (or by less
    /// than two absolute points of total) *and* phase throughput —
    /// when both sides report it — dropped by no more than the limit.
    pub pass: bool,
}

/// Outcome of a baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Baseline aggregate records/sec.
    pub base_rps: f64,
    /// Current aggregate records/sec.
    pub cur_rps: f64,
    /// Fractional throughput change: positive = regression (slower).
    pub regress: f64,
    /// Threshold the gate was evaluated against.
    pub max_regress: f64,
    /// Non-fatal observations (work-counter drift etc.).
    pub warnings: Vec<String>,
    /// Per-phase share verdicts for the phases the caller gated.
    pub phases: Vec<PhaseVerdict>,
    /// True when `regress <= max_regress` and every gated phase passed.
    pub pass: bool,
}

impl Comparison {
    /// The diff artifact CI uploads (hand-rolled JSON).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"base_records_per_sec\": {:.0},\n  \"cur_records_per_sec\": {:.0},\n  \
             \"regress_fraction\": {:.6},\n  \"max_regress\": {:.6},\n  \"pass\": {},\n",
            self.base_rps, self.cur_rps, self.regress, self.max_regress, self.pass
        ));
        out.push_str("  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 < self.phases.len() { "," } else { "" };
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"base_share\": {:.6}, \"cur_share\": {:.6}, \
                 \"regress\": {:.6}, \"base_records_per_sec\": {:.0}, \
                 \"cur_records_per_sec\": {:.0}, \"rps_regress\": {:.6}, \"pass\": {}}}{comma}",
                p.name,
                p.base_share,
                p.cur_share,
                p.regress,
                p.base_rps,
                p.cur_rps,
                p.rps_regress,
                p.pass
            ));
        }
        if !self.phases.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str("  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            let comma = if i + 1 < self.warnings.len() { "," } else { "" };
            out.push_str(&format!("\n    \"{}\"{comma}", w.replace('"', "'")));
        }
        if !self.warnings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Gates `current` against `baseline` (both `--timing-json` contents).
///
/// Returns `Err` when either artifact lacks the gate metric — a malformed
/// artifact must fail CI loudly, not pass vacuously.
pub fn compare(baseline: &str, current: &str, max_regress: f64) -> Result<Comparison, String> {
    compare_with_phases(baseline, current, max_regress, &[])
}

/// Minimum absolute share growth (of total wall-clock) before a phase
/// can fail the gate — keeps sub-percent phases from tripping on timer
/// noise.
const PHASE_SHARE_SLACK: f64 = 0.02;

/// [`compare`] plus per-phase share gating: each named phase's share of
/// total wall-clock may grow by at most `max_regress` relative (with
/// `PHASE_SHARE_SLACK` absolute slack). A gated phase missing from
/// either artifact is an error — the baseline must be regenerated when a
/// gated experiment is added.
pub fn compare_with_phases(
    baseline: &str,
    current: &str,
    max_regress: f64,
    gated_phases: &[&str],
) -> Result<Comparison, String> {
    let (base_top, cur_top) = (top_level(baseline), top_level(current));
    let base_rps = json_f64(base_top, "records_per_sec")
        .ok_or_else(|| "baseline artifact lacks records_per_sec".to_string())?;
    let cur_rps = json_f64(cur_top, "records_per_sec")
        .ok_or_else(|| "current artifact lacks records_per_sec".to_string())?;
    if base_rps <= 0.0 {
        return Err(format!("baseline records_per_sec not positive: {base_rps}"));
    }
    let regress = (base_rps - cur_rps) / base_rps;

    let mut phases = Vec::new();
    if !gated_phases.is_empty() {
        let base_total = json_f64(base_top, "total_seconds")
            .filter(|&t| t > 0.0)
            .ok_or_else(|| "baseline artifact lacks a positive total_seconds".to_string())?;
        let cur_total = json_f64(cur_top, "total_seconds")
            .filter(|&t| t > 0.0)
            .ok_or_else(|| "current artifact lacks a positive total_seconds".to_string())?;
        for &name in gated_phases {
            let base_secs = phase_seconds(baseline, name)
                .ok_or_else(|| format!("baseline artifact lacks phase '{name}'"))?;
            let cur_secs = phase_seconds(current, name)
                .ok_or_else(|| format!("current artifact lacks phase '{name}'"))?;
            let base_share = base_secs / base_total;
            let cur_share = cur_secs / cur_total;
            let growth = cur_share - base_share;
            let phase_regress = if base_share > 0.0 {
                growth / base_share
            } else if cur_share > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            // Phase throughput gates only when both artifacts carry a
            // positive per-phase records/sec — older baselines predate
            // the field and must keep passing on share alone.
            let base_prps = phase_records_per_sec(baseline, name).unwrap_or(0.0);
            let cur_prps = phase_records_per_sec(current, name).unwrap_or(0.0);
            let rps_regress = if base_prps > 0.0 && cur_prps > 0.0 {
                (base_prps - cur_prps) / base_prps
            } else {
                0.0
            };
            let share_pass = phase_regress <= max_regress || growth <= PHASE_SHARE_SLACK;
            phases.push(PhaseVerdict {
                name: name.to_string(),
                base_share,
                cur_share,
                regress: phase_regress,
                base_rps: base_prps,
                cur_rps: cur_prps,
                rps_regress,
                pass: share_pass && rps_regress <= max_regress,
            });
        }
    }

    let mut warnings = Vec::new();
    for key in ["sims_run", "records_simulated"] {
        match (json_u64(base_top, key), json_u64(cur_top, key)) {
            (Some(b), Some(c)) if b != c => {
                warnings.push(format!("work drift: {key} {b} -> {c} (informational)"));
            }
            (None, _) | (_, None) => warnings.push(format!("{key} missing from an artifact")),
            _ => {}
        }
    }

    let pass = regress <= max_regress && phases.iter().all(|p| p.pass);
    Ok(Comparison {
        base_rps,
        cur_rps,
        regress,
        max_regress,
        warnings,
        phases,
        pass,
    })
}

/// Wall-clock speedup of `parallel` over `serial` (both `--timing-json`
/// contents): serial total seconds divided by parallel total seconds.
pub fn speedup(serial: &str, parallel: &str) -> Result<f64, String> {
    let s = json_f64(top_level(serial), "total_seconds")
        .ok_or_else(|| "serial artifact lacks total_seconds".to_string())?;
    let p = json_f64(top_level(parallel), "total_seconds")
        .ok_or_else(|| "parallel artifact lacks total_seconds".to_string())?;
    if p <= 0.0 {
        return Err(format!("parallel total_seconds not positive: {p}"));
    }
    Ok(s / p)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "total_seconds": 10.000000,
  "sims_run": 100,
  "cache_hits": 5,
  "records_simulated": 1000000,
  "records_per_sec": 100000,
  "jobs": 1
}"#;

    fn artifact(rps: f64, total: f64) -> String {
        format!(
            "{{\n  \"total_seconds\": {total:.6},\n  \"sims_run\": 100,\n  \
             \"records_simulated\": 1000000,\n  \"records_per_sec\": {rps:.0}\n}}"
        )
    }

    #[test]
    fn key_scan_parses_ints_and_decimals() {
        assert_eq!(json_f64(BASE, "total_seconds"), Some(10.0));
        assert_eq!(json_u64(BASE, "sims_run"), Some(100));
        assert_eq!(json_f64(BASE, "records_per_sec"), Some(100000.0));
        assert_eq!(json_f64(BASE, "absent"), None);
    }

    #[test]
    fn small_slowdown_passes_large_fails() {
        let ok = compare(BASE, &artifact(90000.0, 11.0), 0.25).unwrap();
        assert!(ok.pass, "10% slower is inside the 25% band: {ok:?}");
        let bad = compare(BASE, &artifact(50000.0, 20.0), 0.25).unwrap();
        assert!(!bad.pass, "50% slower must fail: {bad:?}");
        assert!((bad.regress - 0.5).abs() < 1e-9);
    }

    #[test]
    fn speedups_never_fail_the_gate() {
        let c = compare(BASE, &artifact(400000.0, 2.5), 0.25).unwrap();
        assert!(c.pass);
        assert!(c.regress < 0.0, "negative regress = faster");
    }

    #[test]
    fn work_drift_warns_but_does_not_fail() {
        let drifted = BASE.replace("\"sims_run\": 100", "\"sims_run\": 120");
        let c = compare(BASE, &drifted, 0.25).unwrap();
        assert!(c.pass);
        assert_eq!(c.warnings.len(), 1);
        assert!(c.warnings[0].contains("sims_run 100 -> 120"));
    }

    #[test]
    fn malformed_artifacts_error_loudly() {
        assert!(compare("{}", BASE, 0.25).is_err());
        assert!(compare(BASE, "{}", 0.25).is_err());
        assert!(speedup("{}", BASE).is_err());
    }

    #[test]
    fn speedup_is_serial_over_parallel() {
        let serial = artifact(100000.0, 8.0);
        let parallel = artifact(100000.0, 2.0);
        let s = speedup(&serial, &parallel).unwrap();
        assert!((s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn diff_json_roundtrips_the_verdict() {
        let c = compare(BASE, &artifact(50000.0, 20.0), 0.25).unwrap();
        let j = c.to_json();
        assert!(j.contains("\"pass\": false"));
        assert_eq!(json_f64(&j, "regress_fraction"), Some(0.5));
    }

    /// Artifact in the exact shape `xp --timing-json` writes, with a
    /// two-entry phase list carrying the per-phase throughput fields.
    fn phased(rps: f64, total: f64, coherent_secs: f64) -> String {
        phased_rps(rps, total, coherent_secs, 200000.0)
    }

    /// [`phased`] with an explicit coherent-phase records/sec.
    fn phased_rps(rps: f64, total: f64, coherent_secs: f64, coherent_rps: f64) -> String {
        format!(
            "{{\n  \"phases\": [\n    {{\"name\": \"fig4\", \"seconds\": 1.000000, \
             \"records\": 500000, \"records_per_sec\": 500000}},\n    \
             {{\"name\": \"coherent\", \"seconds\": {coherent_secs:.6}, \
             \"records\": 500000, \"records_per_sec\": {coherent_rps:.0}}}\n  ],\n  \
             \"total_seconds\": {total:.6},\n  \"sims_run\": 100,\n  \
             \"records_simulated\": 1000000,\n  \"records_per_sec\": {rps:.0}\n}}"
        )
    }

    /// Artifact in the *old* phase shape (no per-phase records/sec) —
    /// the backwards-compat case the rps gate must not break on.
    fn phased_legacy(rps: f64, total: f64, coherent_secs: f64) -> String {
        format!(
            "{{\n  \"phases\": [\n    {{\"name\": \"fig4\", \"seconds\": 1.000000}},\n    \
             {{\"name\": \"coherent\", \"seconds\": {coherent_secs:.6}}}\n  ],\n  \
             \"total_seconds\": {total:.6},\n  \"sims_run\": 100,\n  \
             \"records_simulated\": 1000000,\n  \"records_per_sec\": {rps:.0}\n}}"
        )
    }

    #[test]
    fn aggregate_is_read_after_the_phase_list() {
        // Both phases carry a records_per_sec that differs from the
        // aggregate; the gate must compare the top-level value.
        let a = phased_rps(100000.0, 10.0, 2.0, 300000.0);
        let b = phased_rps(80000.0, 12.5, 2.0, 300000.0);
        let c = compare(&a, &b, 0.25).unwrap();
        assert_eq!((c.base_rps, c.cur_rps), (100000.0, 80000.0));
        assert!((c.regress - 0.2).abs() < 1e-9);
        assert!(c.warnings.is_empty(), "{:?}", c.warnings);
        assert!((speedup(&b, &a).unwrap() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn phase_seconds_scans_the_named_entry() {
        let a = phased(100000.0, 10.0, 2.5);
        assert_eq!(phase_seconds(&a, "fig4"), Some(1.0));
        assert_eq!(phase_seconds(&a, "coherent"), Some(2.5));
        assert_eq!(phase_seconds(&a, "absent"), None);
    }

    #[test]
    fn phase_share_growth_fails_the_gate() {
        let base = phased(100000.0, 10.0, 2.0);
        // Same throughput, but coherent ballooned from 20% to 60% of wall.
        let bad = phased(100000.0, 10.0, 6.0);
        let c = compare_with_phases(&base, &bad, 0.25, &["coherent"]).unwrap();
        assert!(!c.pass, "{c:?}");
        assert_eq!(c.phases.len(), 1);
        assert!(!c.phases[0].pass);
        assert!((c.phases[0].regress - 2.0).abs() < 1e-9);
        // Within-band growth passes.
        let ok =
            compare_with_phases(&base, &phased(100000.0, 10.0, 2.2), 0.25, &["coherent"]).unwrap();
        assert!(ok.pass, "{ok:?}");
    }

    #[test]
    fn tiny_phase_noise_is_absorbed_by_absolute_slack() {
        // 0.1% -> 0.3% of wall is a 3x relative jump but far below the
        // two-point absolute slack.
        let base = phased(100000.0, 10.0, 0.01);
        let cur = phased(100000.0, 10.0, 0.03);
        let c = compare_with_phases(&base, &cur, 0.25, &["coherent"]).unwrap();
        assert!(c.pass, "{c:?}");
    }

    #[test]
    fn phase_records_per_sec_scans_the_named_entry() {
        let a = phased_rps(100000.0, 10.0, 2.0, 250000.0);
        assert_eq!(phase_records_per_sec(&a, "fig4"), Some(500000.0));
        assert_eq!(phase_records_per_sec(&a, "coherent"), Some(250000.0));
        assert_eq!(phase_records_per_sec(&a, "absent"), None);
        let legacy = phased_legacy(100000.0, 10.0, 2.0);
        assert_eq!(phase_records_per_sec(&legacy, "coherent"), None);
    }

    #[test]
    fn phase_throughput_drop_fails_even_at_constant_share() {
        // Coherent keeps its 20% share (total shrank with it), but its
        // records/sec halved — the share gate alone would miss this.
        let base = phased_rps(100000.0, 10.0, 2.0, 400000.0);
        let bad = phased_rps(100000.0, 5.0, 1.0, 200000.0);
        let c = compare_with_phases(&base, &bad, 0.25, &["coherent"]).unwrap();
        assert!(!c.pass, "{c:?}");
        assert!(!c.phases[0].pass);
        assert!((c.phases[0].rps_regress - 0.5).abs() < 1e-9);
        // Same shape inside the band passes.
        let ok = phased_rps(100000.0, 10.0, 2.0, 360000.0);
        let c = compare_with_phases(&base, &ok, 0.25, &["coherent"]).unwrap();
        assert!(c.pass, "{c:?}");
        assert!(c.phases[0].rps_regress > 0.0);
    }

    #[test]
    fn legacy_artifacts_without_phase_rps_gate_on_share_only() {
        let base = phased_legacy(100000.0, 10.0, 2.0);
        let cur = phased_rps(100000.0, 10.0, 2.2, 50000.0);
        // Baseline has no phase rps, so a slow-looking current phase
        // rps cannot fail the gate; share growth is inside the band.
        let c = compare_with_phases(&base, &cur, 0.25, &["coherent"]).unwrap();
        assert!(c.pass, "{c:?}");
        assert_eq!(c.phases[0].rps_regress, 0.0);
        assert_eq!(c.phases[0].base_rps, 0.0);
    }

    #[test]
    fn gated_phase_missing_from_baseline_errors() {
        let cur = phased(100000.0, 10.0, 2.0);
        assert!(compare_with_phases(BASE, &cur, 0.25, &["coherent"]).is_err());
        assert!(compare_with_phases(&cur, &cur, 0.25, &["absent"]).is_err());
    }

    #[test]
    fn phase_verdicts_round_trip_through_json() {
        let base = phased(100000.0, 10.0, 2.0);
        let c =
            compare_with_phases(&base, &phased(100000.0, 10.0, 6.0), 0.25, &["coherent"]).unwrap();
        let j = c.to_json();
        assert!(j.contains("\"name\": \"coherent\""));
        assert!(j.contains("\"cur_share\": 0.600000"));
        assert!(j.contains("\"rps_regress\": 0.000000"));
    }
}
