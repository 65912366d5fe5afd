//! Point-in-time captures of the global sinks, with deterministic
//! renderings.
//!
//! JSON is hand-rolled (there is no JSON crate in the offline workspace)
//! and deterministic by construction: counters and histograms are emitted
//! in name order over the *closed* event registries, and the span section
//! carries only per-name counts — span tick values depend on thread
//! interleaving and are confined to the Chrome trace export, which is a
//! debugging artifact, not a comparison surface.

use crate::hist::bucket_bounds;
use crate::span::SpanEvent;
use crate::BUCKETS;

/// One non-empty histogram bucket in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistBucket {
    /// Inclusive lower bound of the bucket's value range.
    pub lo: u64,
    /// Inclusive upper bound of the bucket's value range.
    pub hi: u64,
    /// Samples recorded in the bucket.
    pub count: u64,
}

/// A capture of every counter, histogram and completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Whether the `enabled` feature compiled the sinks in. When false,
    /// everything below is empty.
    pub enabled: bool,
    /// `(name, value)` for every declared counter, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, non-empty buckets)` per histogram series, sorted by name.
    pub histograms: Vec<(&'static str, Vec<HistBucket>)>,
    /// `(name, completed-span count)`, sorted by name.
    pub spans: Vec<(String, u64)>,
    /// Raw completed spans (tick values are scheduling-dependent; used
    /// only by the Chrome trace export).
    pub span_events: Vec<SpanEvent>,
}

impl Snapshot {
    /// An empty snapshot (what the disabled build always returns).
    pub fn empty(enabled: bool) -> Self {
        Snapshot {
            enabled,
            counters: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
            span_events: Vec::new(),
        }
    }

    /// Builds the sorted histogram section from raw bucket counts.
    pub fn hist_section(
        raw: Vec<(&'static str, [u64; BUCKETS])>,
    ) -> Vec<(&'static str, Vec<HistBucket>)> {
        let mut out: Vec<(&'static str, Vec<HistBucket>)> = raw
            .into_iter()
            .map(|(name, buckets)| {
                let nonzero = buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &count)| {
                        let (lo, hi) = bucket_bounds(i);
                        HistBucket { lo, hi, count }
                    })
                    .collect();
                (name, nonzero)
            })
            .collect();
        out.sort_by_key(|(name, _)| *name);
        out
    }

    /// Deterministic metrics JSON: counters/histograms/span counts in
    /// name order. Two runs of the same deterministic workload produce
    /// byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"obs_enabled\": {},\n", self.enabled));
        out.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            out.push_str(&format!("\n    \"{name}\": {v}{comma}"));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (name, buckets)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!("\n    \"{name}\": ["));
            for (j, b) in buckets.iter().enumerate() {
                let bcomma = if j + 1 < buckets.len() { ", " } else { "" };
                out.push_str(&format!(
                    "{{\"lo\": {}, \"hi\": {}, \"count\": {}}}{bcomma}",
                    b.lo, b.hi, b.count
                ));
            }
            out.push_str(&format!("]{comma}"));
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"spans\": [");
        for (i, (name, count)) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            out.push_str(&format!(
                "\n    {{\"name\": \"{name}\", \"count\": {count}}}{comma}"
            ));
        }
        out.push_str(if self.spans.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out.push('\n');
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto). Timestamps
    /// are logical ticks, so the visual proportions reflect event *order*
    /// and phase structure, not wall time.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = self.span_events.clone();
        events
            .sort_by(|a, b| (a.begin, a.end, a.name, a.tid).cmp(&(b.begin, b.end, b.name, b.tid)));
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, ev) in events.iter().enumerate() {
            let comma = if i + 1 < events.len() { "," } else { "" };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}{comma}\n",
                ev.name,
                ev.begin,
                ev.end - ev.begin,
                ev.tid
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_renders_valid_sections() {
        let s = Snapshot::empty(false);
        let j = s.to_json();
        assert!(j.contains("\"obs_enabled\": false"));
        assert!(j.contains("\"counters\": {}"));
        assert!(j.contains("\"spans\": []"));
        let t = s.to_chrome_trace();
        assert!(t.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn json_is_sorted_and_stable() {
        let snap = Snapshot {
            enabled: true,
            counters: vec![("a.x", 1), ("b.y", 2)],
            histograms: Snapshot::hist_section(vec![("h.one", {
                let mut b = [0u64; BUCKETS];
                b[0] = 2;
                b[3] = 5;
                b
            })]),
            spans: vec![("fig4".to_string(), 1)],
            span_events: vec![SpanEvent {
                name: "fig4",
                begin: 1,
                end: 4,
                tid: 0,
            }],
        };
        let j = snap.to_json();
        assert!(j.find("a.x").unwrap() < j.find("b.y").unwrap());
        assert!(j.contains("{\"lo\": 0, \"hi\": 0, \"count\": 2}"));
        assert!(j.contains("{\"lo\": 4, \"hi\": 7, \"count\": 5}"));
        assert_eq!(snap.to_json(), j, "rendering is a pure function");
        let t = snap.to_chrome_trace();
        assert!(t.contains("\"ts\":1,\"dur\":3"));
    }
}
