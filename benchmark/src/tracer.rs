//! Spans recorded by the benchmark around its own calls into each layer
//! (the simulator itself carries no timers). Spans are kept in memory and
//! written out when the run ends; a span's self time is its duration
//! minus the time its child spans cover.

use crate::json::quote;
use std::fmt::Write as _;
use unicache_timing::Stopwatch;

/// One closed span. `parent` indexes the enclosing span; `iteration`
/// names the benchmark iteration it belongs to (0 outside iterations).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub iteration: u32,
}

/// Records nested spans against one process-wide clock. A disabled
/// tracer runs the closures and records nothing.
pub struct Tracer {
    enabled: bool,
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Spans opened from now on belong to iteration `k`.
    pub fn set_iteration(&mut self, k: u32) {
        self.iteration = k;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: self.clock.elapsed_nanos(),
            end_ns: 0,
            iteration: self.iteration,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.clock.elapsed_nanos();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, parallel to [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n    {{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"iteration\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                quote(&s.name),
                s.iteration,
                s.start_ns,
                s.end_ns,
                own[i]
            );
        }
        out.push_str("\n  ]");
        out
    }

    /// Self seconds summed per span name, largest first — the stderr
    /// summary of a traced run.
    pub fn self_seconds_by_name(&self) -> Vec<(String, f64)> {
        let own = self.self_ns();
        let mut totals: Vec<(String, f64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(own) {
            let secs = ns as f64 / 1e9;
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += secs,
                None => totals.push((s.name.clone(), secs)),
            }
        }
        totals.sort_by(|a, b| b.1.total_cmp(&a.1));
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.set_iteration(3);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].iteration, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = t.self_ns();
        assert_eq!(own[0] + own[1], spans[0].end_ns - spans[0].start_ns);
        assert!(crate::json::parse(&t.to_json()).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
