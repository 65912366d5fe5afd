//! The machine-readable verdict format shared by `uca check` and `uca
//! lint`.
//!
//! There is no JSON crate in the offline workspace, so the JSON here is
//! emitted by hand: a small, fully deterministic subset — object keys in
//! fixed order, entries in check order, strings escaped per RFC 8259.

use std::fmt::Write as _;

/// One verified invariant: a `(scheme, geometry)` pair, what was checked,
/// and whether it held.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckEntry {
    /// Scheme label (e.g. `XOR`, `column_associative`).
    pub scheme: String,
    /// Geometry label (e.g. `1024 sets x 1 way x 32 B`).
    pub geometry: String,
    /// Invariant name (e.g. `gf2-full-rank`).
    pub invariant: String,
    /// Did the invariant hold?
    pub passed: bool,
    /// Human-readable evidence: the computed quantity and its expectation.
    pub details: String,
}

/// The full `uca check` report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Entries in the order they were checked.
    pub entries: Vec<CheckEntry>,
}

impl Report {
    /// Appends one verdict.
    pub fn push(
        &mut self,
        scheme: impl Into<String>,
        geometry: impl Into<String>,
        invariant: impl Into<String>,
        passed: bool,
        details: impl Into<String>,
    ) {
        self.entries.push(CheckEntry {
            scheme: scheme.into(),
            geometry: geometry.into(),
            invariant: invariant.into(),
            passed,
            details: details.into(),
        });
    }

    /// True when every entry passed.
    pub fn all_passed(&self) -> bool {
        self.entries.iter().all(|e| e.passed)
    }

    /// Number of failed entries.
    pub fn failures(&self) -> usize {
        self.entries.iter().filter(|e| !e.passed).count()
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"checks\": {},", self.entries.len());
        let _ = writeln!(out, "  \"failures\": {},", self.failures());
        let _ = writeln!(
            out,
            "  \"passed\": {},",
            if self.all_passed() { "true" } else { "false" }
        );
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"scheme\": {}, \"geometry\": {}, \"invariant\": {}, \
                 \"passed\": {}, \"details\": {}}}",
                json_string(&e.scheme),
                json_string(&e.geometry),
                json_string(&e.invariant),
                if e.passed { "true" } else { "false" },
                json_string(&e.details),
            );
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\n\t"), "\"x\\n\\t\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn report_counts_and_serializes() {
        let mut r = Report::default();
        r.push("XOR", "g", "rank", true, "rank 10 == 10");
        r.push("Prime", "g", "coverage", false, "covers 1020, want 1021");
        assert!(!r.all_passed());
        assert_eq!(r.failures(), 1);
        let j = r.to_json();
        assert!(j.contains("\"checks\": 2"));
        assert!(j.contains("\"failures\": 1"));
        assert!(j.contains("\"passed\": false"));
        assert!(j.contains("\"invariant\": \"coverage\""));
    }

    #[test]
    fn empty_report_passes() {
        let r = Report::default();
        assert!(r.all_passed());
        assert!(r.to_json().contains("\"checks\": 0"));
    }
}
