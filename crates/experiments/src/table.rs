//! Result tables: the textual equivalent of the paper's bar charts.

/// A labelled 2-D result table (rows = workloads/mixes, columns = schemes).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTable {
    /// Table title (figure reference).
    pub title: String,
    /// Y-axis meaning, e.g. "% reduction in miss-rate".
    pub metric: String,
    /// Row labels (workloads, in the paper's x-axis order).
    pub rows: Vec<String>,
    /// Column labels (schemes, in the paper's legend order).
    pub cols: Vec<String>,
    /// `values[row][col]`.
    pub values: Vec<Vec<f64>>,
}

impl ExperimentTable {
    /// Creates a table; `values` must be `rows.len() × cols.len()`.
    pub fn new(
        title: impl Into<String>,
        metric: impl Into<String>,
        rows: Vec<String>,
        cols: Vec<String>,
        values: Vec<Vec<f64>>,
    ) -> Self {
        let t = ExperimentTable {
            title: title.into(),
            metric: metric.into(),
            rows,
            cols,
            values,
        };
        assert_eq!(t.values.len(), t.rows.len(), "row count mismatch");
        for r in &t.values {
            assert_eq!(r.len(), t.cols.len(), "column count mismatch");
        }
        t
    }

    /// Appends an "Average" row (arithmetic mean of finite values per
    /// column), like every multi-workload figure in the paper.
    pub fn with_average(mut self) -> Self {
        let mut avg = vec![0.0f64; self.cols.len()];
        for (c, a) in avg.iter_mut().enumerate() {
            let vals: Vec<f64> = self
                .values
                .iter()
                .map(|row| row[c])
                .filter(|v| v.is_finite())
                .collect();
            *a = if vals.is_empty() {
                f64::NAN
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            };
        }
        self.rows.push("Average".to_string());
        self.values.push(avg);
        self
    }

    /// Cell accessor by labels (tests).
    pub fn get(&self, row: &str, col: &str) -> Option<f64> {
        let r = self.rows.iter().position(|x| x == row)?;
        let c = self.cols.iter().position(|x| x == col)?;
        Some(self.values[r][c])
    }

    /// Renders a fixed-width text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n   ({})\n", self.title, self.metric));
        let rw = self.rows.iter().map(|r| r.len()).max().unwrap_or(4).max(4);
        let cw = self.cols.iter().map(|c| c.len().max(9)).collect::<Vec<_>>();
        out.push_str(&format!("{:rw$}", ""));
        for (c, w) in self.cols.iter().zip(&cw) {
            out.push_str(&format!("  {c:>w$}"));
        }
        out.push('\n');
        for (label, row) in self.rows.iter().zip(&self.values) {
            out.push_str(&format!("{label:rw$}"));
            for (v, w) in row.iter().zip(&cw) {
                if v.is_finite() {
                    out.push_str(&format!("  {v:>w$.2}"));
                } else {
                    out.push_str(&format!("  {:>w$}", "-"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (title/metric as comment lines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n# {}\n", self.title, self.metric));
        out.push_str("workload");
        for c in &self.cols {
            out.push(',');
            out.push_str(c);
        }
        out.push('\n');
        for (label, row) in self.rows.iter().zip(&self.values) {
            out.push_str(label);
            for v in row {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentTable {
        ExperimentTable::new(
            "Fig. X",
            "% something",
            vec!["a".into(), "b".into()],
            vec!["s1".into(), "s2".into()],
            vec![vec![1.0, 2.0], vec![3.0, f64::NEG_INFINITY]],
        )
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.get("a", "s2"), Some(2.0));
        assert_eq!(t.get("b", "s1"), Some(3.0));
        assert_eq!(t.get("zz", "s1"), None);
        assert_eq!(t.get("a", "zz"), None);
    }

    #[test]
    fn average_skips_non_finite() {
        let t = sample().with_average();
        assert_eq!(t.rows.last().unwrap(), "Average");
        assert_eq!(t.get("Average", "s1"), Some(2.0));
        // s2 column: only the finite 2.0 counts.
        assert_eq!(t.get("Average", "s2"), Some(2.0));
    }

    #[test]
    fn render_and_csv_contain_all_cells() {
        let t = sample();
        let txt = t.render();
        assert!(txt.contains("Fig. X"));
        assert!(txt.contains("s1"));
        assert!(txt.contains("3.00"));
        assert!(txt.contains('-'), "non-finite rendered as dash");
        let csv = t.to_csv();
        assert!(csv.contains("workload,s1,s2"));
        assert!(csv.contains("a,1,2"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn shape_validation() {
        ExperimentTable::new(
            "t",
            "m",
            vec!["a".into()],
            vec!["c1".into(), "c2".into()],
            vec![vec![1.0]],
        );
    }
}
