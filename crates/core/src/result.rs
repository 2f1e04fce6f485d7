//! Comparison tables shared by the experiment harness, benches and examples.

use std::fmt;

/// One row of a policy-comparison table.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Policy (or bound) name.
    pub name: String,
    /// Point estimate (or exact value).
    pub value: f64,
    /// Optional 95% confidence half-width (None for exact values/bounds).
    pub ci95: Option<f64>,
    /// Optional free-form note (e.g. "exact DP", "LP lower bound").
    pub note: String,
}

/// A table comparing several policies (and bounds) on one experiment
/// configuration, with the markdown rendering the experiment harness uses
/// to regenerate the tables recorded in EXPERIMENTS.md.
#[derive(Debug, Clone)]
pub struct ComparisonTable {
    /// Table title (e.g. "E1: single machine, n = 8, exponential").
    pub title: String,
    /// Column label for the value column (e.g. "E[sum w C]").
    pub value_label: String,
    /// Rows in display order.
    pub rows: Vec<ComparisonRow>,
}

impl ComparisonTable {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, value_label: impl Into<String>) -> Self {
        Self {
            title: title.into(),
            value_label: value_label.into(),
            rows: Vec::new(),
        }
    }

    /// Append a row with a confidence interval.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        ci95: Option<f64>,
        note: impl Into<String>,
    ) {
        self.rows.push(ComparisonRow {
            name: name.into(),
            value,
            ci95,
            note: note.into(),
        });
    }

    /// The row with the smallest value (for minimisation comparisons).
    pub fn best_row(&self) -> Option<&ComparisonRow> {
        self.rows
            .iter()
            .min_by(|a, b| a.value.partial_cmp(&b.value).unwrap())
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!(
            "| policy | {} | 95% CI | note |\n",
            self.value_label
        ));
        out.push_str("|---|---|---|---|\n");
        for r in &self.rows {
            let ci = match r.ci95 {
                Some(c) => format!("±{:.4}", c),
                None => "—".to_string(),
            };
            out.push_str(&format!(
                "| {} | {:.4} | {} | {} |\n",
                r.name, r.value, ci, r.note
            ));
        }
        out
    }
}

impl fmt::Display for ComparisonTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> ComparisonTable {
        let mut t = ComparisonTable::new("E1: demo", "E[sum w C]");
        t.add("WSEPT", 10.0, Some(0.1), "optimal (Rothkopf)");
        t.add("LEPT", 13.0, Some(0.2), "");
        t.add("exhaustive optimum", 10.0, None, "exact");
        t
    }

    #[test]
    fn best_row_is_the_smallest_value() {
        let t = sample_table();
        assert_eq!(t.best_row().unwrap().value, 10.0);
    }

    #[test]
    fn markdown_contains_all_rows() {
        let md = sample_table().to_markdown();
        assert!(md.contains("WSEPT"));
        assert!(md.contains("LEPT"));
        assert!(md.contains("±0.1000"));
        assert!(md.contains("| exhaustive optimum | 10.0000 | — | exact |"));
    }
}
