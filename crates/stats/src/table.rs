//! Fixed-width text tables in the paper's reporting style.

use std::fmt::Write as _;

/// A simple left-aligned text table builder.
///
/// ```
/// use uvm_stats::Table;
///
/// let mut t = Table::new(vec!["Benchmark", "Avg", "Max"]);
/// t.row(vec!["sgemm".into(), "0.85".into(), "3.20".into()]);
/// let s = t.render();
/// assert!(s.contains("Benchmark"));
/// assert!(s.contains("sgemm"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Render the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let sep = if i + 1 == cols { "\n" } else { "  " };
            let _ = write!(out, "{:<w$}{}", h, sep, w = widths[i]);
        }
        for (i, &w) in widths.iter().enumerate() {
            let sep = if i + 1 == cols { "\n" } else { "  " };
            let _ = write!(out, "{}{}", "-".repeat(w), sep);
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                let sep = if i + 1 == cols { "\n" } else { "  " };
                let _ = write!(out, "{:<w$}{}", cell, sep, w = widths[i]);
            }
        }
        out
    }
}

/// Format a float with 2 decimal places (the paper's table precision).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["xxxx".into(), "y".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     bb"));
        assert!(lines[1].starts_with("----  --"));
        assert!(lines[2].starts_with("xxxx  y"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn f2_formats() {
        assert_eq!(f2(12.3456), "12.35");
        assert_eq!(f2(0.0), "0.00");
    }
}
