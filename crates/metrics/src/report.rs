//! Fixed-width table reporter for the bench harness.
//!
//! Each experiment bench prints its output through [`TableReport`] so every
//! figure/table reproduction has a uniform, diff-friendly shape: a header
//! block naming the paper artefact, column headers, and one row per
//! configuration (mirroring the rows/series the paper reports).

use std::fmt::Write as _;

/// A cell value in a report row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free-form text (e.g. a strategy name).
    Text(String),
    /// Integer quantity.
    Int(u64),
    /// Floating-point quantity rendered with two decimals.
    Float(f64),
    /// Missing / not-applicable.
    Na,
}

impl Cell {
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) => {
                if v.abs() >= 1000.0 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.2}")
                }
            }
            Cell::Na => "-".to_string(),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as u64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

/// A paper-style table: titled, with named columns and fixed-width rows.
#[derive(Debug, Clone)]
pub struct TableReport {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl TableReport {
    /// Creates a table titled after the paper artefact it reproduces.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the column count.
    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity mismatch in table `{}`",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// Number of rows currently recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::render).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "=== {} ===", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let rule_len = header.join("  ").len();
        let _ = writeln!(out, "{}", "-".repeat(rule_len));
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_fixed_width() {
        let mut t = TableReport::new("Table X: demo", &["name", "value"]);
        t.row(vec!["alpha".into(), 42u64.into()]);
        t.row(vec!["b".into(), 7u64.into()]);
        let out = t.render();
        assert!(out.contains("=== Table X: demo ==="));
        assert!(out.contains("name"));
        assert!(out.contains("alpha"));
        assert!(out.contains("42"));
        // Every data line has the same width as the header line.
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_bad_arity() {
        let mut t = TableReport::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn cell_rendering() {
        assert_eq!(Cell::Float(3.1359).render(), "3.14");
        assert_eq!(Cell::Float(12345.6).render(), "12346");
        assert_eq!(Cell::Int(5).render(), "5");
        assert_eq!(Cell::Na.render(), "-");
    }
}
