//! Plain-text and Markdown table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// # Example
///
/// ```
/// use radio_throughput::Table;
///
/// let mut t = Table::new(&["n", "rounds"]);
/// t.row(&["64", "321"]);
/// t.row(&["128", "642"]);
/// let text = t.render();
/// assert!(text.contains("rounds"));
/// assert!(text.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of already-owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }

    /// Renders as an aligned fixed-width text table.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<w$}");
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ");
        out.push_str(&rule);
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Renders as a GitHub-flavored Markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_render() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["xxxx", "1"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "), "{:?}", lines[0]);
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
    }

    #[test]
    fn markdown_render() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1", "2"]);
        let md = t.render_markdown();
        assert_eq!(md, "| x | y |\n|---|---|\n| 1 | 2 |\n");
    }

    #[test]
    fn row_owned_and_count() {
        let mut t = Table::new(&["x"]);
        t.row_owned(vec!["7".into()]);
        assert_eq!(t.render_markdown(), "| x |\n|---|\n| 7 |\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["only-one"]);
    }
}
