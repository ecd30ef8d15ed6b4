//! Plain-text table rendering: the harness's replacement for the demo
//! GUI's graphs. Markdown output is what `repro` prints (see
//! `docs/EXPERIMENTS.md` for the expected tables).

use std::fmt;

/// A rectangular table with a header row.
///
/// # Example
///
/// ```
/// use arppath_metrics::Table;
///
/// let mut t = Table::new("E1: latency", &["pair", "rtt"]);
/// t.row(&["A→B".into(), "12.3us".into()]);
/// let md = t.render_markdown();
/// assert!(md.starts_with("### E1: latency"));
/// assert!(md.contains("| A→B  | 12.3us |"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table titled `title` with the given column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// If the row width differs from the header width — a harness bug
    /// worth failing loudly on.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "table '{}': row has {} cells, header has {}",
            self.title,
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Render as a GitHub-flavoured markdown table with aligned pipes.
    pub fn render_markdown(&self) -> String {
        // Widths in characters, not bytes, so cells with non-ASCII
        // (e.g. "A→B") still align.
        let char_len = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| char_len(h)).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(char_len(cell));
            }
        }
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        let fmt_row = move |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{}{}", c, " ".repeat(w.saturating_sub(char_len(c)))))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", dashes.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("E1: latency", &["pair", "arp-path", "stp"]);
        t.row(&["A→B".into(), "12.3us".into(), "18.9us".into()]);
        t.row(&["B→A".into(), "12.3us".into(), "18.9us".into()]);
        t
    }

    #[test]
    fn markdown_has_title_header_separator_rows() {
        let md = sample().render_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "### E1: latency");
        assert!(lines[2].starts_with("| pair"));
        assert!(lines[3].contains("---"));
        assert_eq!(lines.len(), 6);
    }

    #[test]
    fn markdown_columns_align() {
        let md = sample().render_markdown();
        let pipe_positions = |line: &str| -> Vec<usize> {
            // Char columns, not byte offsets: cells may hold non-ASCII.
            line.chars().enumerate().filter(|(_, c)| *c == '|').map(|(i, _)| i).collect()
        };
        let lines: Vec<&str> = md.lines().skip(2).collect();
        let first = pipe_positions(lines[0]);
        for line in &lines[1..] {
            assert_eq!(pipe_positions(line), first, "misaligned line: {line}");
        }
    }

    #[test]
    #[should_panic(expected = "row has 1 cells")]
    fn ragged_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
