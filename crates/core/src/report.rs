//! Plain-text table rendering for the `repro` binary and EXPERIMENTS.md.

use crate::experiments::LeakPoint;

/// Renders a fixed-width table with a header row and separator.
///
/// # Example
///
/// ```
/// let s = lookaside::report::render_table(
///     &["N", "leaked", "%"],
///     &[vec!["100".into(), "84".into(), "84.0".into()]],
/// );
/// assert!(s.contains("leaked"));
/// assert!(s.lines().count() >= 3);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push(' ');
            line.push_str(cell);
            line.push_str(&" ".repeat(w - cell.len()));
            line.push_str(" |");
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&"-".repeat(w + 2));
        sep.push('|');
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Renders the Figs. 8–9 sweep as the canonical text table — the exact
/// bytes `repro fig9` prints. Shared by the binary and the engine
/// determinism tests, so "`--jobs 1` and `--jobs N` are byte-identical"
/// is asserted against the same rendering the user sees.
pub fn fig8_9_table(points: &[LeakPoint]) -> String {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                p.dlv_queries.to_string(),
                p.leaked_domains.to_string(),
                pct(p.proportion),
                p.suppressed.to_string(),
            ]
        })
        .collect();
    render_table(&["#domains", "DLV queries", "leaked domains", "leaked %", "suppressed"], &rows)
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a byte count as megabytes (10⁶) with two decimals, the paper's
/// unit.
pub fn megabytes(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / 1e6)
}

/// Formats nanoseconds as seconds with two decimals.
pub fn seconds(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let s = render_table(
            &["a", "bbbb"],
            &[vec!["xxxxx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(megabytes(36_310_000), "36.31");
        assert_eq!(seconds(2_324_450_000_000), "2324.45");
    }
}
