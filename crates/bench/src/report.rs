//! Table/CSV rendering of reproduction results.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned table printer.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given header.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..ncols {
                let _ = write!(line, "{:>width$}  ", cells[c], width = widths[c]);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Writes a result artifact (CSV, exported trace JSON, ...) under
/// `results/`, creating the directory. Failures come back as the
/// workspace-wide [`xk_runtime::Error::Io`] carrying the path that broke.
pub fn write_result(name: &str, content: &str) -> Result<std::path::PathBuf, xk_runtime::Error> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| xk_runtime::Error::io(dir.display().to_string(), e))?;
    let path = dir.join(name);
    std::fs::write(&path, content)
        .map_err(|e| xk_runtime::Error::io(path.display().to_string(), e))?;
    Ok(path)
}

/// Formats an optional TFlop/s value ("-" when absent, e.g. OOM).
pub fn fmt_tflops(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["N", "TFlops"]);
        t.row(vec!["4096".into(), "12.5".into()]);
        t.row(vec!["49152".into(), "56.90".into()]);
        let s = t.render();
        assert!(s.contains("N"));
        assert_eq!(s.lines().count(), 4);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn fmt_tflops_handles_none() {
        assert_eq!(fmt_tflops(None), "-");
        assert_eq!(fmt_tflops(Some(1.234)), "1.23");
    }
}
