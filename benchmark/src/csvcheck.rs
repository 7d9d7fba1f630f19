//! Cell-wise comparison of computed result tables with the committed
//! `results/*.csv`.
//!
//! The harness writes unquoted CSV whose *row labels* may contain commas
//! (`XKBlas, no heuristic, no topo`), so a row is split from the right: the
//! header fixes how many value columns there are, everything before them is
//! the label.

use crate::harness::Checks;

/// A table keyed by row label and column name (the N-keyed figure tables).
#[derive(Clone, Debug, PartialEq)]
pub struct KeyedTable {
    /// Column names after the label column (matrix dimensions).
    pub columns: Vec<String>,
    /// `(label, cells)` per row; `cells` parallels `columns`.
    pub rows: Vec<(String, Vec<String>)>,
}

impl KeyedTable {
    /// Parses harness CSV. Errors on a row with fewer fields than the header.
    pub fn parse(csv: &str) -> Result<Self, String> {
        let mut lines = csv.lines().filter(|l| !l.is_empty());
        let header = lines.next().ok_or("empty table")?;
        let columns: Vec<String> = header.split(',').skip(1).map(str::to_string).collect();
        let mut rows = Vec::new();
        for line in lines {
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() <= columns.len() {
                return Err(format!("row {line:?} has fewer fields than the header"));
            }
            let split = fields.len() - columns.len();
            let label = fields[..split].join(",");
            let cells = fields[split..].iter().map(|c| c.to_string()).collect();
            rows.push((label, cells));
        }
        Ok(KeyedTable { columns, rows })
    }

    /// The cell at (`label`, `column`).
    pub fn cell(&self, label: &str, column: &str) -> Option<&str> {
        let col = self.columns.iter().position(|c| c == column)?;
        let (_, cells) = self.rows.iter().find(|(l, _)| l == label)?;
        Some(&cells[col])
    }
}

/// Checks every cell of `computed` against the cell of `committed` with the
/// same row label and column name; `committed` may hold more columns (the
/// full paper grid) than a reduced run computes.
pub fn compare_keyed(
    workload: &str,
    file: &str,
    computed: &str,
    committed: &str,
    checks: &mut Checks,
) {
    let tables = KeyedTable::parse(computed).and_then(|c| Ok((c, KeyedTable::parse(committed)?)));
    let (computed, committed) = match tables {
        Ok(t) => t,
        Err(e) => {
            checks.check(false, || {
                format!("{workload}: {file}: unreadable table: {e}")
            });
            return;
        }
    };
    for (label, cells) in &computed.rows {
        for (column, actual) in computed.columns.iter().zip(cells) {
            let expected = committed.cell(label, column);
            checks.check(expected == Some(actual.as_str()), || {
                format!(
                    "{workload}: {file} row {label:?} column {column}: expected {}, got {actual}",
                    expected.unwrap_or("<no such cell in the committed file>")
                )
            });
        }
    }
}

/// Checks that `computed` equals `committed` byte for byte, reporting the
/// first line that differs.
pub fn compare_whole(
    workload: &str,
    file: &str,
    computed: &str,
    committed: &str,
    checks: &mut Checks,
) {
    checks.check(computed == committed, || {
        let line = computed
            .lines()
            .zip(committed.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| computed.lines().count().min(committed.lines().count()));
        format!(
            "{workload}: {file} differs from the committed file at line {}: expected {:?}, got {:?}",
            line + 1,
            committed.lines().nth(line).unwrap_or("<end of file>"),
            computed.lines().nth(line).unwrap_or("<end of file>")
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = "library,4096,8192,16384\n\
        cuBLAS-XT,3.79,6.88,11.31\n\
        XKBlas,6.69,15.15,33.25\n\
        XKBlas, no heuristic, no topo,5.56,11.23,22.51\n";

    #[test]
    fn labels_with_commas_parse_from_the_right() {
        let t = KeyedTable::parse(COMMITTED).unwrap();
        assert_eq!(t.columns, ["4096", "8192", "16384"]);
        assert_eq!(t.rows[2].0, "XKBlas, no heuristic, no topo");
        assert_eq!(
            t.cell("XKBlas, no heuristic, no topo", "8192"),
            Some("11.23")
        );
        assert_eq!(t.cell("XKBlas", "32768"), None);
        assert!(KeyedTable::parse("a,1,2\nshort,1\n").is_err());
    }

    #[test]
    fn a_reduced_grid_matches_the_committed_columns() {
        let computed = "library,4096,16384\ncuBLAS-XT,3.79,11.31\nXKBlas,6.69,33.25\n";
        let mut checks = Checks::default();
        compare_keyed("w", "fig3_gemm.csv", computed, COMMITTED, &mut checks);
        assert_eq!(checks.attempted, 4);
        assert!(checks.failures.is_empty(), "{:?}", checks.failures);
    }

    #[test]
    fn one_perturbed_cell_is_caught_and_named() {
        let computed = COMMITTED.replace("15.15", "15.16");
        let mut checks = Checks::default();
        compare_keyed(
            "paper_small",
            "fig3_gemm.csv",
            &computed,
            COMMITTED,
            &mut checks,
        );
        assert_eq!(checks.attempted, 9);
        assert_eq!(checks.failures.len(), 1);
        let f = &checks.failures[0];
        assert!(
            f.contains("paper_small") && f.contains("fig3_gemm.csv"),
            "{f}"
        );
        assert!(f.contains("\"XKBlas\"") && f.contains("column 8192"), "{f}");
        assert!(f.contains("expected 15.15, got 15.16"), "{f}");
    }

    #[test]
    fn a_row_or_column_the_committed_file_lacks_fails() {
        let computed = "library,4096,99\nXKBlas,6.69,1.00\nNewLib,1.00,1.00\n";
        let mut checks = Checks::default();
        compare_keyed("w", "f.csv", computed, COMMITTED, &mut checks);
        assert_eq!(checks.attempted, 4);
        assert_eq!(checks.failures.len(), 3);
    }

    #[test]
    fn whole_file_comparison_reports_the_first_differing_line() {
        let mut checks = Checks::default();
        compare_whole("w", "t.csv", "a\nb\nc\n", "a\nb\nc\n", &mut checks);
        assert!(checks.failures.is_empty());
        compare_whole("w", "t.csv", "a\nX\nc\n", "a\nb\nc\n", &mut checks);
        assert!(
            checks.failures[0].contains("line 2"),
            "{:?}",
            checks.failures
        );
        assert!(checks.failures[0].contains("expected \"b\", got \"X\""));
    }
}
