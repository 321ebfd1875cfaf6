//! Result-table emission shared by the `repro` binary and EXPERIMENTS.md:
//! fixed-width text for the terminal, CSV for `results/*.csv`.

use std::fmt;
use std::io::Write;
use std::path::Path;

/// A simple rectangular results table.
///
/// ```
/// use rsk_metrics::Table;
///
/// let mut t = Table::new("Figure X", &["algorithm", "outliers"]);
/// t.row(vec!["Ours".into(), "0".into()]);
/// t.row(vec!["CM_fast".into(), "5113".into()]);
/// assert_eq!(t.len(), 2);
/// assert!(t.to_csv().starts_with("algorithm,outliers"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    volatile: bool,
}

impl Table {
    /// Start a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            volatile: false,
        }
    }

    /// Mark the table's cells as wall-clock (or otherwise host-dependent)
    /// measurements. Volatile tables still print to the terminal and save
    /// full CSVs, but the regenerated `results/REPORT.md` replaces their
    /// body with a pointer to the CSV so the committed report stays
    /// byte-for-byte reproducible (the CI report-rot gate diffs it).
    pub fn mark_volatile(mut self) -> Self {
        self.volatile = true;
        self
    }

    /// Does this table hold host-dependent (non-reproducible) cells?
    pub fn is_volatile(&self) -> bool {
        self.volatile
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Render as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&escape_row(&self.headers));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&escape_row(r));
            out.push('\n');
        }
        out
    }

    /// Write the CSV rendering to `path`, creating parent directories.
    pub fn save_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_csv().as_bytes())
    }
}

fn escape_row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::with_capacity(cells.len());
            for (i, c) in cells.iter().enumerate() {
                parts.push(format!("{:<width$}", c, width = widths[i]));
            }
            writeln!(f, "| {} |", parts.join(" | "))
        };
        line(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &sep)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Format a byte count the way the figures label their axes (KB/MB).
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2}MB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{}KB", bytes / 1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_fixed_width() {
        let mut t = Table::new("Demo", &["algo", "outliers"]);
        t.row(vec!["Ours".into(), "0".into()]);
        t.row(vec!["CM_fast".into(), "5213".into()]);
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| Ours    | 0        |"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["plain".into(), "has,comma".into()]);
        t.row(vec!["has\"quote".into(), "ok".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("plain,\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\",ok"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        Table::new("x", &["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    fn save_csv_roundtrip() {
        let dir = std::env::temp_dir().join("rsk_report_test");
        let path = dir.join("t.csv");
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into()]);
        t.save_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "a\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512 * 1024), "512KB");
        assert_eq!(fmt_bytes(1 << 20), "1.00MB");
        assert_eq!(fmt_bytes(3 << 19), "1.50MB");
    }
}
