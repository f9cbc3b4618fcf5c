//! Benchmark harness regenerating every table and figure of the paper.
//!
//! [`figures`] holds one function per table or figure; the `figures`
//! binary prints the ones it is named and writes each as a JSON record
//! under `bench_results/` for EXPERIMENTS.md. The other binaries are gates
//! with their own flags: `equivalence` (bit-identity across backends and
//! worker counts), `backend_matmul` (GEMM timings) and `dist_scaling`
//! (modeled and measured distributed scaling). Criterion benches of the
//! hot paths live under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mega_datasets::{aqsol, csl, cycles, zinc, Dataset, DatasetSpec};
use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

pub mod figures;

/// The directory JSON results are written to (`bench_results/` at the
/// workspace root), created on demand.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    std::fs::create_dir_all(&dir).expect("bench_results directory must be creatable");
    dir
}

/// Serializes `value` as pretty JSON to `bench_results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("result types serialize");
    std::fs::write(&path, json).expect("result file must be writable");
    mega_obs::info!("\n[saved {}]", path.display());
}

/// Generates all four benchmark datasets at a CPU-friendly scale.
pub fn bench_datasets(spec: &DatasetSpec) -> Vec<Dataset> {
    vec![zinc(spec), aqsol(spec), csl(spec), cycles(spec)]
}

/// A simple fixed-width table printer for figure/table binaries.
#[derive(Debug, Default)]
pub struct TableWriter {
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Starts a table with a header row.
    pub fn new(header: &[&str]) -> Self {
        let mut t = TableWriter::default();
        t.row(header);
        t
    }

    /// Appends a row of cells.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) -> &mut Self {
        let cells: Vec<String> = cells.iter().map(|c| c.as_ref().to_string()).collect();
        if self.widths.len() < cells.len() {
            self.widths.resize(cells.len(), 0);
        }
        for (i, c) in cells.iter().enumerate() {
            self.widths[i] = self.widths[i].max(c.chars().count());
        }
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (ri, row) in self.rows.iter().enumerate() {
            for (i, c) in row.iter().enumerate() {
                let w = self.widths[i];
                let _ = write!(out, "{c:<w$}  ");
            }
            out.push('\n');
            if ri == 0 {
                let total: usize = self.widths.iter().map(|w| w + 2).sum();
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        out
    }

    /// Prints the rendered table to stdout as data lines (shown even under
    /// `MEGA_LOG=quiet` — tables are the binaries' primary output).
    pub fn print(&self) {
        mega_obs::data!("{}", self.render().trim_end_matches('\n'));
    }
}

/// Formats a float with `digits` decimals.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_writer_aligns() {
        let mut t = TableWriter::new(&["name", "value"]);
        t.row(&["a", "1"]).row(&["longer-name", "2.5"]);
        let s = t.render();
        assert!(s.contains("longer-name"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // header + rule + 2 rows
    }

    #[test]
    fn datasets_generate_at_tiny_scale() {
        let all = bench_datasets(&DatasetSpec::tiny(1));
        assert_eq!(all.len(), 4);
        for ds in &all {
            assert!(ds.validate(), "{} invalid", ds.name);
        }
    }

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }
}
