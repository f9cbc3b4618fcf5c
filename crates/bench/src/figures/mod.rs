//! Every table and figure of the paper, as data: one function per figure
//! returns a [`Figure`], and [`emit`] prints it and writes
//! `bench_results/<name>.json`. The `figures` binary runs them by name.
//!
//! Figures computed by the GPU cost model are modeled GTX 1080 numbers
//! ([`modeled`], with the partition figure's 10 GbE projection);
//! [`structure`] holds the traversal, dataset and WL figures, which model
//! nothing; [`training`] trains on the host and pairs the measured losses
//! with the modeled epoch.

use crate::{save_json, TableWriter};
use serde::{Serialize, Value};

pub mod modeled;
pub mod structure;
pub mod training;

/// One table or figure: a title, keyed columns, one row of values per
/// point, and the paper claim it is checked against.
#[derive(Debug)]
pub struct Figure {
    title: String,
    columns: Vec<&'static str>,
    rows: Vec<Vec<Value>>,
    claim: String,
}

impl Figure {
    /// An empty figure with the given title and column keys.
    pub fn new(title: impl Into<String>, columns: &[&'static str]) -> Self {
        Figure {
            title: title.into(),
            columns: columns.to_vec(),
            rows: Vec::new(),
            claim: String::new(),
        }
    }

    /// Sets the paper claim (or the expectation, for experiments beyond the
    /// paper) printed under the table.
    pub fn with_claim(mut self, claim: impl Into<String>) -> Self {
        self.claim = claim.into();
        self
    }

    /// Appends a row, one value per column.
    ///
    /// # Panics
    ///
    /// If the row's length differs from the column count.
    pub fn push_row(&mut self, cells: &[&dyn Serialize]) {
        assert_eq!(cells.len(), self.columns.len(), "{}: row width", self.title);
        self.rows
            .push(cells.iter().map(|c| c.serialize()).collect());
    }

    /// Title, table and claim as text. Columns holding arrays or objects
    /// (whole training histories) are left to the JSON.
    pub fn render(&self) -> String {
        let shown: Vec<usize> = (0..self.columns.len())
            .filter(|&i| {
                !self
                    .rows
                    .iter()
                    .any(|r| matches!(r[i], Value::Array(_) | Value::Object(_)))
            })
            .collect();
        let header: Vec<&str> = shown.iter().map(|&i| self.columns[i]).collect();
        let mut table = TableWriter::new(&header);
        for r in &self.rows {
            let cells: Vec<String> = shown.iter().map(|&i| cell(&r[i])).collect();
            table.row(&cells);
        }
        format!("{}\n\n{}\n{}", self.title, table.render(), self.claim)
    }
}

/// A figure serializes as an array of objects, one per row, keyed by
/// column.
impl Serialize for Figure {
    fn serialize(&self) -> Value {
        let rows = self.rows.iter().map(|r| {
            let fields = self
                .columns
                .iter()
                .map(|c| c.to_string())
                .zip(r.iter().cloned());
            Value::Object(fields.collect())
        });
        Value::Array(rows.collect())
    }
}

/// A table cell: floats to four significant digits.
fn cell(v: &Value) -> String {
    match v {
        Value::F64(f) if f.is_finite() && *f != 0.0 => {
            let digits = (3 - f.abs().log10().floor() as i32).clamp(0, 9) as usize;
            format!("{f:.digits$}")
        }
        Value::F64(f) => f.to_string(),
        Value::U64(u) => u.to_string(),
        Value::I64(i) => i.to_string(),
        Value::Str(s) => s.clone(),
        Value::Bool(b) => b.to_string(),
        Value::Null | Value::Array(_) | Value::Object(_) => "-".to_string(),
    }
}

/// A function computing one figure.
pub type FigureFn = fn() -> Figure;

/// Every figure the driver knows, by the name of its JSON file.
pub const FIGURES: [(&str, FigureFn); 18] = [
    ("fig01_attention_ratio", modeled::fig01_attention_ratio),
    ("tab01_model_stats", structure::tab01_model_stats),
    ("tab02_graph_stats", structure::tab02_graph_stats),
    ("tab03_degree_stats", structure::tab03_degree_stats),
    ("fig04_sm_efficiency", modeled::fig04_sm_efficiency),
    ("fig05_time_share", modeled::fig05_time_share),
    ("fig06_kernel_profile", modeled::fig06_kernel_profile),
    ("fig08_isomorphism", structure::fig08_isomorphism),
    ("fig09_memory_metrics", modeled::fig09_memory_metrics),
    ("fig10_runtime", modeled::fig10_runtime),
    ("fig11_14_convergence", training::fig11_14_convergence),
    ("fig15_edge_drop", training::fig15_edge_drop),
    ("dist_comm_analysis", modeled::dist_comm_analysis),
    ("ablation_window", structure::ablation_window),
    ("ablation_coverage", structure::ablation_coverage),
    ("ablation_policy", structure::ablation_policy),
    ("ablation_device", modeled::ablation_device),
    ("model_zoo", training::model_zoo),
];

/// The figure function registered under `name`.
pub fn by_name(name: &str) -> Option<FigureFn> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|(_, f)| *f)
}

/// Prints `figure` and writes it to `bench_results/<name>.json`.
pub fn emit(name: &str, figure: &Figure) {
    mega_obs::data!("{}\n", figure.render());
    save_json(name, figure);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_matches_a_derived_row_struct() {
        #[derive(Serialize)]
        struct Row {
            name: String,
            count: usize,
            ratio: f64,
        }
        let rows = vec![
            Row {
                name: "a".into(),
                count: 3,
                ratio: 2.0,
            },
            Row {
                name: "b".into(),
                count: 0,
                ratio: 0.125,
            },
        ];
        let mut fig = Figure::new("t", &["name", "count", "ratio"]);
        for r in &rows {
            fig.push_row(&[&r.name, &r.count, &r.ratio]);
        }
        assert_eq!(
            serde_json::to_string_pretty(&fig).unwrap(),
            serde_json::to_string_pretty(&rows).unwrap()
        );
    }

    #[test]
    fn render_leaves_nested_columns_to_the_json() {
        let mut fig = Figure::new("title", &["k", "history"]).with_claim("claim");
        fig.push_row(&[&1.5f64, &vec![1usize, 2]]);
        let text = fig.render();
        assert!(text.starts_with("title\n"));
        assert!(text.contains("1.500") && !text.contains("history"));
        assert!(text.ends_with("claim"));
    }

    #[test]
    fn names_are_unique_and_resolve() {
        for (i, (name, _)) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|(n, _)| n != name), "{name} twice");
            assert!(by_name(name).is_some());
        }
        assert!(by_name("all").is_none());
    }
}
