//! The benchmark's declarations, read from `BENCHMARK.json` at the root of
//! the checkout: the one place where workload and metric names, units,
//! directions and regression bounds are fixed. The start-up self-check
//! holds every run to them.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is present on end-to-end metrics only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct MetricDecl {
    pub(crate) name: String,
    pub(crate) unit: String,
    pub(crate) better: Better,
    pub(crate) bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that the binary needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Declared {
    pub(crate) workloads: Vec<String>,
    pub(crate) end_to_end: Vec<MetricDecl>,
    pub(crate) per_layer: Vec<MetricDecl>,
}

/// Names are made of letters, digits, `_`, `.` and `-`, start with a
/// letter or digit, and are at most 64 bytes long.
pub(crate) fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn str_field(obj: &[(String, serde::Value)], key: &str) -> Result<String, String> {
    match serde::field(obj, key, "BENCHMARK.json entry") {
        Ok(serde::Value::Str(s)) => Ok(s.clone()),
        Ok(_) => Err(format!("`{key}` must be a string")),
        Err(e) => Err(e.to_string()),
    }
}

fn metric_list(root: &[(String, serde::Value)], key: &str) -> Result<Vec<MetricDecl>, String> {
    let list = serde::field(root, key, "BENCHMARK.json")
        .map_err(|e| e.to_string())?
        .as_array()
        .ok_or_else(|| format!("`{key}` must be an array"))?;
    list.iter()
        .map(|entry| {
            let obj = entry
                .as_object()
                .ok_or_else(|| format!("`{key}` entries must be objects"))?;
            let better = match str_field(obj, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("`better` must be lower or higher, not `{other}`")),
            };
            Ok(MetricDecl {
                name: str_field(obj, "name")?,
                unit: str_field(obj, "unit")?,
                better,
                bound: obj
                    .iter()
                    .find(|(k, _)| k == "bound")
                    .and_then(|(_, v)| v.as_f64()),
            })
        })
        .collect()
}

/// Parses the text of `BENCHMARK.json` and validates every declared name.
pub(crate) fn parse(text: &str) -> Result<Declared, String> {
    let root: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let root = root.as_object().ok_or("BENCHMARK.json must be an object")?;
    let workloads = serde::field(root, "workloads", "BENCHMARK.json")
        .map_err(|e| e.to_string())?
        .as_array()
        .ok_or("`workloads` must be an array")?
        .iter()
        .map(|w| {
            w.as_object()
                .ok_or_else(|| "`workloads` entries must be objects".to_string())
                .and_then(|obj| str_field(obj, "name"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let declared = Declared {
        workloads,
        end_to_end: metric_list(root, "end_to_end")?,
        per_layer: metric_list(root, "per_layer")?,
    };
    let mut seen = BTreeSet::new();
    let names = declared
        .workloads
        .iter()
        .chain(declared.end_to_end.iter().map(|m| &m.name))
        .chain(declared.per_layer.iter().map(|m| &m.name));
    for name in names {
        if !valid_name(name) {
            return Err(format!(
                "declared name `{name}` is not [A-Za-z0-9][A-Za-z0-9_.-]*"
            ));
        }
        if !seen.insert(name) {
            return Err(format!("name `{name}` is declared twice"));
        }
    }
    Ok(declared)
}

/// Reads and parses `BENCHMARK.json` from the current directory (the
/// checkout root the benchmark is run from).
pub(crate) fn load() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    parse(&text)
}

/// The self-check on one run's output: every printed name is declared in
/// `declared` and every declared name is printed.
pub(crate) fn check_printed(
    declared: &[MetricDecl],
    printed: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let want: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    let have: BTreeSet<&str> = printed.keys().map(String::as_str).collect();
    let undeclared: Vec<&&str> = have.difference(&want).collect();
    let missing: Vec<&&str> = want.difference(&have).collect();
    if undeclared.is_empty() && missing.is_empty() {
        return Ok(());
    }
    Err(format!(
        "metric self-check failed: printed but not declared {undeclared:?}; \
         declared but not printed {missing:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validator_accepts_the_contract_alphabet_only() {
        for good in [
            "setup_s",
            "exec.matmul.calls_per_step",
            "zinc-gt-mega",
            "0a",
            "A.b-c_d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_under",
            "has space",
            "slash/name",
            "caf\u{e9}",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    const SAMPLE: &str = r#"{
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": 10,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "core.path_len", "unit": "count", "better": "lower"}]
    }"#;

    #[test]
    fn parses_declarations() {
        let d = parse(SAMPLE).unwrap();
        assert_eq!(d.workloads, vec!["a", "b"]);
        assert_eq!(d.end_to_end[0].bound, Some(0.25));
        assert_eq!(d.end_to_end[0].better, Better::Lower);
        assert_eq!(d.per_layer[0].bound, None);
        assert_eq!(d.per_layer[0].unit, "count");
    }

    #[test]
    fn rejects_bad_and_duplicate_names() {
        assert!(parse(&SAMPLE.replace("core.path_len", "core path"))
            .unwrap_err()
            .contains("core path"));
        assert!(parse(&SAMPLE.replace("core.path_len", "setup_s"))
            .unwrap_err()
            .contains("twice"));
        assert!(parse(&SAMPLE.replace("\"lower\", \"bound\"", "\"sideways\", \"bound\"")).is_err());
    }

    #[test]
    fn printed_and_declared_must_agree_both_ways() {
        let d = parse(SAMPLE).unwrap();
        let printed = |names: &[&str]| -> BTreeMap<String, f64> {
            names.iter().map(|n| (n.to_string(), 1.0)).collect()
        };
        assert!(check_printed(&d.end_to_end, &printed(&["setup_s"])).is_ok());
        let extra = check_printed(&d.end_to_end, &printed(&["setup_s", "rogue"])).unwrap_err();
        assert!(extra.contains("rogue"));
        let missing = check_printed(&d.end_to_end, &printed(&[])).unwrap_err();
        assert!(missing.contains("setup_s"));
    }
}
