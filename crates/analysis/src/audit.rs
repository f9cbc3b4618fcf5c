//! The hot-path panic audit, plus the findings ratchet.
//!
//! - **`panic-surface`**: panic tokens (`panic!`, asserts, `.unwrap()`,
//!   `.expect()`) in a non-test fn of a [`HOT_FILES`] file fire one finding
//!   per fn at its definition line — so a single allow pragma covers the fn.
//! - **Ratchet**: [`RATCHET_FILE`] pins a per-rule baseline count that may
//!   only decrease, so the inherited panic debt gates any new site without
//!   a big-bang cleanup.

use crate::items;
use crate::scan::Line;
use crate::{Finding, Rule};

/// The checked-in per-rule baseline counts.
pub const RATCHET_FILE: &str = "crates/analysis/audit/ratchet.txt";

/// The hot kernel files: the exec kernels (dense, banded and segment ops)
/// with the row partitioner they split work by, the distributed executor's
/// step loop, and the chunk plans both run on.
pub const HOT_FILES: [&str; 4] = [
    "crates/exec/src/kernels.rs",
    "crates/exec/src/partition.rs",
    "crates/dist/src/exec.rs",
    "crates/core/src/parallel.rs",
];

/// One finding per panic-containing non-test fn when `path` is a hot file.
pub(crate) fn panic_surface(path: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    if !HOT_FILES.contains(&path) {
        return;
    }
    for f in items::extract(path, lines) {
        if f.in_test || f.panics.is_empty() {
            continue;
        }
        let sites: Vec<String> = f
            .panics
            .iter()
            .take(4)
            .map(|p| format!("`{}` (line {})", p.what, p.line))
            .collect();
        let more = f.panics.len().saturating_sub(4);
        let suffix = if more > 0 {
            format!(" and {more} more")
        } else {
            String::new()
        };
        findings.push(Finding {
            file: f.file,
            line: f.line,
            rule: Rule::PanicSurface,
            message: format!(
                "`fn {}` is in a hot kernel file and can panic: {}{}; \
                 return/propagate errors, hoist checks to plan validation, or \
                 allow with a reason",
                f.name,
                sites.join(", "),
                suffix
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// Ratchet
// ---------------------------------------------------------------------------

/// Parsed baseline counts from [`RATCHET_FILE`].
#[derive(Debug, Default)]
pub struct Ratchet {
    /// `(rule, baseline, 1-based line in the ratchet file)`.
    entries: Vec<(Rule, usize, usize)>,
}

impl Ratchet {
    /// Parses `<rule-id> <count>` lines (`#` comments and blanks skipped).
    /// Malformed lines become findings at the ratchet file itself.
    pub fn parse(text: &str, findings: &mut Vec<Finding>) -> Ratchet {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut bad = |why: String| {
                findings.push(Finding {
                    file: RATCHET_FILE.to_string(),
                    line: idx + 1,
                    rule: Rule::BadPragma,
                    message: why,
                });
            };
            let Some((id, count)) = line.split_once(char::is_whitespace) else {
                bad(format!(
                    "ratchet line must be `<rule-id> <count>`, got `{line}`"
                ));
                continue;
            };
            let Some(rule) = Rule::from_id(id.trim()) else {
                bad(format!("ratchet names unknown rule `{}`", id.trim()));
                continue;
            };
            let Ok(count) = count.trim().parse::<usize>() else {
                bad(format!(
                    "ratchet count must be a number, got `{}`",
                    count.trim()
                ));
                continue;
            };
            entries.push((rule, count, idx + 1));
        }
        Ratchet { entries }
    }

    /// `(rule, baseline, line)` entries in file order.
    pub fn entries(&self) -> &[(Rule, usize, usize)] {
        &self.entries
    }
}
