//! The hot-path panic audit over the call graph, plus the findings ratchet.
//!
//! - **`panic-surface`**: panic tokens (`panic!`, asserts, `.unwrap()`,
//!   `.expect()`) on fns reachable from the hot kernel surface
//!   ([`HOT_SURFACE`] public fns) fire one finding per fn at its
//!   definition line — so a single allow pragma covers the fn.
//! - **Ratchet**: [`RATCHET_FILE`] pins a per-rule baseline count that may
//!   only decrease, so the inherited panic debt gates any new site without
//!   a big-bang cleanup.

use crate::graph::Graph;
use crate::{Finding, Rule};

/// The checked-in per-rule baseline counts.
pub const RATCHET_FILE: &str = "crates/analysis/audit/ratchet.txt";

/// The hot kernel surface: public fns in these files are the entry points
/// of the panic-surface audit (the exec kernels — dense, banded, and
/// segment ops — and the distributed executor's step loop).
pub const HOT_SURFACE: [&str; 2] = ["crates/exec/src/kernels.rs", "crates/dist/src/exec.rs"];

/// Crates never traversed or reported by the hot-path audit: mega-obs is
/// the audited telemetry layer (panic-free when disabled, and its enabled
/// paths are not kernel arithmetic), and the linter itself never runs on
/// the hot path.
fn audit_exempt(path: &str) -> bool {
    path.starts_with("crates/obs/") || path.starts_with("crates/analysis/")
}

/// One finding per panic-containing fn reachable from the hot surface.
pub(crate) fn panic_surface(g: &Graph, findings: &mut Vec<Finding>) {
    let entries = surface_fns(g);
    let parents = g.reach(entries, |i| {
        audit_exempt(&g.fns[i].file) || g.fns[i].in_test
    });
    for (i, f) in g.fns.iter().enumerate() {
        if parents[i].is_none() || f.in_test || audit_exempt(&f.file) || f.panics.is_empty() {
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
            file: f.file.clone(),
            line: f.line,
            rule: Rule::PanicSurface,
            message: format!(
                "`fn {}` is reachable from the hot kernel surface ({}) and can panic: \
                 {}{}; return/propagate errors, hoist checks to plan validation, or \
                 allow with a reason",
                f.name,
                g.chain(&parents, i),
                sites.join(", "),
                suffix
            ),
        });
    }
}

/// Public, non-test fns whose file is on [`HOT_SURFACE`].
fn surface_fns(g: &Graph) -> Vec<usize> {
    (0..g.fns.len())
        .filter(|&i| {
            let f = &g.fns[i];
            f.is_pub && !f.in_test && f.has_body && HOT_SURFACE.contains(&f.file.as_str())
        })
        .collect()
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
