//! Reachability audits over the call graph, plus the findings ratchet.
//!
//! - **`unsafe-reach`**: the exact set of public fns that transitively
//!   reach an `unsafe` token (over *static* edges only — bare and
//!   qualified calls; `.method(...)` dispatch through the `Backend` trait
//!   is the audited seam and would otherwise make every caller "reach
//!   unsafe" via the SIMD impl). The set is diffed against the checked-in
//!   [`UNSAFE_AUDIT`] file: a new reacher *and* a stale entry both fail,
//!   so the file stays an exact, reviewed inventory.
//! - **`panic-surface`**: panic tokens (`panic!`, asserts, `.unwrap()`,
//!   `.expect()`) on fns reachable from the hot kernel surface
//!   ([`HOT_SURFACE`] public fns) fire one finding per fn at its
//!   definition line — so a single allow pragma covers the fn.
//! - **`span-coverage`**: every public fn on the hot surface must open a
//!   `mega_obs::span` itself, call something that does, or run under a
//!   span opened above it — otherwise PR 7's roofline/report attribution
//!   silently loses the kernel.
//! - **Ratchet**: [`RATCHET_FILE`] pins a per-rule baseline count that may
//!   only decrease, making graph rules adoptable without a big-bang
//!   cleanup.

use crate::graph::{bfs, Graph};
use crate::{Finding, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// The checked-in exact inventory of unsafe-reaching public fns.
pub const UNSAFE_AUDIT: &str = "crates/analysis/audit/unsafe_reach.txt";

/// The checked-in per-rule baseline counts.
pub const RATCHET_FILE: &str = "crates/analysis/audit/ratchet.txt";

/// The hot kernel surface: public fns in these files are the
/// entry points for the panic-surface and span-coverage audits (the exec
/// kernels — dense, banded, and segment ops — and the distributed
/// executor's step loop).
pub const HOT_SURFACE: [&str; 2] = ["crates/exec/src/kernels.rs", "crates/dist/src/exec.rs"];

/// Crates never traversed or reported by the hot-path audits: mega-obs is
/// the audited telemetry layer (panic-free when disabled, and its enabled
/// paths are not kernel arithmetic), and the linter itself never runs on
/// the hot path.
fn audit_exempt(path: &str) -> bool {
    path.starts_with("crates/obs/") || path.starts_with("crates/analysis/")
}

/// Computes the sorted qualified names of public fns that transitively
/// reach `unsafe` over static edges.
pub(crate) fn unsafe_reachers(g: &Graph) -> Vec<String> {
    let rev = g.reverse_edges(true);
    let seeds: Vec<usize> = (0..g.fns.len()).filter(|&i| g.fns[i].has_unsafe).collect();
    let parents = bfs(&rev, seeds, |_| false);
    let mut names: BTreeSet<String> = BTreeSet::new();
    for (i, f) in g.fns.iter().enumerate() {
        if parents[i].is_some() && f.is_pub && !f.in_test {
            names.insert(f.qualified());
        }
    }
    names.into_iter().collect()
}

/// Diffs the computed unsafe-reach set against the audit file's entries.
pub(crate) fn unsafe_reach(g: &Graph, audit_entries: &[String], findings: &mut Vec<Finding>) {
    let rev = g.reverse_edges(true);
    let seeds: Vec<usize> = (0..g.fns.len()).filter(|&i| g.fns[i].has_unsafe).collect();
    let parents = bfs(&rev, seeds, |_| false);
    let audited: BTreeSet<&str> = audit_entries.iter().map(String::as_str).collect();
    let mut computed: BTreeMap<String, usize> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        if parents[i].is_some() && f.is_pub && !f.in_test {
            computed.entry(f.qualified()).or_insert(i);
        }
    }
    for (name, &i) in &computed {
        if !audited.contains(name.as_str()) {
            let f = &g.fns[i];
            findings.push(Finding {
                file: f.file.clone(),
                line: f.line,
                rule: Rule::UnsafeReach,
                message: format!(
                    "`pub fn {}` newly reaches an unsafe block (chain: {}); review the \
                     path and append `{}` to {UNSAFE_AUDIT}",
                    f.name,
                    chain_to_seed(g, &parents, i),
                    name
                ),
            });
        }
    }
    for (pos, entry) in audit_entries.iter().enumerate() {
        if !computed.contains_key(entry) {
            findings.push(Finding {
                file: UNSAFE_AUDIT.to_string(),
                line: pos + 1,
                rule: Rule::UnsafeReach,
                message: format!(
                    "audit entry `{entry}` no longer reaches unsafe (or no longer \
                     exists); remove the stale line"
                ),
            });
        }
    }
}

/// One finding per panic-containing fn reachable from the hot surface.
pub(crate) fn panic_surface(g: &Graph, findings: &mut Vec<Finding>) {
    let entries = surface_fns(g);
    let parents = g.reach(entries, false, |i| {
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
                chain_to_seed(g, &parents, i),
                sites.join(", "),
                suffix
            ),
        });
    }
}

/// Surface pub fns must open or run under a `mega_obs` span.
pub(crate) fn span_coverage(g: &Graph, findings: &mut Vec<Finding>) {
    let openers: Vec<usize> = (0..g.fns.len()).filter(|&i| g.fns[i].opens_span).collect();
    // Fns whose execution sits inside a span opened above them.
    let under = g.reach(openers.iter().copied(), false, |_| false);
    // Fns that transitively call a span opener (their main work is
    // attributed through the callee's span).
    let rev = g.reverse_edges(false);
    let calls_opener = bfs(&rev, openers.iter().copied(), |_| false);
    for i in surface_fns(g) {
        let f = &g.fns[i];
        if f.opens_span || under[i].is_some() || calls_opener[i].is_some() {
            continue;
        }
        findings.push(Finding {
            file: f.file.clone(),
            line: f.line,
            rule: Rule::SpanCoverage,
            message: format!(
                "`pub fn {}` on the audited kernel surface neither opens a `mega_obs` \
                 span nor runs under one; open one (`let _g = mega_obs::span(\"...\");`) \
                 so roofline/report attribution sees it, or allow with a reason",
                f.name
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

/// Renders `seed → ... → node` following BFS parents.
fn chain_to_seed(g: &Graph, parents: &[Option<usize>], mut at: usize) -> String {
    let mut names = vec![g.fns[at].name.clone()];
    let mut hops = 0;
    while let Some(p) = parents[at] {
        if p == at || hops > 64 {
            break;
        }
        names.push(g.fns[p].name.clone());
        at = p;
        hops += 1;
    }
    names.reverse();
    names.join(" → ")
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

    /// The baseline for `rule`, if ratcheted.
    pub fn baseline(&self, rule: Rule) -> Option<usize> {
        self.entries
            .iter()
            .find(|(r, _, _)| *r == rule)
            .map(|(_, b, _)| *b)
    }

    /// `(rule, baseline, line)` entries in file order.
    pub fn entries(&self) -> &[(Rule, usize, usize)] {
        &self.entries
    }
}
