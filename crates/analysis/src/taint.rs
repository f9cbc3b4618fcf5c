//! `determinism-taint`: call-graph propagation of nondeterminism sources.
//!
//! A *source* is a token the extractor recognizes as machine- or
//! seed-dependent: `Instant::now`, `SystemTime::now`,
//! `available_parallelism`, RNG-from-entropy (`thread_rng`,
//! `from_entropy`, `OsRng`), or same-line `HashMap`/`HashSet` iteration.
//! Taint flows from a source fn to every transitive caller, except through
//! *boundary* fns: everything in `crates/obs/` (the audited observability
//! layer — its clocks feed metrics, never results) and any fn whose
//! definition line carries an `allow(determinism-taint, ...)` pragma.
//!
//! A finding fires where taint *enters* result-affecting code (the
//! order-sensitive `src/` trees shared with `unordered-collection`):
//! either at the source line itself when the source sits in a
//! result-affecting fn, or at a fn that calls a tainted fn living outside
//! the result-affecting scope. Callers further up the chain stay silent —
//! one actionable site per taint entry.
//!
//! A pragma on a source's own line drops that source (and counts as used);
//! a pragma on a fn's definition line makes the whole fn a boundary and
//! counts as used only when it actually intercepts taint, so stale
//! boundaries surface under `stale-pragma`.

use crate::graph::{bfs, Graph};
use crate::pragma::Suppressions;
use crate::rules;
use crate::{Finding, Rule};
use std::collections::BTreeMap;

/// True for scopes whose results the determinism contract covers.
fn result_affecting(path: &str) -> bool {
    rules::ORDER_SENSITIVE.iter().any(|p| path.starts_with(p)) && !path.contains("/tests/")
}

/// Runs the rule over the workspace graph, appending raw findings (the
/// caller still applies generic pragma filtering).
pub(crate) fn run(g: &Graph, sups: &BTreeMap<String, Suppressions>, findings: &mut Vec<Finding>) {
    let n = g.fns.len();
    // Sources surviving a pragma on their own line.
    let mut sources: Vec<Vec<usize>> = Vec::with_capacity(n);
    for f in &g.fns {
        let mut keep = Vec::new();
        for (k, s) in f.sources.iter().enumerate() {
            match sups.get(&f.file) {
                Some(sp) if sp.covers_peek(s.line, Rule::DeterminismTaint) => {
                    sp.mark_used(s.line, Rule::DeterminismTaint);
                }
                _ => keep.push(k),
            }
        }
        sources.push(keep);
    }
    let boundary: Vec<bool> = g
        .fns
        .iter()
        .map(|f| {
            f.file.starts_with("crates/obs/")
                || sups
                    .get(&f.file)
                    .is_some_and(|sp| sp.covers_peek(f.line, Rule::DeterminismTaint))
        })
        .collect();
    let rev = g.reverse_edges(false);
    let seeds: Vec<usize> = (0..n)
        .filter(|&i| !sources[i].is_empty() && !boundary[i])
        .collect();
    let parents = bfs(&rev, seeds, |i| boundary[i]);
    let tainted = |i: usize| parents[i].is_some() && !boundary[i];
    // A boundary pragma earns its keep only when it intercepts something.
    for i in 0..n {
        let f = &g.fns[i];
        if boundary[i] && !f.file.starts_with("crates/obs/") {
            let intercepts = !sources[i].is_empty() || g.edges[i].iter().any(|&j| tainted(j));
            if intercepts {
                if let Some(sp) = sups.get(&f.file) {
                    sp.mark_used(f.line, Rule::DeterminismTaint);
                }
            }
        }
    }
    for i in 0..n {
        let f = &g.fns[i];
        if !tainted(i) || f.in_test || !result_affecting(&f.file) {
            continue;
        }
        if let Some(&k) = sources[i].first() {
            let s = &f.sources[k];
            findings.push(Finding {
                file: f.file.clone(),
                line: s.line,
                rule: Rule::DeterminismTaint,
                message: format!(
                    "`fn {}` in a result-affecting crate calls nondeterminism source \
                     `{}`; route it through mega-obs or an audited boundary, or add \
                     `allow(determinism-taint, ...)` stating why results cannot depend on it",
                    f.name, s.what
                ),
            });
            continue;
        }
        // Taint arriving from outside the result-affecting scope: this fn
        // is where the contract is breached.
        let entry = g.edges[i]
            .iter()
            .copied()
            .find(|&j| tainted(j) && !result_affecting(&g.fns[j].file));
        if let Some(j) = entry {
            findings.push(Finding {
                file: f.file.clone(),
                line: f.line,
                rule: Rule::DeterminismTaint,
                message: format!(
                    "`fn {}` in a result-affecting crate reaches nondeterminism source \
                     `{}` (call chain: {}); break the chain or declare an audited \
                     boundary with `allow(determinism-taint, ...)`",
                    f.name,
                    root_source(g, &parents, &sources, j),
                    chain_to_source(g, &parents, i)
                ),
            });
        }
    }
}

/// Renders `f → g → ... → source_fn` following the reverse-BFS parents.
fn chain_to_source(g: &Graph, parents: &[Option<usize>], mut at: usize) -> String {
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
    names.join(" → ")
}

/// The source token at the seed end of a tainted fn's chain.
fn root_source(
    g: &Graph,
    parents: &[Option<usize>],
    sources: &[Vec<usize>],
    mut at: usize,
) -> String {
    let mut hops = 0;
    while let Some(p) = parents[at] {
        if p == at || hops > 64 {
            break;
        }
        at = p;
        hops += 1;
    }
    match sources[at].first() {
        Some(&k) => g.fns[at].sources[k].what.clone(),
        None => "unknown".to_string(),
    }
}
