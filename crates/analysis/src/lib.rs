//! mega-analysis: the workspace invariant linter behind the `mega-lint`
//! binary.
//!
//! The MEGA workspace makes promises that `rustc` cannot check: every
//! backend is bit-identical to the reference loops (so no FMA, no
//! horizontal reductions, no re-associated float folds), `unsafe` lives in
//! exactly one file with every site justified, console output and wall
//! clocks route through `mega-obs`, and result-affecting crates never
//! iterate seed-ordered hash collections. This crate turns those promises
//! into lint rules over the source tree, with findings reported as
//! `file:line: [rule] message` and enforced (non-zero exit) in CI.
//!
//! Two rule tiers share one pipeline:
//!
//! - **Token rules** match single scanned lines ([`scan`] strips comments
//!   and string literals first, so a banned identifier inside a doc
//!   comment or a log message never fires).
//! - **Graph rules** run over a whole-workspace call graph extracted from
//!   the same token stream ([`graph`]): determinism-taint propagation,
//!   the unsafe-reachability audit, the hot-path panic-surface audit, and
//!   span coverage. Their verdicts depend on *reachability*, not lexical
//!   occurrence.
//!
//! Rules are scoped by workspace-relative path and individually
//! suppressible at a site via a justified pragma, e.g.
//! `// mega-lint: allow(unordered-collection, reason = "membership test only")`.
//! A pragma that suppresses nothing is itself a `stale-pragma` finding.
//! Graph rules with a nonzero legacy surface are adoptable through the
//! checked-in ratchet (`crates/analysis/audit/ratchet.txt`): baseline
//! counts may only decrease. See [`Rule`] for the catalog and `DESIGN.md`
//! §9 for the contract each rule guards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod graph;
mod includes;
mod pragma;
mod rules;
pub mod scan;
mod taint;
mod walk;

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

pub use walk::rust_sources;

/// The rule catalog. Each variant's [`Rule::id`] is the name used in
/// findings, pragmas, and the documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Fused multiply-add and horizontal-reduction identifiers
    /// (`mul_add`, `_mm*_fmadd_*`, `hadd`, `dp_ps`, `_mm*reduce*`) are
    /// banned everywhere: they round or fold differently from the
    /// reference loops and break cross-backend bit-exactness.
    NoFma,
    /// Iterator float accumulations (`sum::<f32>()` and friends) inside
    /// `crates/exec/src/` outside the audited kernels allowlist.
    FloatReassoc,
    /// `unsafe` outside `crates/exec/src/simd.rs`.
    UnsafeScope,
    /// An `unsafe` site without an adjacent `// SAFETY:` comment.
    UndocumentedUnsafe,
    /// `println!`/`eprintln!`/`print!`/`eprint!` or raw
    /// `Instant::now`/`SystemTime::now` outside mega-obs, benches,
    /// examples, and tests.
    ObsRouting,
    /// `HashMap`/`HashSet` in a result-affecting crate's `src/` tree.
    UnorderedCollection,
    /// A fused composite-kernel `fn` definition (`*linear_relu*`,
    /// `*axpy*`, `*norm_act*`, ...) outside the audited fusion surface
    /// (`crates/exec/src/`, the tape, the GPU simulator). Fused
    /// arithmetic must go through the `Backend` trait so its bit-exactness
    /// proof lives in one reviewed place.
    FusionScope,
    /// A comment that carries the pragma marker but fails to parse as
    /// `allow(<rule>, reason = "...")`, names an unknown rule, or omits
    /// the reason. Never suppressible. Malformed audit/ratchet file lines
    /// also report here.
    BadPragma,
    /// A nondeterminism source (`Instant::now`, `SystemTime::now`,
    /// `available_parallelism`, RNG-from-entropy, `HashMap`/`HashSet`
    /// iteration) reaching result-affecting code through the call graph,
    /// outside audited boundary fns (see `taint` in DESIGN.md §9).
    DeterminismTaint,
    /// A public fn transitively reaching an `unsafe` block (over static
    /// call edges) that is not listed in the checked-in
    /// `crates/analysis/audit/unsafe_reach.txt` inventory — or a stale
    /// inventory entry that no longer reaches unsafe.
    UnsafeReach,
    /// A fn reachable from the hot kernel surface (exec kernels, the dist
    /// executor step loop) containing `panic!`/`assert!`/`.unwrap()`/
    /// `.expect()`; one finding per fn, at its definition line.
    PanicSurface,
    /// A public fn on the hot kernel surface that neither opens a
    /// `mega_obs` span nor runs under one, so roofline/report attribution
    /// cannot see it.
    SpanCoverage,
    /// A valid pragma that suppressed zero findings and intercepted no
    /// taint: the suppression outlived the code it excused. Never
    /// suppressible.
    StalePragma,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 13] = [
        Rule::NoFma,
        Rule::FloatReassoc,
        Rule::UnsafeScope,
        Rule::UndocumentedUnsafe,
        Rule::ObsRouting,
        Rule::UnorderedCollection,
        Rule::FusionScope,
        Rule::BadPragma,
        Rule::DeterminismTaint,
        Rule::UnsafeReach,
        Rule::PanicSurface,
        Rule::SpanCoverage,
        Rule::StalePragma,
    ];

    /// The kebab-case rule name used in findings and pragmas.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::NoFma => "no-fma",
            Rule::FloatReassoc => "float-reassoc",
            Rule::UnsafeScope => "unsafe-scope",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::ObsRouting => "obs-routing",
            Rule::UnorderedCollection => "unordered-collection",
            Rule::FusionScope => "fusion-scope",
            Rule::BadPragma => "bad-pragma",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::UnsafeReach => "unsafe-reach",
            Rule::PanicSurface => "panic-surface",
            Rule::SpanCoverage => "span-coverage",
            Rule::StalePragma => "stale-pragma",
        }
    }

    /// Resolves a rule name as written in a pragma.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One lint violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation tied to the site.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Ratchet state for one ratcheted rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RatchetStatus {
    /// The ratcheted rule.
    pub rule: Rule,
    /// Post-suppression findings counted this run.
    pub count: usize,
    /// The checked-in baseline the count may not exceed.
    pub baseline: usize,
    /// 1-based line of the entry in the ratchet file.
    pub line: usize,
}

/// The full result of an analysis run: every post-suppression finding plus
/// ratchet state and the computed unsafe-reach inventory.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Number of files checked.
    pub files: usize,
    /// All findings after pragma suppression, sorted by (file, line,
    /// rule) — including findings a ratchet baseline tolerates.
    pub findings: Vec<Finding>,
    /// Per-rule ratchet state, in ratchet-file order.
    pub ratchet: Vec<RatchetStatus>,
    /// The computed sorted unsafe-reach inventory (what
    /// `crates/analysis/audit/unsafe_reach.txt` should contain).
    pub unsafe_reach: Vec<String>,
}

impl Analysis {
    /// The findings that gate CI: everything except findings of a
    /// ratcheted rule whose count is within baseline, plus one summary
    /// finding per over-baseline rule (anchored at the ratchet file).
    pub fn gate(&self) -> Vec<Finding> {
        let mut out: Vec<Finding> = self
            .findings
            .iter()
            .filter(|f| {
                self.ratchet
                    .iter()
                    .find(|r| r.rule == f.rule)
                    .is_none_or(|r| r.count > r.baseline)
            })
            .cloned()
            .collect();
        for r in &self.ratchet {
            if r.count > r.baseline {
                out.push(Finding {
                    file: audit::RATCHET_FILE.to_string(),
                    line: r.line,
                    rule: r.rule,
                    message: format!(
                        "{} `{}` findings exceed the ratchet baseline of {}; fix the \
                         new sites — the baseline only goes down",
                        r.count,
                        r.rule.id(),
                        r.baseline
                    ),
                });
            }
        }
        out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        out
    }

    /// True when [`Analysis::gate`] is empty.
    pub fn is_clean(&self) -> bool {
        self.gate().is_empty()
    }
}

/// Runs the full pipeline — token rules, call-graph rules, pragma
/// filtering, stale-pragma detection — over in-memory sources given as
/// `(physical_path, scope_path, text)` triples, with the audit/ratchet
/// file *contents* supplied directly (pass `""` for none).
pub fn analyze_sources(
    sources: &[(String, String, String)],
    unsafe_audit_text: &str,
    ratchet_text: &str,
) -> Analysis {
    let mut findings = Vec::new();
    let mut stripped = Vec::with_capacity(sources.len());
    let mut sups: BTreeMap<String, pragma::Suppressions> = BTreeMap::new();
    for (phys, scope, text) in sources {
        let lines = scan::strip(text);
        let (sup, bad) = pragma::collect(phys, &lines);
        findings.extend(bad);
        sups.insert(phys.clone(), sup);
        stripped.push((phys.as_str(), scope.as_str(), lines));
    }
    // Token rules, filtered per file (scoped by the logical path, anchored
    // at the physical one).
    for (phys, scope, lines) in &stripped {
        let mut raw = Vec::new();
        rules::run(scope, lines, &mut raw);
        let sup = &sups[*phys];
        findings.extend(
            raw.into_iter()
                .filter(|f| !sup.covers(f.line, f.rule))
                .map(|mut f| {
                    f.file = (*phys).to_string();
                    f
                }),
        );
    }
    // Graph rules over the whole set.
    let refs: Vec<(&str, &str, &[scan::Line])> = stripped
        .iter()
        .map(|(p, s, l)| (*p, *s, l.as_slice()))
        .collect();
    let g = graph::Graph::build(&refs);
    let mut graph_raw = Vec::new();
    taint::run(&g, &sups, &mut graph_raw);
    let audit_entries: Vec<String> = unsafe_audit_text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    audit::unsafe_reach(&g, &audit_entries, &mut graph_raw);
    audit::panic_surface(&g, &mut graph_raw);
    audit::span_coverage(&g, &mut graph_raw);
    findings.extend(
        graph_raw
            .into_iter()
            .filter(|f| !sups.get(&f.file).is_some_and(|s| s.covers(f.line, f.rule))),
    );
    // The ratchet file itself can be malformed.
    let ratchet = audit::Ratchet::parse(ratchet_text, &mut findings);
    // Stale pragmas — judged only after every rule has had its chance to
    // consume them.
    for (phys, sup) in &sups {
        for (line, rule) in sup.stale() {
            findings.push(Finding {
                file: phys.clone(),
                line,
                rule: Rule::StalePragma,
                message: format!(
                    "pragma `allow({})` suppresses nothing here; remove it or fix the \
                     rule id",
                    rule.id()
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let statuses = ratchet
        .entries()
        .iter()
        .map(|&(rule, baseline, line)| RatchetStatus {
            rule,
            count: findings.iter().filter(|f| f.rule == rule).count(),
            baseline,
            line,
        })
        .collect();
    Analysis {
        files: sources.len(),
        findings,
        ratchet: statuses,
        unsafe_reach: audit::unsafe_reachers(&g),
    }
}

/// Lints one file's source text as if it lived at the workspace-relative
/// `path` (path scoping is part of every rule, so the same text can be
/// clean at one path and a violation at another).
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_source_as(path, path, source)
}

/// Lints one file's source text with rule scoping decided by `scope_path`
/// while findings (and pragma suppressions) stay anchored at the physical
/// `path`. This is how `#[path = "..."]` modules and `include!`d files are
/// judged by where their code *compiles* — e.g. a fragment `include!`d into
/// the SIMD backend inherits its `unsafe` exemption — while the report
/// still points at the file to edit. Runs with an empty unsafe-reach audit
/// and no ratchet.
pub fn lint_source_as(path: &str, scope_path: &str, source: &str) -> Vec<Finding> {
    let sources = vec![(path.to_string(), scope_path.to_string(), source.to_string())];
    analyze_sources(&sources, "", "").findings
}

/// Analyzes every Rust source under `root` (skipping `target/`, `shims/`,
/// fixture trees, and hidden directories), loading the unsafe-reach audit
/// and ratchet baselines from their checked-in locations under `root`.
///
/// A pre-pass resolves `#[path = "..."]` modules and `include!` targets so
/// each file is scoped at the path its code logically compiles at (see
/// [`lint_source_as`]); files outside the module tree's physical layout are
/// therefore judged by their includer's location, not their own.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let files = walk::rust_sources(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(file)?));
    }
    let logical = includes::logical_paths(&sources);
    let triples: Vec<(String, String, String)> = sources
        .into_iter()
        .map(|(rel, text)| {
            let scope = logical.get(&rel).cloned().unwrap_or_else(|| rel.clone());
            (rel, scope, text)
        })
        .collect();
    let unsafe_txt = std::fs::read_to_string(root.join(audit::UNSAFE_AUDIT)).unwrap_or_default();
    let ratchet_txt = std::fs::read_to_string(root.join(audit::RATCHET_FILE)).unwrap_or_default();
    Ok(analyze_sources(&triples, &unsafe_txt, &ratchet_txt))
}

/// Lints every Rust source under `root` and returns the number of files
/// checked plus the CI-gating findings (ratchet-tolerated findings are
/// absorbed; see [`Analysis::gate`]).
pub fn lint_workspace(root: &Path) -> io::Result<(usize, Vec<Finding>)> {
    let a = analyze_workspace(root)?;
    Ok((a.files, a.gate()))
}

/// Renders an [`Analysis`] as a stable JSON document (hand-rolled — this
/// crate deliberately has zero dependencies). Findings carry a
/// `tolerated` flag when a ratchet baseline absorbs them.
pub fn render_json(a: &Analysis) -> String {
    let tolerated = |f: &Finding| {
        a.ratchet
            .iter()
            .any(|r| r.rule == f.rule && r.count <= r.baseline)
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files\": {},\n", a.files));
    out.push_str(&format!("  \"clean\": {},\n", a.is_clean()));
    out.push_str("  \"counts\": {");
    let mut first = true;
    for rule in Rule::ALL {
        let n = a.findings.iter().filter(|f| f.rule == rule).count();
        if n > 0 {
            if !first {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", rule.id(), n));
            first = false;
        }
    }
    out.push_str("},\n  \"ratchet\": [");
    for (i, r) in a.ratchet.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"rule\": \"{}\", \"count\": {}, \"baseline\": {}}}",
            r.rule.id(),
            r.count,
            r.baseline
        ));
    }
    out.push_str("],\n  \"findings\": [");
    for (i, f) in a.findings.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&format!(
            "{{\"file\": {}, \"line\": {}, \"rule\": \"{}\", \"tolerated\": {}, \"message\": {}}}",
            json_str(&f.file),
            f.line,
            f.rule.id(),
            tolerated(f),
            json_str(&f.message)
        ));
    }
    if !a.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("not-a-rule"), None);
    }

    #[test]
    fn findings_render_file_line_rule() {
        let f = Finding {
            file: "crates/core/src/x.rs".into(),
            line: 7,
            rule: Rule::NoFma,
            message: "nope".into(),
        };
        assert_eq!(f.to_string(), "crates/core/src/x.rs:7: [no-fma] nope");
    }

    #[test]
    fn path_scoping_changes_the_verdict() {
        let src = "// SAFETY: trusted\nunsafe { body() }\n";
        let away = lint_source("crates/core/src/a.rs", src);
        assert_eq!(away.len(), 1);
        assert_eq!(away[0].rule, Rule::UnsafeScope);
        assert!(lint_source("crates/exec/src/simd.rs", src).is_empty());
    }

    #[test]
    fn lint_source_as_scopes_logically_but_reports_physically() {
        let src = "// SAFETY: trusted\nunsafe { body() }\n";
        let as_simd = lint_source_as(
            "crates/exec/src/simd_part.rs",
            "crates/exec/src/simd.rs",
            src,
        );
        assert!(as_simd.is_empty(), "{as_simd:?}");
        let as_core = lint_source_as("crates/exec/src/simd_part.rs", "crates/core/src/a.rs", src);
        assert_eq!(as_core.len(), 1);
        assert_eq!(as_core[0].rule, Rule::UnsafeScope);
        assert_eq!(as_core[0].file, "crates/exec/src/simd_part.rs");
    }

    #[test]
    fn workspace_scoping_follows_path_attributes_and_includes() {
        let root = std::env::temp_dir().join(format!("mega-lint-includes-{}", std::process::id()));
        let exec = root.join("crates/exec/src");
        let core = root.join("crates/core");
        std::fs::create_dir_all(&exec).unwrap();
        std::fs::create_dir_all(core.join("src")).unwrap();
        std::fs::create_dir_all(core.join("extra")).unwrap();
        // A fragment include!d into the one sanctioned unsafe file must
        // inherit its exemption instead of firing unsafe-scope.
        std::fs::write(exec.join("simd.rs"), "include!(\"simd_part.rs\");\n").unwrap();
        std::fs::write(
            exec.join("simd_part.rs"),
            "// SAFETY: lanes bounds-checked by caller\nunsafe { go() }\n",
        )
        .unwrap();
        // A #[path] module physically outside core's src/ tree compiles
        // inside it, so order-sensitive rules must still apply there —
        // reported at the physical path, where the fix goes.
        std::fs::write(
            core.join("src/lib.rs"),
            "#[path = \"../extra/impl.rs\"]\nmod imp;\n",
        )
        .unwrap();
        std::fs::write(
            core.join("extra/impl.rs"),
            "use std::collections::HashMap;\n",
        )
        .unwrap();
        let (checked, findings) = lint_workspace(&root).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(checked, 4);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, Rule::UnorderedCollection);
        assert_eq!(findings[0].file, "crates/core/extra/impl.rs");
    }

    #[test]
    fn ratchet_tolerates_up_to_baseline_and_fails_above() {
        let src = "pub fn a() { x.unwrap(); }\npub fn b() { y.unwrap(); }\n".to_string();
        let files = vec![(
            "crates/exec/src/kernels.rs".to_string(),
            "crates/exec/src/kernels.rs".to_string(),
            src,
        )];
        let a = analyze_sources(&files, "", "panic-surface 2\nspan-coverage 2\n");
        let panics = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::PanicSurface)
            .count();
        assert_eq!(panics, 2);
        assert!(
            a.gate().iter().all(|f| f.rule != Rule::PanicSurface),
            "within baseline → tolerated: {:?}",
            a.gate()
        );
        let tight = analyze_sources(&files, "", "panic-surface 1\nspan-coverage 2\n");
        let gate = tight.gate();
        assert_eq!(
            gate.iter().filter(|f| f.rule == Rule::PanicSurface).count(),
            3,
            "2 sites + 1 summary: {gate:?}"
        );
        assert!(gate
            .iter()
            .any(|f| f.file == audit::RATCHET_FILE && f.message.contains("baseline")));
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let src = "pub fn a() { x.unwrap(); }\n".to_string();
        let files = vec![(
            "crates/exec/src/kernels.rs".to_string(),
            "crates/exec/src/kernels.rs".to_string(),
            src,
        )];
        let a = analyze_sources(&files, "", "panic-surface 5\n");
        let json = render_json(&a);
        assert!(json.contains("\"files\": 1"));
        assert!(json.contains("\"panic-surface\""));
        assert!(json.contains("\"tolerated\": true"));
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
    }
}
