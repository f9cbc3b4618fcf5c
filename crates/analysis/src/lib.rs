//! mega-analysis: the workspace invariant linter behind the `mega-lint`
//! binary.
//!
//! The MEGA workspace makes promises that `rustc` cannot check: every
//! backend is bit-identical to the reference loops (so FMA and horizontal
//! reductions appear only at the pragma'd GEMM-fold sites, where every
//! backend fuses by contract, and no float fold is re-associated),
//! `unsafe` lives in exactly one file with every site justified, console
//! output and wall clocks route through `mega-obs`, and result-affecting
//! crates never iterate seed-ordered hash collections. This crate turns
//! those promises into lint rules over the source tree, with findings
//! reported as `file:line: [rule] message` and enforced (non-zero exit) in
//! CI.
//!
//! Every rule reads one file at a time, after [`scan`] strips comments and
//! string literals (so a banned identifier inside a doc comment or a log
//! message never fires). The token rules match single scanned lines;
//! `panic-surface` reads the `fn` items ([`items`]) of four hot kernel
//! files and flags each one that can panic.
//!
//! Rules are scoped by workspace-relative path and individually
//! suppressible at a site via a justified pragma, e.g.
//! `// mega-lint: allow(unordered-collection, reason = "membership test only")`.
//! A pragma that suppresses nothing is itself a `stale-pragma` finding.
//! The inherited `panic-surface` debt is pinned by the checked-in ratchet
//! (`crates/analysis/audit/ratchet.txt`): baseline counts may only
//! decrease. See [`Rule`] for the catalog and `DESIGN.md`
//! §9 for the contract each rule guards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod items;
mod pragma;
mod rules;
pub mod scan;
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
    /// banned everywhere except the pragma'd GEMM-fold sites, where every
    /// backend fuses by contract. Every other kernel's bits are defined by
    /// a separate multiply and add folded in order, which a fused or
    /// lane-reduced op would round differently.
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
    /// A `#[path = ".."]` attribute or an `include!(..)` macro: either
    /// compiles code at a path other than the file's own, where rules
    /// scoped by path would judge it wrongly. Never suppressible.
    /// `include_str!` and `include_bytes!` embed data and stay legal.
    ScopeEscape,
    /// A comment that carries the pragma marker but fails to parse as
    /// `allow(<rule>, reason = "...")`, names an unknown rule, or omits
    /// the reason. Never suppressible. Malformed audit/ratchet file lines
    /// also report here.
    BadPragma,
    /// A non-test fn in one of the hot kernel files
    /// ([`audit::HOT_FILES`]: the exec kernels and row partitioner, the
    /// dist executor step loop, the chunk plans) containing
    /// `panic!`/`assert!`/`.unwrap()`/`.expect()`; one finding per fn, at
    /// its definition line.
    PanicSurface,
    /// A valid pragma that suppressed zero findings: the suppression
    /// outlived the code it excused. Never suppressible.
    StalePragma,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 10] = [
        Rule::NoFma,
        Rule::FloatReassoc,
        Rule::UnsafeScope,
        Rule::UndocumentedUnsafe,
        Rule::ObsRouting,
        Rule::UnorderedCollection,
        Rule::ScopeEscape,
        Rule::BadPragma,
        Rule::PanicSurface,
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
            Rule::ScopeEscape => "scope-escape",
            Rule::BadPragma => "bad-pragma",
            Rule::PanicSurface => "panic-surface",
            Rule::StalePragma => "stale-pragma",
        }
    }

    /// False for the rules no pragma may silence: a malformed or stale
    /// pragma, and code compiled away from the path its rules scope.
    pub(crate) fn suppressible(self) -> bool {
        !matches!(
            self,
            Rule::BadPragma | Rule::StalePragma | Rule::ScopeEscape
        )
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
/// ratchet state.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Number of files checked.
    pub files: usize,
    /// All findings after pragma suppression, sorted by (file, line,
    /// rule) — including findings a ratchet baseline tolerates.
    pub findings: Vec<Finding>,
    /// Per-rule ratchet state, in ratchet-file order.
    pub ratchet: Vec<RatchetStatus>,
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

/// Runs the full pipeline — token rules, the panic-surface rule, pragma
/// filtering, stale-pragma detection — over in-memory sources given as
/// `(workspace_relative_path, text)` pairs, with the ratchet file
/// *contents* supplied directly (pass `""` for none).
pub fn analyze_sources(sources: &[(String, String)], ratchet_text: &str) -> Analysis {
    let mut findings = Vec::new();
    let mut sups: BTreeMap<String, pragma::Suppressions> = BTreeMap::new();
    for (path, text) in sources {
        let lines = scan::strip(text);
        let (sup, bad) = pragma::collect(path, &lines);
        findings.extend(bad);
        let mut raw = Vec::new();
        rules::run(path, &lines, &mut raw);
        audit::panic_surface(path, &lines, &mut raw);
        findings.extend(raw.into_iter().filter(|f| !sup.covers(f.line, f.rule)));
        sups.insert(path.clone(), sup);
    }
    // The ratchet file itself can be malformed.
    let ratchet = audit::Ratchet::parse(ratchet_text, &mut findings);
    // Stale pragmas — judged only after every rule has had its chance to
    // consume them.
    for (path, sup) in &sups {
        for (line, rule) in sup.stale() {
            findings.push(Finding {
                file: path.clone(),
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
    }
}

/// Lints one file's source text as if it lived at the workspace-relative
/// `path` (path scoping is part of every rule, so the same text can be
/// clean at one path and a violation at another). Runs with no ratchet.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    analyze_sources(&[(path.to_string(), source.to_string())], "").findings
}

/// Analyzes every Rust source under `root` (skipping `target/`, `shims/`,
/// fixture trees, and hidden directories), loading the ratchet baselines
/// from their checked-in location under `root`.
///
/// Each file is scoped at the path it lives at; `#[path = ".."]` and
/// `include!(..)`, which would compile code somewhere else, are
/// `scope-escape` findings.
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
    let ratchet_txt = std::fs::read_to_string(root.join(audit::RATCHET_FILE)).unwrap_or_default();
    Ok(analyze_sources(&sources, &ratchet_txt))
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
    fn ratchet_tolerates_up_to_baseline_and_fails_above() {
        let src = "pub fn a() { x.unwrap(); }\npub fn b() { y.unwrap(); }\n".to_string();
        let files = vec![("crates/exec/src/kernels.rs".to_string(), src)];
        let a = analyze_sources(&files, "panic-surface 2\n");
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
        let tight = analyze_sources(&files, "panic-surface 1\n");
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
        let files = vec![("crates/exec/src/kernels.rs".to_string(), src)];
        let a = analyze_sources(&files, "panic-surface 5\n");
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
