//! Fixture regression tests for the lint rules.
//!
//! Each fixture under `tests/fixtures/` seeds violations at known lines;
//! these tests assert every rule fires exactly there (and nowhere else),
//! that path scoping flips the verdict where it should, that suppression
//! pragmas silence precisely their target, and — the self-test that makes
//! `cargo test` a lint gate too — that the workspace itself is clean.

use mega_analysis::{analyze_sources, audit, lint_source, lint_workspace, Finding, Rule};
use std::path::Path;

const NO_FMA: &str = include_str!("fixtures/no_fma.rs");
const FLOAT_REASSOC: &str = include_str!("fixtures/float_reassoc.rs");
const UNSAFE_SCOPE: &str = include_str!("fixtures/unsafe_scope.rs");
const UNDOCUMENTED_UNSAFE: &str = include_str!("fixtures/undocumented_unsafe.rs");
const OBS_ROUTING: &str = include_str!("fixtures/obs_routing.rs");
const UNORDERED: &str = include_str!("fixtures/unordered_collection.rs");
const PRAGMAS: &str = include_str!("fixtures/pragmas.rs");
const BAD_PRAGMA: &str = include_str!("fixtures/bad_pragma.rs");
const PANIC_SURFACE: &str = include_str!("fixtures/panic_surface.rs");
const STALE_PRAGMA: &str = include_str!("fixtures/stale_pragma.rs");
const SCOPE_ESCAPE: &str = include_str!("fixtures/scope_escape.rs");

/// The seeded lines at which `rule` fired, in order.
fn lines(findings: &[Finding], rule: Rule) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

#[test]
fn no_fma_fires_on_each_seeded_line_only() {
    let findings = lint_source("crates/gnn/src/layer.rs", NO_FMA);
    assert_eq!(lines(&findings, Rule::NoFma), [5, 9, 10, 11]);
    assert_eq!(findings.len(), 4, "comment/string mentions must not fire");
}

#[test]
fn float_reassoc_respects_the_kernels_allowlist() {
    let inside = lint_source("crates/exec/src/window.rs", FLOAT_REASSOC);
    assert_eq!(lines(&inside, Rule::FloatReassoc), [3, 7]);
    assert_eq!(inside.len(), 2);
    // At the kernels path the folds are allowlisted.
    assert!(lint_source("crates/exec/src/kernels.rs", FLOAT_REASSOC).is_empty());
    assert!(lint_source("crates/gnn/src/nn.rs", FLOAT_REASSOC).is_empty());
}

#[test]
fn unsafe_scope_exempts_only_the_simd_backend() {
    let away = lint_source("crates/core/src/peek.rs", UNSAFE_SCOPE);
    assert_eq!(lines(&away, Rule::UnsafeScope), [4]);
    assert_eq!(away.len(), 1, "the SAFETY comment covers the site");
    assert!(lint_source("crates/exec/src/simd.rs", UNSAFE_SCOPE).is_empty());
}

#[test]
fn undocumented_unsafe_fires_on_the_bare_site_only() {
    let findings = lint_source("crates/exec/src/simd.rs", UNDOCUMENTED_UNSAFE);
    assert_eq!(lines(&findings, Rule::UndocumentedUnsafe), [8]);
    assert_eq!(findings.len(), 1);
}

#[test]
fn obs_routing_exempts_obs_tests_and_examples() {
    let inside = lint_source("crates/gnn/src/debug.rs", OBS_ROUTING);
    assert_eq!(lines(&inside, Rule::ObsRouting), [3, 4, 5]);
    assert!(lint_source("crates/obs/src/dump.rs", OBS_ROUTING).is_empty());
    assert!(lint_source("crates/gnn/tests/debug.rs", OBS_ROUTING).is_empty());
    assert!(lint_source("examples/quickstart.rs", OBS_ROUTING).is_empty());
    assert!(lint_source("crates/bench/src/bin/timing.rs", OBS_ROUTING).is_empty());
}

#[test]
fn unordered_collection_fires_in_result_affecting_crates_only() {
    let inside = lint_source("crates/core/src/cache.rs", UNORDERED);
    assert_eq!(lines(&inside, Rule::UnorderedCollection), [2, 3, 5, 5, 7]);
    // The distributed crate folds gradients and halo rows in a fixed order,
    // so it stays pinned inside the order-sensitive scope.
    let dist = lint_source("crates/dist/src/train.rs", UNORDERED);
    assert_eq!(lines(&dist, Rule::UnorderedCollection), [2, 3, 5, 5, 7]);
    assert!(lint_source("crates/obs/src/cache.rs", UNORDERED).is_empty());
    assert!(lint_source("crates/core/tests/cache.rs", UNORDERED).is_empty());
}

#[test]
fn pragmas_suppress_exactly_their_target_line() {
    let findings = lint_source("crates/core/src/cache.rs", PRAGMAS);
    assert_eq!(lines(&findings, Rule::UnorderedCollection), [8, 9, 10]);
    assert!(lines(&findings, Rule::BadPragma).is_empty());
    assert_eq!(
        findings.len(),
        3,
        "both pragma forms must silence their site"
    );
}

#[test]
fn malformed_pragmas_fire_and_do_not_suppress() {
    let findings = lint_source("crates/core/src/cache.rs", BAD_PRAGMA);
    assert_eq!(lines(&findings, Rule::BadPragma), [2, 3, 4]);
    assert_eq!(findings.len(), 3);
}

#[test]
fn scope_escape_rejects_path_modules_and_includes_but_not_data_embeds() {
    let findings = lint_source("crates/core/src/lib.rs", SCOPE_ESCAPE);
    assert_eq!(
        lines(&findings, Rule::ScopeEscape),
        [2, 3, 8],
        "{findings:?}"
    );
    // The pragma cannot silence the site; it is itself a finding.
    assert_eq!(lines(&findings, Rule::BadPragma), [7]);
    assert_eq!(findings.len(), 4);
    // The gate reports the site at the path the file lives at.
    let (_, gate) = lint_temp_workspace(
        "scope-escape",
        &[("crates/exec/src/simd.rs", "include!(\"simd_part.rs\");\n")],
    );
    assert_eq!(gate.len(), 1, "{gate:?}");
    assert_eq!(
        (gate[0].file.as_str(), gate[0].line, gate[0].rule),
        ("crates/exec/src/simd.rs", 1, Rule::ScopeEscape)
    );
}

// ---------------------------------------------------------------------------
// The panic-surface audit and stale pragmas — fixture tests with exact-line
// assertions.
// ---------------------------------------------------------------------------

#[test]
fn panic_surface_flags_every_panicking_fn_in_hot_files_only() {
    let findings = lint_source("crates/exec/src/kernels.rs", PANIC_SURFACE);
    // `helper` (assert, line 7) and `never_called` (todo!, line 19) fire
    // whether or not anything calls them; `checked` is pragma-allowed (the
    // NaN sentinel), `debug_checked` holds only a `debug_assert!`, and the
    // `#[cfg(test)]` probe is test code.
    assert_eq!(
        lines(&findings, Rule::PanicSurface),
        [7, 19],
        "{findings:?}"
    );
    let msg = &findings
        .iter()
        .find(|f| f.rule == Rule::PanicSurface)
        .unwrap()
        .message;
    assert!(msg.contains("`fn helper`"), "{msg}");
    assert!(msg.contains("`assert!` (line 8)"), "{msg}");
    assert!(
        lines(&findings, Rule::StalePragma).is_empty(),
        "{findings:?}"
    );
    // A hot file that no pub fn of the kernels reaches is judged the same.
    let plans = lint_source("crates/core/src/parallel.rs", PANIC_SURFACE);
    assert_eq!(lines(&plans, Rule::PanicSurface), [7, 19], "{plans:?}");
    // The same text outside the hot files is not audited at all.
    let away = lint_source("crates/core/src/kernels.rs", PANIC_SURFACE);
    assert!(lines(&away, Rule::PanicSurface).is_empty(), "{away:?}");
}

#[test]
fn stale_pragmas_fire_only_where_nothing_is_suppressed() {
    let findings = lint_source("crates/core/src/cache.rs", STALE_PRAGMA);
    // The unordered-collection pragma on line 2 suppresses the HashMap
    // finding; the no-fma pragma on line 4 suppresses nothing.
    assert_eq!(lines(&findings, Rule::StalePragma), [4], "{findings:?}");
    assert!(lines(&findings, Rule::UnorderedCollection).is_empty());
    assert_eq!(findings.len(), 1);
    // A rule without a ratchet line gates on its first finding: the stale
    // pragma fails the run when the ratchet baselines only panic-surface.
    let sources = [(
        "crates/core/src/cache.rs".to_string(),
        STALE_PRAGMA.to_string(),
    )];
    let gate = analyze_sources(&sources, "panic-surface 3\n").gate();
    assert_eq!(lines(&gate, Rule::StalePragma), [4], "{gate:?}");
    assert_eq!(gate.len(), 1, "{gate:?}");
}

// ---------------------------------------------------------------------------
// Filesystem end-to-end: the ratchet and the workspace gate.
// ---------------------------------------------------------------------------

/// Writes a miniature workspace, returns `lint_workspace`'s gate findings.
fn lint_temp_workspace(name: &str, files: &[(&str, &str)]) -> (usize, Vec<Finding>) {
    let root = std::env::temp_dir().join(format!("mega-lint-{name}-{}", std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root).unwrap();
    }
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    let out = lint_workspace(&root).expect("scan temp workspace");
    std::fs::remove_dir_all(&root).unwrap();
    out
}

#[test]
fn ratchet_baselines_match_the_workspace_exactly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = mega_analysis::analyze_workspace(&root).expect("workspace scan");
    assert!(!a.ratchet.is_empty(), "ratchet.txt must be checked in");
    for r in &a.ratchet {
        assert!(
            r.count <= r.baseline,
            "`{}` has {} findings, over its ratchet baseline of {} — fix the new \
             sites; the baseline only goes down",
            r.rule.id(),
            r.count,
            r.baseline
        );
        assert!(
            r.count == r.baseline,
            "`{}` is at {} findings, below its baseline of {} — tighten \
             {} to lock the progress in",
            r.rule.id(),
            r.count,
            r.baseline,
            audit::RATCHET_FILE
        );
    }
    assert!(
        a.ratchet.iter().any(|r| r.rule == Rule::PanicSurface),
        "the inherited panic-surface debt must stay ratcheted"
    );
}

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (files, findings) = lint_workspace(&root).expect("workspace scan");
    assert!(
        files > 100,
        "expected the full source tree, saw {files} files"
    );
    let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        rendered.join("\n")
    );
}
