//! Fixture regression tests for the lint rules.
//!
//! Each fixture under `tests/fixtures/` seeds violations at known lines;
//! these tests assert every rule fires exactly there (and nowhere else),
//! that path scoping flips the verdict where it should, that suppression
//! pragmas silence precisely their target, and — the self-test that makes
//! `cargo test` a lint gate too — that the workspace itself is clean.

use mega_analysis::{analyze_sources, audit, lint_source, lint_workspace, Analysis, Finding, Rule};
use std::path::Path;

const NO_FMA: &str = include_str!("fixtures/no_fma.rs");
const FLOAT_REASSOC: &str = include_str!("fixtures/float_reassoc.rs");
const UNSAFE_SCOPE: &str = include_str!("fixtures/unsafe_scope.rs");
const UNDOCUMENTED_UNSAFE: &str = include_str!("fixtures/undocumented_unsafe.rs");
const OBS_ROUTING: &str = include_str!("fixtures/obs_routing.rs");
const UNORDERED: &str = include_str!("fixtures/unordered_collection.rs");
const PRAGMAS: &str = include_str!("fixtures/pragmas.rs");
const FUSION_SCOPE: &str = include_str!("fixtures/fusion_scope.rs");
const BAD_PRAGMA: &str = include_str!("fixtures/bad_pragma.rs");
const DETERMINISM_TAINT: &str = include_str!("fixtures/determinism_taint.rs");
const UNSAFE_REACH: &str = include_str!("fixtures/unsafe_reach.rs");
const PANIC_SURFACE: &str = include_str!("fixtures/panic_surface.rs");
const SPAN_COVERAGE: &str = include_str!("fixtures/span_coverage.rs");
const STALE_PRAGMA: &str = include_str!("fixtures/stale_pragma.rs");
const SCOPE_ESCAPE: &str = include_str!("fixtures/scope_escape.rs");

/// [`analyze_sources`] over `(path, text)` pairs, with no unsafe-reach
/// audit entries and no ratchet.
fn analyze(files: &[(&str, &str)]) -> Analysis {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    analyze_sources(&sources, "", "")
}

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
    // At the kernels path the folds are allowlisted — but kernels.rs is the
    // hot surface, so its span-less pub fns trip the coverage audit instead.
    let at_kernels = lint_source("crates/exec/src/kernels.rs", FLOAT_REASSOC);
    assert!(lines(&at_kernels, Rule::FloatReassoc).is_empty());
    assert_eq!(lines(&at_kernels, Rule::SpanCoverage), [2, 6]);
    assert!(lint_source("crates/gnn/src/nn.rs", FLOAT_REASSOC).is_empty());
}

#[test]
fn unsafe_scope_exempts_only_the_simd_backend() {
    let away = lint_source("crates/core/src/peek.rs", UNSAFE_SCOPE);
    assert_eq!(lines(&away, Rule::UnsafeScope), [4]);
    // The graph audit fires alongside the token rule: `pub fn peek`
    // reaches the unsafe block and is not in the (empty) inventory.
    assert_eq!(lines(&away, Rule::UnsafeReach), [2]);
    assert_eq!(away.len(), 2, "the SAFETY comment covers the site");
    let home = lint_source("crates/exec/src/simd.rs", UNSAFE_SCOPE);
    assert!(lines(&home, Rule::UnsafeScope).is_empty());
    assert_eq!(
        lines(&home, Rule::UnsafeReach),
        [2],
        "scope exemption \u{2260} audit exemption"
    );
}

#[test]
fn undocumented_unsafe_fires_on_the_bare_site_only() {
    let findings = lint_source("crates/exec/src/simd.rs", UNDOCUMENTED_UNSAFE);
    assert_eq!(lines(&findings, Rule::UndocumentedUnsafe), [8]);
    assert_eq!(lines(&findings, Rule::UnsafeReach), [2, 7]);
    assert_eq!(findings.len(), 3);
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
fn fusion_scope_fires_outside_the_audited_surface_only() {
    let inside = lint_source("crates/gnn/src/layers.rs", FUSION_SCOPE);
    assert_eq!(lines(&inside, Rule::FusionScope), [3, 6, 11]);
    assert_eq!(
        inside.len(),
        3,
        "call sites, comments, and the pragma-covered fn must not fire: {inside:?}"
    );
    // The audited fusion surface is exempt: kernels/backends, the tape,
    // the GPU simulator — and tests anywhere.
    for home in [
        "crates/exec/src/kernels.rs",
        "crates/tensor/src/tape.rs",
        "crates/gpu-sim/src/profiler.rs",
        "crates/exec/tests/scaling.rs",
    ] {
        assert!(
            lint_source(home, FUSION_SCOPE)
                .iter()
                .all(|f| f.rule != Rule::FusionScope),
            "{home} must be exempt"
        );
    }
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
// Graph rules (determinism taint, reachability audits, span coverage,
// stale pragmas) — fixture tests with exact-line assertions.
// ---------------------------------------------------------------------------

#[test]
fn determinism_taint_fires_at_the_source_line_in_result_affecting_code() {
    let findings = lint_source("crates/core/src/sched.rs", DETERMINISM_TAINT);
    // `width` holds the source (line 3); `plan` calls it but stays silent —
    // the taint entered result-affecting code at `width`, one actionable
    // site per chain. `quiet_clock`'s source is dropped by its pragma.
    assert_eq!(lines(&findings, Rule::DeterminismTaint), [3]);
    assert!(findings[0].message.contains("available_parallelism"));
    assert!(
        lines(&findings, Rule::StalePragma).is_empty(),
        "the source-line pragma counts as used: {findings:?}"
    );
}

#[test]
fn determinism_taint_crosses_files_and_stops_at_boundary_pragmas() {
    let bench =
        "pub fn ticks() -> u64 {\n    std::time::Instant::now().elapsed().as_nanos() as u64\n}\n";
    let core = "pub fn jitter(n: u64) -> u64 {\n    n ^ ticks()\n}\n";
    let a = analyze(&[
        ("crates/bench/src/clock.rs", bench),
        ("crates/core/src/sched.rs", core),
    ]);
    // The source lives in crates/bench (not result-affecting, so silent
    // there); the finding fires where taint crosses into crates/core.
    let taint: Vec<&Finding> = a
        .findings
        .iter()
        .filter(|f| f.rule == Rule::DeterminismTaint)
        .collect();
    assert_eq!(taint.len(), 1, "{:?}", a.findings);
    assert_eq!(
        (taint[0].file.as_str(), taint[0].line),
        ("crates/core/src/sched.rs", 1)
    );
    assert!(
        taint[0].message.contains("jitter → ticks"),
        "{}",
        taint[0].message
    );
    assert!(
        taint[0].message.contains("Instant::now"),
        "{}",
        taint[0].message
    );

    // A boundary pragma on the crossing fn intercepts the taint — and is
    // therefore used, not stale.
    let bounded = "// mega-lint: allow(determinism-taint, reason = \"jitter feeds backoff only, never results\")\npub fn jitter(n: u64) -> u64 {\n    n ^ ticks()\n}\n";
    let b = analyze(&[
        ("crates/bench/src/clock.rs", bench),
        ("crates/core/src/sched.rs", bounded),
    ]);
    assert!(
        b.findings
            .iter()
            .all(|f| f.rule != Rule::DeterminismTaint && f.rule != Rule::StalePragma),
        "{:?}",
        b.findings
    );
}

#[test]
fn unsafe_reach_diffs_against_the_audit_inventory() {
    let file = ("crates/exec/src/simd.rs", UNSAFE_REACH);
    // Empty inventory: the pub entry is an unaudited addition; the private
    // helper and the unsafe-free pub fn stay silent.
    let empty = analyze(&[file]);
    let adds = lines(&empty.findings, Rule::UnsafeReach);
    assert_eq!(adds, [2], "{:?}", empty.findings);
    let msg = &empty
        .findings
        .iter()
        .find(|f| f.rule == Rule::UnsafeReach)
        .unwrap()
        .message;
    assert!(
        msg.contains("entry → helper") || msg.contains("helper → entry"),
        "{msg}"
    );
    assert!(
        msg.contains("append `crates/exec/src/simd.rs::entry`"),
        "{msg}"
    );
    assert_eq!(empty.unsafe_reach, ["crates/exec/src/simd.rs::entry"]);

    // Exact inventory: clean.
    let sources = vec![(
        "crates/exec/src/simd.rs".to_string(),
        UNSAFE_REACH.to_string(),
    )];
    let audited = analyze_sources(&sources, "crates/exec/src/simd.rs::entry\n", "");
    assert!(
        audited.findings.iter().all(|f| f.rule != Rule::UnsafeReach),
        "{:?}",
        audited.findings
    );

    // A stale entry fails too, anchored at the audit file.
    let stale = analyze_sources(
        &sources,
        "crates/exec/src/simd.rs::entry\ncrates/exec/src/simd.rs::retired\n",
        "",
    );
    let f = stale
        .findings
        .iter()
        .find(|f| f.rule == Rule::UnsafeReach)
        .expect("stale entry must fire");
    assert_eq!(f.file, audit::UNSAFE_AUDIT);
    assert!(
        f.message.contains("retired") && f.message.contains("stale"),
        "{}",
        f.message
    );
}

#[test]
fn panic_surface_judges_reachability_not_lexical_position() {
    let findings = lint_source("crates/exec/src/kernels.rs", PANIC_SURFACE);
    // `helper` (assert, line 7) is reached from pub `kernel`; `checked` is
    // pragma-allowed (the NaN sentinel); `never_called`'s todo!() is
    // unreachable from the surface and stays silent.
    assert_eq!(lines(&findings, Rule::PanicSurface), [7], "{findings:?}");
    let msg = &findings
        .iter()
        .find(|f| f.rule == Rule::PanicSurface)
        .unwrap()
        .message;
    assert!(msg.contains("kernel → helper"), "{msg}");
    assert!(msg.contains("`assert!` (line 8)"), "{msg}");
    assert!(
        lines(&findings, Rule::StalePragma).is_empty(),
        "{findings:?}"
    );
    // The same text away from the hot surface is not audited at all.
    let away = lint_source("crates/core/src/kernels.rs", PANIC_SURFACE);
    assert!(lines(&away, Rule::PanicSurface).is_empty());
}

#[test]
fn span_coverage_accepts_openers_runs_under_and_calls_opener() {
    let findings = lint_source("crates/exec/src/kernels.rs", SPAN_COVERAGE);
    // `opener` opens, `inner` runs under it, `wrapper` calls it, `tiny` is
    // pragma-allowed — only `uncovered` (line 15) fires.
    assert_eq!(lines(&findings, Rule::SpanCoverage), [15], "{findings:?}");
    assert!(lines(&findings, Rule::StalePragma).is_empty());
    // Off the hot surface the rule does not apply.
    let away = lint_source("crates/exec/src/simd.rs", SPAN_COVERAGE);
    assert!(lines(&away, Rule::SpanCoverage).is_empty());
}

#[test]
fn stale_pragmas_fire_only_where_nothing_is_suppressed() {
    let findings = lint_source("crates/core/src/cache.rs", STALE_PRAGMA);
    // The unordered-collection pragma on line 2 suppresses the HashMap
    // finding; the no-fma pragma on line 4 suppresses nothing.
    assert_eq!(lines(&findings, Rule::StalePragma), [4], "{findings:?}");
    assert!(lines(&findings, Rule::UnorderedCollection).is_empty());
    assert_eq!(findings.len(), 1);
}

// ---------------------------------------------------------------------------
// Filesystem end-to-end: audit diffs, the ratchet, and the workspace gate.
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
fn injected_unsafe_reaching_fn_produces_a_ci_failing_diff() {
    let simd = "pub fn audited(p: *const f32) -> f32 {\n\
                \x20   // SAFETY: caller contract.\n\
                \x20   unsafe { *p }\n\
                }\n\
                \n\
                pub fn sneaky(p: *const f32) -> f32 {\n\
                \x20   audited(p)\n\
                }\n";
    // The checked-in inventory knows `audited` and a retired fn — so the
    // injected `sneaky` is an addition AND the inventory has a stale line;
    // both must gate (the ratchet file grants no headroom).
    let audit_txt =
        "# inventory\ncrates/exec/src/simd.rs::audited\ncrates/exec/src/simd.rs::retired\n";
    let (files, gate) = lint_temp_workspace(
        "inject",
        &[
            ("crates/exec/src/simd.rs", simd),
            ("crates/analysis/audit/unsafe_reach.txt", audit_txt),
            ("crates/analysis/audit/ratchet.txt", "unsafe-reach 0\n"),
        ],
    );
    assert_eq!(files, 1, "audit files are data, not scanned sources");
    assert_eq!(
        gate.len(),
        3,
        "addition + stale entry + ratchet summary: {gate:?}"
    );
    assert!(gate.iter().all(|f| f.rule == Rule::UnsafeReach));
    let add = gate.iter().find(|f| f.file.ends_with("simd.rs")).unwrap();
    assert_eq!(add.line, 6, "anchored at `pub fn sneaky`");
    assert!(add
        .message
        .contains("append `crates/exec/src/simd.rs::sneaky`"));
    let stale = gate.iter().find(|f| f.file == audit::UNSAFE_AUDIT).unwrap();
    assert!(stale.message.contains("retired"), "{}", stale.message);
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
fn unsafe_inventory_file_matches_the_computed_reach_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = mega_analysis::analyze_workspace(&root).expect("workspace scan");
    let checked_in = std::fs::read_to_string(root.join(audit::UNSAFE_AUDIT)).unwrap_or_default();
    let entries: Vec<&str> = checked_in
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert_eq!(
        entries, a.unsafe_reach,
        "regenerate with `mega-lint --workspace --update-audits`"
    );
    assert!(
        a.unsafe_reach
            .iter()
            .all(|e| e.starts_with("crates/exec/src/simd.rs::")),
        "unsafe must stay confined to the SIMD backend: {:?}",
        a.unsafe_reach
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
