//! The lint rules themselves.
//!
//! Each rule is a pure function over one scanned line (plus, for the unsafe
//! hygiene rules, the lines above it) and the file's workspace-relative
//! path. Path scoping is part of a rule's definition — e.g. `unsafe-scope`
//! exempts exactly `crates/exec/src/simd.rs`, and `obs-routing` exempts the
//! observability crate, benchmarks, examples, and tests — so the same
//! source text can be clean at one path and a violation at another.

use crate::scan::{self, Line};
use crate::{Finding, Rule};

/// The one file allowed to contain `unsafe` code.
const UNSAFE_HOME: &str = "crates/exec/src/simd.rs";

/// The one kernel file whose iterator float accumulations are audited and
/// allowlisted (documented ascending-order folds in layer/batch norm).
const REASSOC_ALLOWLIST: &str = "crates/exec/src/kernels.rs";

/// Identifier fragments that imply fused or horizontally-reduced float
/// arithmetic: FMA rounds once where mul-then-add rounds twice, and
/// horizontal adds / dot-product / reduce intrinsics fold lanes in a
/// tree order, so any of these silently breaks bit-exactness with the
/// reference backend.
const FMA_FRAGMENTS: [&str; 4] = ["fmadd", "fmsub", "hadd", "dp_ps"];

/// Iterator-adapter float accumulations whose fold order the optimizer may
/// re-associate; outside the allowlist they must be explicit ascending
/// index loops.
const REASSOC_PATTERNS: [&str; 4] = ["sum::<f32", "sum::<f64", "product::<f32", "product::<f64"];

/// Console macros that bypass the observability layer.
const PRINT_MACROS: [&str; 4] = ["println!", "eprintln!", "print!", "eprint!"];

/// Raw clock reads that bypass `mega_obs::Stopwatch` / `mega_obs::timer`.
const CLOCK_READS: [&str; 2] = ["Instant::now", "SystemTime::now"];

/// `src/` trees whose collections can reach numeric results or emitted
/// orderings, where seed-dependent `HashMap`/`HashSet` iteration would
/// break run-to-run determinism.
pub(crate) const ORDER_SENSITIVE: [&str; 11] = [
    "src/",
    "crates/graph/src/",
    "crates/core/src/",
    "crates/exec/src/",
    "crates/wl/src/",
    "crates/tensor/src/",
    "crates/gnn/src/",
    "crates/datasets/src/",
    "crates/gpu-sim/src/",
    "crates/dist/src/",
    "crates/cli/src/",
];

/// The audited fusion surface: the only places allowed to *define* fused
/// composite kernels. `crates/exec/src/` holds the kernels, backend
/// drivers, and `Backend` trait defaults; the tape holds
/// the recording/dispatch entry points; the GPU simulator models fused
/// launches without real arithmetic.
const FUSION_HOMES: [&str; 3] = [
    "crates/exec/src/",
    "crates/gpu-sim/src/",
    "crates/tensor/src/tape.rs",
];

/// Name fragments that mark a fused composite kernel: a GEMM with a
/// folded-in epilogue, a scaled add, or a normalization with a fused
/// activation. A `fn` whose name carries one of these implements (or
/// wraps) arithmetic whose bit-exactness proof must live with the audited
/// kernels, not in model or trainer code.
const FUSED_KERNEL_FRAGMENTS: [&str; 6] = [
    "linear_relu",
    "linear_leaky",
    "bias_relu",
    "bias_leaky",
    "axpy",
    "norm_act",
];

/// Runs every rule over the scanned file, appending raw (pre-suppression)
/// findings.
pub fn run(path: &str, lines: &[Line], findings: &mut Vec<Finding>) {
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        no_fma(path, lineno, line, findings);
        float_reassoc(path, lineno, line, findings);
        unsafe_hygiene(path, lineno, idx, lines, findings);
        obs_routing(path, lineno, line, findings);
        unordered_collection(path, lineno, line, findings);
        fusion_scope(path, lineno, line, findings);
        scope_escape(path, lineno, line, findings);
    }
}

fn emit(findings: &mut Vec<Finding>, path: &str, line: usize, rule: Rule, message: String) {
    findings.push(Finding {
        file: path.to_string(),
        line,
        rule,
        message,
    });
}

/// `no-fma`: applies to every file. Bit-exactness across backends depends
/// on every float op rounding exactly like the reference loops.
fn no_fma(path: &str, lineno: usize, line: &Line, findings: &mut Vec<Finding>) {
    for ident in scan::identifiers(&line.code) {
        let banned = ident == "mul_add"
            || FMA_FRAGMENTS.iter().any(|f| ident.contains(f))
            || (ident.starts_with("_mm") && ident.contains("reduce"));
        if banned {
            emit(
                findings,
                path,
                lineno,
                Rule::NoFma,
                format!(
                    "`{ident}` fuses or reorders float arithmetic; the bit-exactness \
                     contract requires separate mul/add folded in ascending order"
                ),
            );
        }
    }
}

/// `float-reassoc`: applies inside `crates/exec/src/` except the audited
/// kernels file.
fn float_reassoc(path: &str, lineno: usize, line: &Line, findings: &mut Vec<Finding>) {
    if !path.starts_with("crates/exec/src/") || path == REASSOC_ALLOWLIST {
        return;
    }
    for pat in REASSOC_PATTERNS {
        if scan::contains_token(&line.code, pat) {
            emit(
                findings,
                path,
                lineno,
                Rule::FloatReassoc,
                format!(
                    "iterator float accumulation `{pat}>()` outside the audited \
                     {REASSOC_ALLOWLIST} allowlist; write an explicit ascending-index fold"
                ),
            );
        }
    }
}

/// `unsafe-scope` + `undocumented-unsafe`: `unsafe` may appear only in the
/// SIMD backend, and every occurrence anywhere needs an adjacent
/// `// SAFETY:` comment.
fn unsafe_hygiene(
    path: &str,
    lineno: usize,
    idx: usize,
    lines: &[Line],
    findings: &mut Vec<Finding>,
) {
    if !scan::identifiers(&lines[idx].code).any(|id| id == "unsafe") {
        return;
    }
    if path != UNSAFE_HOME {
        emit(
            findings,
            path,
            lineno,
            Rule::UnsafeScope,
            format!("`unsafe` outside {UNSAFE_HOME}; the workspace confines unsafe code to the SIMD backend"),
        );
    }
    let mut documented = lines[idx].comment.contains("SAFETY:");
    let mut j = idx;
    while !documented && j > 0 {
        j -= 1;
        let above = &lines[j];
        if !above.is_comment_only() || above.comment.trim().is_empty() {
            break;
        }
        documented = above.comment.contains("SAFETY:");
    }
    if !documented {
        emit(
            findings,
            path,
            lineno,
            Rule::UndocumentedUnsafe,
            "`unsafe` without an adjacent `// SAFETY:` comment stating why the invariants hold"
                .to_string(),
        );
    }
}

fn obs_exempt(path: &str) -> bool {
    path.starts_with("crates/obs/")
        || path.starts_with("crates/bench/")
        || path.starts_with("crates/analysis/")
        || path.starts_with("examples/")
        || path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// `obs-routing`: console output and raw clock reads must go through
/// mega-obs (report macros; `Stopwatch`/`timer`) so tracing stays
/// centrally gated and uniformly formatted.
fn obs_routing(path: &str, lineno: usize, line: &Line, findings: &mut Vec<Finding>) {
    if obs_exempt(path) {
        return;
    }
    for pat in PRINT_MACROS {
        if scan::contains_token(&line.code, pat) {
            emit(
                findings,
                path,
                lineno,
                Rule::ObsRouting,
                format!("`{pat}` bypasses mega-obs; route output through the report macros"),
            );
        }
    }
    for pat in CLOCK_READS {
        if scan::contains_token(&line.code, pat) {
            emit(
                findings,
                path,
                lineno,
                Rule::ObsRouting,
                format!(
                    "raw `{pat}` bypasses mega-obs; use `mega_obs::Stopwatch` (always-on \
                     phase timing) or `mega_obs::timer()` (gated metrics)"
                ),
            );
        }
    }
}

/// `fusion-scope`: fused composite kernels may be defined only on the
/// audited fusion surface. Call sites (`backend.axpy(...)`) are free;
/// the rule fires on `fn` *definitions* whose name carries a fused-kernel
/// fragment, in result-affecting `src/` trees outside [`FUSION_HOMES`].
fn fusion_scope(path: &str, lineno: usize, line: &Line, findings: &mut Vec<Finding>) {
    if !ORDER_SENSITIVE.iter().any(|p| path.starts_with(p))
        || path.contains("/tests/")
        || FUSION_HOMES.iter().any(|p| path.starts_with(p))
    {
        return;
    }
    let mut prev_is_fn = false;
    for ident in scan::identifiers(&line.code) {
        if prev_is_fn {
            if let Some(frag) = FUSED_KERNEL_FRAGMENTS.iter().find(|f| ident.contains(**f)) {
                emit(
                    findings,
                    path,
                    lineno,
                    Rule::FusionScope,
                    format!(
                        "`fn {ident}` defines a fused composite kernel (`*{frag}*`) outside \
                         the audited fusion surface (crates/exec, the tape, the GPU \
                         simulator); route fused arithmetic through the `Backend` trait"
                    ),
                );
            }
        }
        prev_is_fn = ident == "fn";
    }
}

/// `unordered-collection`: seed-dependent iteration order is banned in
/// result-affecting crates unless a pragma argues the site is
/// order-insensitive.
fn unordered_collection(path: &str, lineno: usize, line: &Line, findings: &mut Vec<Finding>) {
    if !ORDER_SENSITIVE.iter().any(|p| path.starts_with(p)) || path.contains("/tests/") {
        return;
    }
    for ident in scan::identifiers(&line.code) {
        if ident == "HashMap" || ident == "HashSet" {
            emit(
                findings,
                path,
                lineno,
                Rule::UnorderedCollection,
                format!(
                    "`{ident}` iterates in seed-dependent order; use BTreeMap/BTreeSet/Vec, \
                     or suppress with a pragma stating why order cannot reach results"
                ),
            );
        }
    }
}

/// `scope-escape`: applies to every file. Every rule above is scoped by the
/// path a file lives at, so code compiled at another path — a
/// `#[path = ".."]` module or an `include!`d file — would be judged by the
/// wrong scope. `include_str!` and `include_bytes!` embed data, not code.
fn scope_escape(path: &str, lineno: usize, line: &Line, findings: &mut Vec<Finding>) {
    let compact: String = line.code.split_whitespace().collect();
    let what = if compact.contains("#[path=") {
        "#[path = ..]"
    } else if scan::contains_token(&line.code, "include!") {
        "include!(..)"
    } else {
        return;
    };
    emit(
        findings,
        path,
        lineno,
        Rule::ScopeEscape,
        format!(
            "`{what}` compiles code away from the path its rules are scoped by; \
             keep the code in the file the module tree names"
        ),
    );
}
