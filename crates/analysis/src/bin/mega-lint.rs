//! `mega-lint` — the workspace invariant linter.
//!
//! Usage: `cargo run -p mega-analysis --bin mega-lint -- --workspace`
//!
//! Scans every Rust source in the workspace against the rule catalog in
//! `mega_analysis::Rule` — token rules, the hot-file `panic-surface`
//! audit, and the pragma rules — prints findings as
//! `file:line: [rule] message`, applies the checked-in ratchet baselines,
//! and exits non-zero when anything gates — which is how CI turns the
//! project invariants into a merge gate.

use mega_analysis::{audit, render_json, Analysis};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: mega-lint --workspace [--root <dir>] [--format text|json] [--update-audits]

Lints every Rust source in the workspace against the MEGA invariant rules
(bit-exactness, unsafe hygiene, obs routing, ordered collections, panics in
the hot kernel files). Exits 1 when any finding survives suppression pragmas
and the ratchet baselines, 2 on usage errors.

  --workspace       lint the enclosing cargo workspace (required)
  --root <dir>      use <dir> as the workspace root instead of discovering
                    it from the current directory
  --format <fmt>    output format: text (default) or json (full analysis,
                    including ratchet-tolerated findings)
  --update-audits   lower each ratchet baseline in
                    crates/analysis/audit/ratchet.txt to its current count;
                    review the diff before committing
";

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut update = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--update-audits" => update = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a directory"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                Some(other) => {
                    return usage_error(&format!("unknown format `{other}` (text|json)"))
                }
                None => return usage_error("--format needs text or json"),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return usage_error("pass --workspace");
    }

    let root = match root {
        Some(dir) => dir,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match mega_analysis::find_workspace_root(&cwd) {
                Some(dir) => dir,
                None => {
                    eprintln!("mega-lint: no workspace Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let analysis = match mega_analysis::analyze_workspace(&root) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("mega-lint: failed to scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    if update {
        if let Err(err) = write_audits(&root, &analysis) {
            eprintln!("mega-lint: failed to update audit files: {err}");
            return ExitCode::from(2);
        }
        println!("mega-lint: refreshed {}", audit::RATCHET_FILE);
        return ExitCode::SUCCESS;
    }

    if json {
        print!("{}", render_json(&analysis));
        return if analysis.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let gate = analysis.gate();
    for r in &analysis.ratchet {
        if r.count < r.baseline {
            println!(
                "mega-lint: note: `{}` is at {} findings, below its baseline of {} — \
                 tighten {} to lock the progress in",
                r.rule.id(),
                r.count,
                r.baseline,
                audit::RATCHET_FILE,
            );
        }
    }
    if gate.is_empty() {
        println!("mega-lint: clean — {} files checked", analysis.files);
        ExitCode::SUCCESS
    } else {
        for finding in &gate {
            println!("{finding}");
        }
        println!(
            "mega-lint: {} finding(s) in {} files checked",
            gate.len(),
            analysis.files
        );
        ExitCode::from(1)
    }
}

/// Lowers any ratchet baseline that the current count has dropped below.
/// Baselines are never raised here: adding headroom is a reviewed, manual
/// edit.
fn write_audits(root: &std::path::Path, a: &Analysis) -> std::io::Result<()> {
    let ratchet_path = root.join(audit::RATCHET_FILE);
    if ratchet_path.exists() {
        let old = std::fs::read_to_string(&ratchet_path)?;
        let mut out = String::new();
        for line in old.lines() {
            let trimmed = line.trim();
            let rewritten = trimmed.split_once(char::is_whitespace).and_then(|(id, _)| {
                let rule = mega_analysis::Rule::from_id(id.trim())?;
                let status = a.ratchet.iter().find(|r| r.rule == rule)?;
                (status.count < status.baseline).then(|| format!("{} {}", rule.id(), status.count))
            });
            out.push_str(&rewritten.unwrap_or_else(|| line.to_string()));
            out.push('\n');
        }
        std::fs::write(&ratchet_path, out)?;
    }
    Ok(())
}

fn usage_error(why: &str) -> ExitCode {
    eprintln!("mega-lint: {why}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
