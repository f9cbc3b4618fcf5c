//! Inline suppression pragmas.
//!
//! A finding is suppressed by a comment of the form
//! `// mega-lint: allow(unordered-collection, reason = "lookup only")` —
//! the rule id names which rule to silence and the reason string is
//! mandatory and non-empty, so every suppression carries its justification
//! into the source. A pragma silences its own line; when the pragma line
//! carries no code (comment-only), it silences the following line instead,
//! which is the usual "pragma above the offending statement" shape.
//!
//! Anything that *looks* like a pragma but does not parse — wrong shape,
//! unknown rule id, missing or empty reason — is itself reported under the
//! `bad-pragma` rule, so a typo cannot silently disable enforcement.
//! `bad-pragma` findings are never suppressible, and neither are
//! `scope-escape` ones.
//!
//! Every valid pragma tracks whether it actually did something: suppressed
//! at least one finding, or served as a determinism-taint propagation
//! boundary. A pragma that did neither is reported under `stale-pragma`
//! (also never suppressible), so suppressions cannot outlive the code they
//! excused.

use crate::scan::Line;
use crate::{Finding, Rule};
use std::cell::Cell;

const MARKER: &str = "mega-lint:";

/// One parsed pragma with its usage flag.
#[derive(Debug)]
struct Pragma {
    /// 1-based line the pragma comment sits on.
    line: usize,
    rule: Rule,
    /// Comment-only pragmas also cover the following line.
    covers_next: bool,
    used: Cell<bool>,
}

impl Pragma {
    fn covers(&self, line: usize) -> bool {
        line == self.line || (self.covers_next && line == self.line + 1)
    }
}

/// The set of pragmas collected from one file.
#[derive(Debug, Default)]
pub struct Suppressions {
    pragmas: Vec<Pragma>,
}

impl Suppressions {
    /// True when `rule` findings on 1-based `line` are silenced; marks the
    /// covering pragma as used.
    pub fn covers(&self, line: usize, rule: Rule) -> bool {
        if !rule.suppressible() {
            return false;
        }
        let mut hit = false;
        for p in &self.pragmas {
            if p.rule == rule && p.covers(line) {
                p.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Like [`Suppressions::covers`] but without marking usage — for rules
    /// that need to *ask* about coverage while deciding whether a site
    /// fires at all (e.g. taint boundaries).
    pub fn covers_peek(&self, line: usize, rule: Rule) -> bool {
        rule.suppressible()
            && self
                .pragmas
                .iter()
                .any(|p| p.rule == rule && p.covers(line))
    }

    /// Marks the pragma covering `(line, rule)` as used without consuming a
    /// finding — the taint rule calls this when a boundary pragma actually
    /// intercepts propagation.
    pub fn mark_used(&self, line: usize, rule: Rule) {
        for p in &self.pragmas {
            if p.rule == rule && p.covers(line) {
                p.used.set(true);
            }
        }
    }

    /// `(line, rule)` of every pragma that neither suppressed a finding nor
    /// acted as a boundary. Call after all rules have filtered.
    pub fn stale(&self) -> Vec<(usize, Rule)> {
        self.pragmas
            .iter()
            .filter(|p| !p.used.get())
            .map(|p| (p.line, p.rule))
            .collect()
    }
}

/// Scans every comment for pragmas; returns the suppression set plus a
/// `bad-pragma` finding for each malformed one.
pub fn collect(path: &str, lines: &[Line]) -> (Suppressions, Vec<Finding>) {
    let mut sup = Suppressions::default();
    let mut bad = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if line.doc {
            // Doc comments *describe* pragmas (rule docs quote the syntax
            // verbatim); they never issue one.
            continue;
        }
        let Some(pos) = line.comment.find(MARKER) else {
            continue;
        };
        match parse(&line.comment[pos + MARKER.len()..]) {
            Ok(rule) => sup.pragmas.push(Pragma {
                line: lineno,
                rule,
                covers_next: line.is_comment_only(),
                used: Cell::new(false),
            }),
            Err(why) => bad.push(Finding {
                file: path.to_string(),
                line: lineno,
                rule: Rule::BadPragma,
                message: why,
            }),
        }
    }
    (sup, bad)
}

/// Parses the text after the pragma marker into the rule it allows.
fn parse(text: &str) -> Result<Rule, String> {
    const SHAPE: &str = "pragma must be `mega-lint: allow(<rule>, reason = \"...\")`";
    let body = text
        .trim_start()
        .strip_prefix("allow")
        .ok_or(SHAPE)?
        .trim_start()
        .strip_prefix('(')
        .ok_or(SHAPE)?;
    let inner = &body[..body.rfind(')').ok_or(SHAPE)?];
    let (rule_name, rest) = inner.split_once(',').ok_or(SHAPE)?;
    let rule = Rule::from_id(rule_name.trim())
        .ok_or_else(|| format!("pragma names unknown rule `{}`", rule_name.trim()))?;
    if !rule.suppressible() {
        return Err(format!("`{}` findings are never suppressible", rule.id()));
    }
    let reason = rest
        .trim()
        .strip_prefix("reason")
        .ok_or(SHAPE)?
        .trim_start()
        .strip_prefix('=')
        .ok_or(SHAPE)?
        .trim_start()
        .strip_prefix('"')
        .ok_or(SHAPE)?;
    let quoted = &reason[..reason.rfind('"').ok_or(SHAPE)?];
    if quoted.trim().is_empty() {
        return Err("pragma reason must not be empty".to_string());
    }
    Ok(rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::strip;

    #[test]
    fn valid_pragma_covers_own_and_next_line() {
        let lines = strip(
            "// mega-lint: allow(unordered-collection, reason = \"membership only\")\nlet x = 1;",
        );
        let (sup, bad) = collect("f.rs", &lines);
        assert!(bad.is_empty());
        assert!(sup.covers(1, Rule::UnorderedCollection));
        assert!(sup.covers(2, Rule::UnorderedCollection));
        assert!(!sup.covers(2, Rule::NoFma));
        assert!(!sup.covers(3, Rule::UnorderedCollection));
    }

    #[test]
    fn trailing_pragma_covers_only_its_line() {
        let lines =
            strip("let x = 1; // mega-lint: allow(obs-routing, reason = \"usage text\")\nnext();");
        let (sup, _) = collect("f.rs", &lines);
        assert!(sup.covers(1, Rule::ObsRouting));
        assert!(!sup.covers(2, Rule::ObsRouting));
    }

    #[test]
    fn malformed_pragmas_are_reported() {
        let src = "// mega-lint: allow(no-fma)\n// mega-lint: allow(not-a-rule, reason = \"x\")\n// mega-lint: allow(no-fma, reason = \"\")";
        let (sup, bad) = collect("f.rs", &strip(src));
        assert_eq!(bad.len(), 3);
        assert!(bad.iter().all(|f| f.rule == Rule::BadPragma));
        assert!(bad[1].message.contains("unknown rule"));
        assert!(bad[2].message.contains("must not be empty"));
        assert!(!sup.covers(1, Rule::NoFma));
        assert!(!sup.covers(2, Rule::NoFma));
    }

    #[test]
    fn doc_comment_pragma_examples_are_inert() {
        let src = "//! e.g. `// mega-lint: allow(no-fma, reason = \"x\")`\n\
                   /// also `// mega-lint: allow(bogus-rule)`\n\
                   /** and `mega-lint: allow(no-fma)` in block docs */";
        let (sup, bad) = collect("f.rs", &strip(src));
        assert!(bad.is_empty(), "doc examples are not bad pragmas: {bad:?}");
        assert!(sup.stale().is_empty(), "and never become stale pragmas");
        assert!(!sup.covers_peek(1, Rule::NoFma));
    }

    #[test]
    fn pragma_inside_string_literal_is_inert() {
        let lines = strip("let s = \"mega-lint: allow(no-fma)\";");
        let (_, bad) = collect("f.rs", &lines);
        assert!(bad.is_empty());
    }

    #[test]
    fn bad_pragma_is_never_suppressible() {
        let lines = strip("// mega-lint: allow(bad-pragma, reason = \"nice try\")");
        let (sup, bad) = collect("f.rs", &lines);
        assert_eq!(bad.len(), 1);
        assert!(bad[0].message.contains("never suppressible"));
        assert!(!sup.covers(1, Rule::BadPragma));
    }

    #[test]
    fn usage_tracking_surfaces_stale_pragmas() {
        let src = "// mega-lint: allow(no-fma, reason = \"audited\")\nlet a = 1;\n\
                   x(); // mega-lint: allow(obs-routing, reason = \"usage\")";
        let (sup, _) = collect("f.rs", &strip(src));
        assert_eq!(
            sup.stale(),
            vec![(1, Rule::NoFma), (3, Rule::ObsRouting)],
            "nothing consumed yet"
        );
        assert!(sup.covers(2, Rule::NoFma));
        assert_eq!(sup.stale(), vec![(3, Rule::ObsRouting)]);
        assert!(!sup.covers_peek(4, Rule::ObsRouting));
        assert!(
            sup.covers_peek(3, Rule::ObsRouting),
            "peek does not consume"
        );
        assert_eq!(sup.stale(), vec![(3, Rule::ObsRouting)]);
        sup.mark_used(3, Rule::ObsRouting);
        assert!(sup.stale().is_empty());
    }
}
