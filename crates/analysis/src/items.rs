//! `fn`-item extraction over the [`scan`](crate::scan) token stream.
//!
//! This is deliberately *not* a Rust parser. It walks a file's stripped
//! code channel with a brace-depth context stack (`fn` bodies and every
//! other `{ … }` block, `#[cfg(test)]` ones marked), records every `fn`
//! item it passes (name, definition line, test-ness) and the panic tokens
//! in its body — the facts the `panic-surface` rule reads.
//!
//! Extraction is total (no panics on arbitrary input) and deterministic
//! (output order follows source position).

use crate::scan::Line;

/// A panic token observed inside a function body.
#[derive(Debug, PartialEq, Eq)]
pub struct TokenSite {
    /// 1-based source line.
    pub line: usize,
    /// What was seen, e.g. `assert!` or `unwrap`.
    pub what: String,
}

/// One extracted `fn` item with its body facts.
#[derive(Debug, PartialEq, Eq)]
pub struct FnItem {
    /// Workspace-relative path: findings anchor here.
    pub file: String,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// The function's name.
    pub name: String,
    /// Under `#[cfg(test)]`, `#[test]`, or a `tests/` path.
    pub in_test: bool,
    /// Panic tokens (`panic!`, `assert!`, `.unwrap()`, ...) in source order.
    pub panics: Vec<TokenSite>,
}

/// Panic-producing macro names (matched as `name!`). `debug_assert*` is
/// deliberately absent: it compiles out of release builds, which is what
/// the hot-path audit cares about.
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Panic-producing method names (matched as `.name(`). Exact idents, so
/// `unwrap_or` / `expect_err` never fire.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

#[derive(Debug)]
enum Ctx {
    /// Any `{ … }` that is not a fn body: `mod`, `impl`, `trait`, a struct
    /// literal or a nested block. `test` marks one opened under a test
    /// attribute (`#[cfg(test)] mod tests {`).
    Block {
        test: bool,
    },
    Fn {
        idx: usize,
    },
}

#[derive(Debug)]
enum Pending {
    None,
    /// Saw `fn`, awaiting the name.
    FnName,
    /// Consuming the signature of `fns[idx]` until `{` (body) or `;`
    /// (declaration); `brackets` is the open `[` depth, inside which `;`
    /// is an array length (`[f32; 4]`), not the end of the item.
    FnSig {
        idx: usize,
        brackets: usize,
    },
}

#[derive(Debug, PartialEq)]
enum Tok {
    Ident(String),
    LBrace,
    RBrace,
    LParen,
    Semi,
    Bang,
    Dot,
    Other(char),
}

fn tokenize(code: &str) -> Vec<Tok> {
    let cs: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < cs.len() {
        let c = cs[i];
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < cs.len() && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
                i += 1;
            }
            out.push(Tok::Ident(cs[start..i].iter().collect()));
        } else if c.is_ascii_digit() {
            // Numeric literal: consume digits/idents plus a `.` only when a
            // digit follows, so tuple-field access like `x.0.unwrap()` keeps
            // its `.unwrap` tokens.
            while i < cs.len()
                && (cs[i].is_ascii_alphanumeric()
                    || cs[i] == '_'
                    || (cs[i] == '.' && cs.get(i + 1).is_some_and(char::is_ascii_digit)))
            {
                i += 1;
            }
        } else if c.is_whitespace() {
            i += 1;
        } else {
            out.push(match c {
                '{' => Tok::LBrace,
                '}' => Tok::RBrace,
                '(' => Tok::LParen,
                ';' => Tok::Semi,
                '!' => Tok::Bang,
                '.' => Tok::Dot,
                other => Tok::Other(other),
            });
            i += 1;
        }
    }
    out
}

/// Extracts every `fn` item in one file, in source order.
pub fn extract(file: &str, lines: &[Line]) -> Vec<FnItem> {
    let path_is_test = file.starts_with("tests/") || file.contains("/tests/");
    let mut fns: Vec<FnItem> = Vec::new();
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending = Pending::None;
    // A test attribute seen since the last item boundary.
    let mut test_attr = false;
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let trimmed = line.code.trim_start();
        if trimmed.starts_with("#[")
            && crate::scan::contains_token(trimmed, "test")
            && !trimmed.contains("not(test")
        {
            test_attr = true;
        }
        let toks = tokenize(&line.code);
        let mut after_dot = false;
        for (t, tok) in toks.iter().enumerate() {
            // Item-signature consumption takes priority over body scanning.
            match std::mem::replace(&mut pending, Pending::None) {
                Pending::FnName => {
                    if let Tok::Ident(w) = tok {
                        let in_block_test =
                            stack.iter().any(|c| matches!(c, Ctx::Block { test: true }));
                        fns.push(FnItem {
                            file: file.to_string(),
                            line: lineno,
                            name: w.clone(),
                            in_test: test_attr || path_is_test || in_block_test,
                            panics: Vec::new(),
                        });
                        test_attr = false;
                        pending = Pending::FnSig {
                            idx: fns.len() - 1,
                            brackets: 0,
                        };
                        continue;
                    }
                    // Not an item fn (fn-pointer type); fall through.
                }
                Pending::FnSig { idx, brackets } => {
                    let brackets = match tok {
                        Tok::LBrace => {
                            stack.push(Ctx::Fn { idx });
                            continue;
                        }
                        Tok::Semi if brackets == 0 => continue,
                        Tok::Other('[') => brackets + 1,
                        Tok::Other(']') => brackets.saturating_sub(1),
                        _ => brackets,
                    };
                    pending = Pending::FnSig { idx, brackets };
                    continue;
                }
                Pending::None => {}
            }
            // Body / top-level scanning.
            match tok {
                Tok::Ident(w) if w == "fn" => pending = Pending::FnName,
                Tok::Ident(w) => {
                    let what = match toks.get(t + 1) {
                        Some(Tok::Bang) if PANIC_MACROS.contains(&w.as_str()) => {
                            Some(format!("{w}!"))
                        }
                        Some(Tok::LParen) if after_dot && PANIC_METHODS.contains(&w.as_str()) => {
                            Some(w.clone())
                        }
                        _ => None,
                    };
                    // The innermost enclosing fn body, if any.
                    let body = stack.iter().rev().find_map(|c| match c {
                        Ctx::Fn { idx } => Some(*idx),
                        Ctx::Block { .. } => None,
                    });
                    if let (Some(what), Some(i)) = (what, body) {
                        fns[i].panics.push(TokenSite { line: lineno, what });
                    }
                }
                Tok::LBrace => {
                    stack.push(Ctx::Block { test: test_attr });
                    test_attr = false;
                }
                Tok::RBrace => {
                    stack.pop();
                    test_attr = false;
                }
                Tok::Semi => test_attr = false,
                _ => {}
            }
            after_dot = *tok == Tok::Dot;
        }
    }
    fns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::strip;

    fn items_of(src: &str) -> Vec<FnItem> {
        extract("crates/core/src/a.rs", &strip(src))
    }

    fn by_name<'a>(fns: &'a [FnItem], name: &str) -> &'a FnItem {
        fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn extracts_items_in_impls_traits_and_declarations() {
        let fns = items_of(
            "pub fn free() {}\nstruct S;\nimpl S { fn m(&self) {} pub fn p(&self) {} }\n\
             trait T { fn d(&self) { self.m() } fn decl(&self); }\n\
             impl T for S { fn decl(&self) {} }\n",
        );
        let names: Vec<(&str, usize)> = fns.iter().map(|f| (f.name.as_str(), f.line)).collect();
        assert_eq!(
            names,
            [
                ("free", 1),
                ("m", 3),
                ("p", 3),
                ("d", 4),
                ("decl", 4),
                ("decl", 5)
            ]
        );
    }

    #[test]
    fn body_facts_are_collected() {
        let fns = items_of(
            "pub fn f(x: Option<u32>) -> u32 {\n\
                 assert!(x.is_some());\n\
                 debug_assert!(true);\n\
                 x.unwrap_or(0) + x.expect(\"set\")\n\
             }\n\
             pub fn b() { let x: Option<u32> = None; x.unwrap(); }\n\
             pub fn arr(rows: [&[f32]; 2]) -> [u8; 4] { todo!() }\n\
             pub fn bare() { unwrap(); }\n",
        );
        let f = by_name(&fns, "f");
        let what: Vec<&str> = f.panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(
            what,
            ["assert!", "expect"],
            "debug_assert and unwrap_or never fire"
        );
        assert_eq!(f.panics[0].line, 2);
        assert_eq!(by_name(&fns, "b").panics[0].what, "unwrap");
        assert_eq!(
            by_name(&fns, "arr").panics.len(),
            1,
            "`;` in an array type ends no signature"
        );
        assert!(by_name(&fns, "bare").panics.is_empty(), "only `.unwrap(`");
    }

    #[test]
    fn cfg_test_and_test_paths_mark_items() {
        let fns = items_of(
            "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { prod(); }\n    \
             fn helper() {}\n}\n#[cfg(test)]\nimpl S {\n    fn a() {}\n    fn b() {}\n}\n\
             pub fn after() {}\n",
        );
        let marked: Vec<(&str, bool)> = fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(
            marked,
            [
                ("prod", false),
                ("t", true),
                ("helper", true),
                ("a", true),
                ("b", true),
                ("after", false)
            ]
        );
        let in_tests_dir = extract("crates/core/tests/it.rs", &strip("fn helper() {}\n"));
        assert!(in_tests_dir[0].in_test);
    }

    #[test]
    fn extraction_is_total_on_garbage() {
        let fns = items_of("}}}} fn ( impl { trait ; :: . ! fn fn unsafe {{ mod\n");
        let _ = fns.len();
    }
}
