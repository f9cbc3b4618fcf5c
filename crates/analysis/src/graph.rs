//! Workspace call-graph extraction over the [`scan`](crate::scan) token
//! stream.
//!
//! This is deliberately *not* a Rust parser. It walks each file's stripped
//! code channel with a brace-depth context stack (`mod` / `impl` / `trait`
//! / `fn`), records every `fn` item it passes (name, owner type, pub-ness,
//! definition line), and collects per-body facts: call sites (bare,
//! `path::qualified`, and `.method(...)` syntax) and panic tokens — the
//! two facts the `panic-surface` audit reads. Name resolution is heuristic
//! and documented per edge kind in [`Graph::build`]; the audit is designed
//! so the approximation over-reaches rather than misses (see DESIGN.md §9).
//!
//! Extraction is total (no panics on arbitrary input), deterministic
//! (output order follows file order and source position), and cycle-safe
//! (reachability is BFS with a visited set).

use crate::scan::Line;
use std::collections::{BTreeMap, BTreeSet};

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name: the last path segment before the `(`.
    pub name: String,
    /// Qualifier segments before the name (`a::b::name` → `["a", "b"]`);
    /// empty for bare calls.
    pub path: Vec<String>,
    /// True for `.name(...)` method syntax.
    pub method: bool,
}

/// A panic token observed inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenSite {
    /// 1-based source line.
    pub line: usize,
    /// What was seen, e.g. `assert!` or `unwrap`.
    pub what: String,
}

/// One extracted `fn` item with its body facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Workspace-relative path: findings anchor here and path-scoped
    /// rules decide by it.
    pub file: String,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` type or `trait` name, if any.
    pub owner: Option<String>,
    /// Declared `pub`, or a trait / trait-impl item (public API either way).
    pub is_pub: bool,
    /// Under `#[cfg(test)]`, `#[test]`, or a `tests/` path.
    pub in_test: bool,
    /// False for body-less trait method declarations.
    pub has_body: bool,
    /// Call sites in source order.
    pub calls: Vec<CallSite>,
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

/// Keywords and keyword-like tokens that must never become call edges even
/// when followed by `(`.
const NON_CALL_WORDS: [&str; 24] = [
    "if", "else", "while", "for", "match", "loop", "return", "in", "as", "move", "unsafe", "pub",
    "crate", "super", "self", "Self", "fn", "let", "mut", "ref", "where", "dyn", "box", "await",
];

/// Ubiquitous std-prelude method names. `.name(` edges for these are not
/// resolved against workspace items: nearly every occurrence is a std call,
/// and resolving them would wire unrelated impls together. A workspace fn
/// sharing one of these names is still reached through bare or qualified
/// calls.
const STD_METHODS: [&str; 88] = [
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "enumerate",
    "zip",
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "flatten",
    "collect",
    "cloned",
    "copied",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "clone",
    "to_vec",
    "to_string",
    "to_owned",
    "fill",
    "copy_from_slice",
    "clone_from_slice",
    "split_at",
    "split_at_mut",
    "chunks_exact",
    "windows",
    "max",
    "min",
    "abs",
    "sqrt",
    "exp",
    "ln",
    "powi",
    "powf",
    "floor",
    "ceil",
    "round",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "checked_sub",
    "checked_add",
    "partition_point",
    "binary_search",
    "with_capacity",
    "reserve",
    "extend",
    "extend_from_slice",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "keys",
    "values",
    "contains",
    "contains_key",
    "starts_with",
    "ends_with",
    "find",
    "position",
    "any",
    "all",
    "fold",
    "rev",
    "sum",
    "product",
    "count",
    "last",
    "first",
    "next",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_err",
    "map_or",
    "and_then",
    "or_else",
    "ok_or",
    "ok_or_else",
    "as_ref",
    "as_mut",
    "parse",
];

/// The workspace call graph: extracted items plus resolved edges.
#[derive(Debug, Default)]
pub struct Graph {
    /// Every extracted `fn`, ordered by file then source position.
    pub fns: Vec<FnItem>,
    /// All resolved edges per caller (bare + qualified + method syntax).
    pub edges: Vec<Vec<usize>>,
}

impl Graph {
    /// Extracts items from `(path, lines)` file records and
    /// resolves call edges.
    ///
    /// Resolution per call kind:
    /// - **qualified** `q::name(` — candidates are fns named `name` whose
    ///   owner type, module file stem, or crate ident matches the last
    ///   qualifier segment (`Self` maps to the caller's owner; leading
    ///   `crate`/`self`/`super` are dropped).
    /// - **bare** `name(` — a fn named `name` in the same file,
    ///   else in the same crate, else a globally unique match. The
    ///   cross-file fallbacks skip `STD_METHODS` names so `min(a, b)`
    ///   with `use std::cmp::min` never wires to an unrelated crate.
    /// - **method** `.name(` — every impl/trait fn named `name` (skipping
    ///   `STD_METHODS`); deliberately an over-approximation, bounded by
    ///   the audit's exempt crates.
    pub fn build(files: &[(&str, &[Line])]) -> Graph {
        let mut fns = Vec::new();
        for (file, lines) in files {
            extract(file, lines, &mut fns);
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
        }
        let mut edges = Vec::with_capacity(fns.len());
        for f in &fns {
            let mut all = BTreeSet::new();
            for c in &f.calls {
                let cands = by_name.get(c.name.as_str()).map_or(&[][..], Vec::as_slice);
                if c.method {
                    if STD_METHODS.contains(&c.name.as_str()) {
                        continue;
                    }
                    all.extend(cands.iter().filter(|&&j| fns[j].owner.is_some()));
                } else if c.path.is_empty() {
                    resolve_bare(&fns, f, &c.name, cands, &mut all);
                } else {
                    resolve_qualified(&fns, f, &c.path, cands, &mut all);
                }
            }
            edges.push(all.into_iter().collect());
        }
        Graph { fns, edges }
    }

    /// BFS closure over `edges` from `seeds`, skipping expansion through
    /// nodes where `block` returns true (blocked nodes are still *reached*,
    /// they just don't propagate). Returns a parent array: `Some(p)` marks
    /// a reached node discovered from `p` (seeds point at themselves).
    /// Total and cycle-safe: each node is queued at most once.
    pub fn reach(
        &self,
        seeds: impl IntoIterator<Item = usize>,
        block: impl Fn(usize) -> bool,
    ) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.edges.len()];
        let mut queue = std::collections::VecDeque::new();
        for s in seeds {
            if s < self.edges.len() && parent[s].is_none() {
                parent[s] = Some(s);
                queue.push_back(s);
            }
        }
        while let Some(i) = queue.pop_front() {
            if block(i) && parent[i] != Some(i) {
                continue;
            }
            for &j in &self.edges[i] {
                if parent[j].is_none() {
                    parent[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        parent
    }

    /// Renders the call chain from a reached node back to its BFS seed as
    /// `a → b → c` using fn names.
    pub fn chain(&self, parents: &[Option<usize>], mut at: usize) -> String {
        let mut names = vec![self.fns[at].name.clone()];
        let mut hops = 0;
        while let Some(p) = parents[at] {
            if p == at || hops > 64 {
                break;
            }
            names.push(self.fns[p].name.clone());
            at = p;
            hops += 1;
        }
        names.reverse();
        names.join(" → ")
    }
}

fn resolve_bare(
    fns: &[FnItem],
    caller: &FnItem,
    name: &str,
    cands: &[usize],
    all: &mut BTreeSet<usize>,
) {
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&j| fns[j].file == caller.file)
        .collect();
    let hit: Vec<usize> = if !same_file.is_empty() {
        same_file
    } else if STD_METHODS.contains(&name) {
        Vec::new()
    } else {
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&j| crate_dir(&fns[j].file) == crate_dir(&caller.file))
            .collect();
        if !same_crate.is_empty() {
            same_crate
        } else if cands.len() == 1 {
            cands.to_vec()
        } else {
            Vec::new()
        }
    };
    all.extend(hit);
}

fn resolve_qualified(
    fns: &[FnItem],
    caller: &FnItem,
    path: &[String],
    cands: &[usize],
    all: &mut BTreeSet<usize>,
) {
    let segs: Vec<&str> = path
        .iter()
        .map(|s| {
            if s == "Self" {
                caller.owner.as_deref().unwrap_or("Self")
            } else {
                s.as_str()
            }
        })
        .filter(|s| !matches!(*s, "crate" | "self" | "super"))
        .collect();
    let Some(&last) = segs.last() else {
        // `crate::name(...)`-style: behaves like a bare same-crate call.
        all.extend(
            cands
                .iter()
                .copied()
                .filter(|&j| crate_dir(&fns[j].file) == crate_dir(&caller.file)),
        );
        return;
    };
    for &j in cands {
        let g = &fns[j];
        let hit = g.owner.as_deref() == Some(last)
            || file_stem(&g.file) == last
            || crate_ident(&g.file) == last;
        if hit {
            all.insert(j);
        }
    }
}

/// `crates/exec/src/kernels.rs` → `crates/exec`; `src/lib.rs` → `.`.
fn crate_dir(path: &str) -> &str {
    match path.find("/src/") {
        Some(p) if path.starts_with("crates/") => &path[..p],
        _ if path.starts_with("src/") || path.starts_with("tests/") => ".",
        _ => path,
    }
}

/// `crates/exec/src/kernels.rs` → `kernels`.
fn file_stem(path: &str) -> &str {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.strip_suffix(".rs").unwrap_or(base)
}

/// The ident a crate is referenced by in paths:
/// `crates/gpu-sim` → `mega_gpu_sim`, the root crate → `mega`.
fn crate_ident(path: &str) -> String {
    let dir = crate_dir(path);
    match dir.strip_prefix("crates/") {
        Some(name) => format!("mega_{}", name.replace('-', "_")),
        None => "mega".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Ctx {
    Block,
    Mod { test: bool },
    Owner { name: String, is_trait: bool },
    Fn { idx: usize },
}

#[derive(Debug)]
enum Pending {
    None,
    /// Saw `fn`, awaiting the name.
    FnName,
    /// Consuming a signature until `{` (body) or `;` (declaration); the
    /// count is the open `[` depth, inside which `;` is an array length
    /// (`[f32; 4]`), not the end of the item.
    FnSig(Box<FnItem>, usize),
    /// Saw `mod`, awaiting the name.
    ModName,
    /// Saw `mod name`, awaiting `{` or `;`.
    ModBody {
        test: bool,
    },
    /// Accumulating an `impl` header until `{`.
    ImplHeader(String),
    /// Saw `trait`, awaiting the name.
    TraitName,
    /// Saw `trait Name`, consuming bounds until `{`.
    TraitBody(String),
}

#[derive(Debug, Default)]
struct Carry {
    is_pub: bool,
    is_test: bool,
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Prev {
    PathSep,
    Dot,
    Other,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    LBrace,
    RBrace,
    LParen,
    Semi,
    Bang,
    PathSep,
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
            // digit follows, so tuple-field access like `x.0.iter()` keeps
            // its `.iter` tokens.
            while i < cs.len()
                && (cs[i].is_ascii_alphanumeric()
                    || cs[i] == '_'
                    || (cs[i] == '.' && cs.get(i + 1).is_some_and(char::is_ascii_digit)))
            {
                i += 1;
            }
        } else if c == ':' && cs.get(i + 1) == Some(&':') {
            out.push(Tok::PathSep);
            i += 2;
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

struct Extractor<'a> {
    file: &'a str,
    path_is_test: bool,
    stack: Vec<Ctx>,
    pending: Pending,
    carry: Carry,
}

impl<'a> Extractor<'a> {
    fn innermost_fn(&self) -> Option<usize> {
        self.stack.iter().rev().find_map(|c| match c {
            Ctx::Fn { idx } => Some(*idx),
            _ => None,
        })
    }

    fn in_test_ctx(&self) -> bool {
        self.path_is_test
            || self
                .stack
                .iter()
                .any(|c| matches!(c, Ctx::Mod { test: true }))
    }

    fn owner_ctx(&self) -> (Option<String>, bool) {
        for c in self.stack.iter().rev() {
            if let Ctx::Owner { name, is_trait } = c {
                return (Some(name.clone()), *is_trait);
            }
        }
        (None, false)
    }
}

/// Extracts every `fn` item in one file, appending to `fns`.
fn extract(file: &str, lines: &[Line], fns: &mut Vec<FnItem>) {
    let mut ex = Extractor {
        file,
        path_is_test: file.starts_with("tests/") || file.contains("/tests/"),
        stack: Vec::new(),
        pending: Pending::None,
        carry: Carry::default(),
    };
    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let trimmed = line.code.trim_start();
        if trimmed.starts_with("#[")
            && crate::scan::contains_token(trimmed, "test")
            && !trimmed.contains("not(test")
        {
            ex.carry.is_test = true;
        }
        let toks = tokenize(&line.code);
        let mut prev = Prev::Other;
        let mut path_buf: Vec<String> = Vec::new();
        let mut path_method = false;
        let mut t = 0;
        while t < toks.len() {
            let tok = &toks[t];
            // Item-signature consumption takes priority over body scanning.
            match std::mem::replace(&mut ex.pending, Pending::None) {
                Pending::FnName => {
                    if let Tok::Ident(w) = tok {
                        let (owner, is_trait) = ex.owner_ctx();
                        let item = FnItem {
                            file: ex.file.to_string(),
                            line: lineno,
                            name: w.clone(),
                            owner,
                            is_pub: ex.carry.is_pub || is_trait,
                            in_test: ex.carry.is_test || ex.in_test_ctx(),
                            has_body: false,
                            calls: Vec::new(),
                            panics: Vec::new(),
                        };
                        ex.carry = Carry::default();
                        ex.pending = Pending::FnSig(Box::new(item), 0);
                        t += 1;
                        continue;
                    }
                    // Not an item fn (fn-pointer type); fall through.
                }
                Pending::FnSig(mut item, brackets) => match tok {
                    Tok::LBrace => {
                        item.has_body = true;
                        let idx = fns.len();
                        fns.push(*item);
                        ex.stack.push(Ctx::Fn { idx });
                        t += 1;
                        continue;
                    }
                    Tok::Semi if brackets == 0 => {
                        fns.push(*item);
                        t += 1;
                        continue;
                    }
                    other => {
                        let brackets = match other {
                            Tok::Other('[') => brackets + 1,
                            Tok::Other(']') => brackets.saturating_sub(1),
                            _ => brackets,
                        };
                        ex.pending = Pending::FnSig(item, brackets);
                        t += 1;
                        continue;
                    }
                },
                Pending::ModName => {
                    if let Tok::Ident(_) = tok {
                        ex.pending = Pending::ModBody {
                            test: ex.carry.is_test,
                        };
                        ex.carry = Carry::default();
                        t += 1;
                        continue;
                    }
                }
                Pending::ModBody { test } => match tok {
                    Tok::LBrace => {
                        ex.stack.push(Ctx::Mod { test });
                        t += 1;
                        continue;
                    }
                    Tok::Semi => {
                        t += 1;
                        continue;
                    }
                    _ => {
                        ex.pending = Pending::ModBody { test };
                        t += 1;
                        continue;
                    }
                },
                Pending::ImplHeader(mut text) => match tok {
                    Tok::LBrace => {
                        let (owner, is_trait) = parse_impl_header(&text);
                        match owner {
                            Some(name) => ex.stack.push(Ctx::Owner { name, is_trait }),
                            None => ex.stack.push(Ctx::Block),
                        }
                        ex.carry = Carry::default();
                        t += 1;
                        continue;
                    }
                    Tok::Semi => {
                        ex.carry = Carry::default();
                        t += 1;
                        continue;
                    }
                    other => {
                        push_tok_text(&mut text, other);
                        ex.pending = Pending::ImplHeader(text);
                        t += 1;
                        continue;
                    }
                },
                Pending::TraitName => {
                    if let Tok::Ident(w) = tok {
                        ex.pending = Pending::TraitBody(w.clone());
                        ex.carry = Carry::default();
                        t += 1;
                        continue;
                    }
                }
                Pending::TraitBody(name) => match tok {
                    Tok::LBrace => {
                        ex.stack.push(Ctx::Owner {
                            name,
                            is_trait: true,
                        });
                        t += 1;
                        continue;
                    }
                    Tok::Semi => {
                        t += 1;
                        continue;
                    }
                    _ => {
                        ex.pending = Pending::TraitBody(name);
                        t += 1;
                        continue;
                    }
                },
                Pending::None => {}
            }
            // Body / top-level scanning.
            match tok {
                Tok::Ident(w) => {
                    let next = toks.get(t + 1);
                    match w.as_str() {
                        "fn" => ex.pending = Pending::FnName,
                        "mod" if matches!(next, Some(Tok::Ident(_))) => {
                            ex.pending = Pending::ModName;
                        }
                        "impl" => ex.pending = Pending::ImplHeader(String::new()),
                        "trait" if matches!(next, Some(Tok::Ident(_))) => {
                            ex.pending = Pending::TraitName;
                        }
                        "pub" => ex.carry.is_pub = true,
                        _ => {
                            if prev == Prev::PathSep {
                                path_buf.push(w.clone());
                            } else {
                                path_buf = vec![w.clone()];
                                path_method = prev == Prev::Dot;
                            }
                            scan_ident(fns, &ex, w, next, &path_buf, path_method, lineno);
                        }
                    }
                    prev = Prev::Other;
                }
                Tok::LBrace => {
                    ex.stack.push(Ctx::Block);
                    ex.carry.is_pub = false;
                    prev = Prev::Other;
                }
                Tok::RBrace => {
                    ex.stack.pop();
                    ex.carry = Carry::default();
                    prev = Prev::Other;
                }
                Tok::Semi => {
                    ex.carry = Carry::default();
                    path_buf.clear();
                    prev = Prev::Other;
                }
                Tok::PathSep => prev = Prev::PathSep,
                Tok::Dot => prev = Prev::Dot,
                Tok::LParen | Tok::Bang | Tok::Other(_) => prev = Prev::Other,
            }
            t += 1;
        }
    }
}

/// Handles one non-keyword identifier in body position: call sites and
/// panic tokens.
fn scan_ident(
    fns: &mut [FnItem],
    ex: &Extractor<'_>,
    w: &str,
    next: Option<&Tok>,
    path_buf: &[String],
    path_method: bool,
    lineno: usize,
) {
    let Some(fn_idx) = ex.innermost_fn() else {
        return;
    };
    let item = &mut fns[fn_idx];
    match next {
        Some(Tok::Bang) if PANIC_MACROS.contains(&w) => {
            item.panics.push(TokenSite {
                line: lineno,
                what: format!("{w}!"),
            });
        }
        Some(Tok::LParen) if !NON_CALL_WORDS.contains(&w) => {
            if path_method && PANIC_METHODS.contains(&w) {
                item.panics.push(TokenSite {
                    line: lineno,
                    what: w.to_string(),
                });
            }
            item.calls.push(CallSite {
                name: w.to_string(),
                path: path_buf[..path_buf.len().saturating_sub(1)].to_vec(),
                method: path_method,
            });
        }
        _ => {}
    }
}

fn push_tok_text(text: &mut String, tok: &Tok) {
    match tok {
        Tok::Ident(w) => {
            text.push(' ');
            text.push_str(w);
            text.push(' ');
        }
        Tok::PathSep => text.push_str("::"),
        Tok::Dot => text.push('.'),
        Tok::LParen => text.push('('),
        Tok::Bang => text.push('!'),
        Tok::Other(c) => text.push(*c),
        Tok::LBrace | Tok::RBrace | Tok::Semi => {}
    }
}

/// Parses the text between `impl` and `{` into the implementing type's name
/// plus whether this is a trait impl (`impl Trait for Type`).
fn parse_impl_header(text: &str) -> (Option<String>, bool) {
    let cs: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < cs.len() && cs[i].is_whitespace() {
        i += 1;
    }
    // Skip the leading generic-parameter group, if any.
    if cs.get(i) == Some(&'<') {
        let mut depth = 0i32;
        while i < cs.len() {
            if cs[i] == '<' {
                depth += 1;
            } else if cs[i] == '>' {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    let rest: String = cs[i..].iter().collect();
    match split_top_level_for(&rest) {
        Some(after) => (first_type_ident(&after), true),
        None => (first_type_ident(&rest), false),
    }
}

/// Finds a top-level (angle-depth 0) `for` keyword; returns the text after
/// it.
fn split_top_level_for(text: &str) -> Option<String> {
    let cs: Vec<char> = text.chars().collect();
    let mut depth = 0i32;
    let mut i = 0;
    while i < cs.len() {
        match cs[i] {
            '<' => depth += 1,
            '>' => depth = (depth - 1).max(0),
            'f' if depth == 0 => {
                let is_word = cs.get(i + 1) == Some(&'o')
                    && cs.get(i + 2) == Some(&'r')
                    && !cs
                        .get(i + 3)
                        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_')
                    && !cs
                        .get(i.wrapping_sub(1))
                        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_');
                if is_word && i > 0 {
                    return Some(cs[i + 3..].iter().collect());
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// First type-like identifier in a type expression, skipping `&`, `mut`,
/// `dyn`, `const`, and lifetimes.
fn first_type_ident(text: &str) -> Option<String> {
    let cs: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < cs.len() {
        let c = cs[i];
        if c.is_ascii_alphabetic() || c == '_' {
            let lifetime = i > 0 && cs[i - 1] == '\'';
            let start = i;
            while i < cs.len() && (cs[i].is_ascii_alphanumeric() || cs[i] == '_') {
                i += 1;
            }
            let word: String = cs[start..i].iter().collect();
            if !lifetime && !matches!(word.as_str(), "mut" | "dyn" | "const") {
                return Some(word);
            }
        } else {
            i += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::strip;

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        let stripped: Vec<(&str, Vec<Line>)> = files.iter().map(|(p, s)| (*p, strip(s))).collect();
        let refs: Vec<(&str, &[Line])> = stripped.iter().map(|(p, l)| (*p, l.as_slice())).collect();
        Graph::build(&refs)
    }

    fn by_name<'a>(g: &'a Graph, name: &str) -> &'a FnItem {
        g.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn extracts_items_with_owner_and_visibility() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "pub fn free() {}\nstruct S;\nimpl S { fn m(&self) {} pub fn p(&self) {} }\n\
             trait T { fn d(&self) { self.m() } fn decl(&self); }\n\
             impl T for S { fn decl(&self) {} }\n",
        )]);
        assert!(by_name(&g, "free").is_pub);
        assert!(by_name(&g, "free").owner.is_none());
        let m = by_name(&g, "m");
        assert!(!m.is_pub);
        assert_eq!(m.owner.as_deref(), Some("S"));
        assert!(by_name(&g, "p").is_pub);
        let d = by_name(&g, "d");
        assert!(d.is_pub, "trait default methods are API");
        assert_eq!(d.owner.as_deref(), Some("T"));
        let decls: Vec<_> = g.fns.iter().filter(|f| f.name == "decl").collect();
        assert_eq!(decls.len(), 2);
        assert!(!decls[0].has_body);
        assert!(decls[1].has_body);
        assert!(decls[1].is_pub, "trait-impl methods are API");
    }

    #[test]
    fn call_kinds_and_resolution() {
        let g = graph_of(&[
            (
                "crates/core/src/a.rs",
                "pub fn top() { helper(); m::qual(); obj.meth(1); }\npub fn helper() {}\n",
            ),
            ("crates/core/src/m.rs", "pub fn qual() {}\n"),
            (
                "crates/exec/src/b.rs",
                "struct O;\nimpl O { pub fn meth(&self, x: u32) {} }\n",
            ),
        ]);
        let top = by_name(&g, "top");
        assert_eq!(top.calls.len(), 3);
        let ti = g.fns.iter().position(|f| f.name == "top").unwrap();
        let names: Vec<&str> = g.edges[ti]
            .iter()
            .map(|&j| g.fns[j].name.as_str())
            .collect();
        assert_eq!(names, ["helper", "qual", "meth"]);
    }

    #[test]
    fn body_facts_are_collected() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "pub fn f(x: Option<u32>) -> u32 {\n\
                 assert!(x.is_some());\n\
                 debug_assert!(true);\n\
                 x.unwrap_or(0) + x.expect(\"set\")\n\
             }\n\
             pub fn b() { let x: Option<u32> = None; x.unwrap(); }\n\
             pub fn arr(rows: [&[f32]; 2]) -> [u8; 4] { todo!() }\n",
        )]);
        let f = by_name(&g, "f");
        let what: Vec<&str> = f.panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(
            what,
            ["assert!", "expect"],
            "debug_assert and unwrap_or never fire"
        );
        assert_eq!(f.panics[0].line, 2);
        assert_eq!(by_name(&g, "b").panics[0].what, "unwrap");
        let arr = by_name(&g, "arr");
        assert!(
            arr.has_body && arr.panics.len() == 1,
            "`;` in an array type ends no signature"
        );
    }

    #[test]
    fn cfg_test_and_test_paths_mark_items() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { prod(); }\n}\n",
        )]);
        assert!(!by_name(&g, "prod").in_test);
        assert!(by_name(&g, "t").in_test);
        let g2 = graph_of(&[("crates/core/tests/it.rs", "fn helper() {}\n")]);
        assert!(g2.fns[0].in_test);
    }

    #[test]
    fn impl_header_parsing() {
        assert_eq!(
            parse_impl_header(" Backend  for  SimdBackend "),
            (Some("SimdBackend".into()), true)
        );
        assert_eq!(
            parse_impl_header("< T :  Clone > Wrapper < T > "),
            (Some("Wrapper".into()), false)
        );
        assert_eq!(
            parse_impl_header("< 'a > Iterator  for  &mut Walker < 'a > "),
            (Some("Walker".into()), true)
        );
        assert_eq!(parse_impl_header(" fmt :: Display  for  Rule "), {
            (Some("Rule".into()), true)
        });
    }

    #[test]
    fn reach_respects_blocks_and_cycles() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "pub fn a() { b(); }\npub fn b() { c(); a(); }\npub fn c() {}\n",
        )]);
        let ai = g.fns.iter().position(|f| f.name == "a").unwrap();
        let bi = g.fns.iter().position(|f| f.name == "b").unwrap();
        let ci = g.fns.iter().position(|f| f.name == "c").unwrap();
        let r = g.reach([ai], |_| false);
        assert!(r[ci].is_some(), "cycle-safe transitive reach");
        let blocked = g.reach([ai], |i| i == bi);
        assert!(blocked[bi].is_some(), "blocked node is reached");
        assert!(blocked[ci].is_none(), "but does not propagate");
        assert_eq!(g.chain(&r, ci), "a → b → c");
    }

    #[test]
    fn self_qualifier_maps_to_owner() {
        let g = graph_of(&[(
            "crates/core/src/a.rs",
            "struct S;\nimpl S {\n    pub fn new() -> S { Self::init(); S }\n    fn init() {}\n}\n",
        )]);
        let ni = g.fns.iter().position(|f| f.name == "new").unwrap();
        let names: Vec<&str> = g.edges[ni]
            .iter()
            .map(|&j| g.fns[j].name.as_str())
            .collect();
        assert_eq!(names, ["init"]);
    }

    #[test]
    fn extraction_is_total_on_garbage() {
        let g = graph_of(&[(
            "crates/core/src/bad.rs",
            "}}}} fn ( impl { trait ; :: . ! fn fn unsafe {{ mod\n",
        )]);
        let _ = g.fns.len();
    }
}
