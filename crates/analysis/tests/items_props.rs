//! Property tests for the `fn`-item extractor.
//!
//! The extractor is a token-level state machine, not a parser, so its
//! contract is framed as properties over *arbitrary* item/module
//! structures rather than a grammar: it must be total (never panic, on
//! garbage included), deterministic (same source → same items, same
//! findings), and complete over `fn` items (every generated fn is recorded
//! exactly once, however deeply mods/impls nest and however names shadow).

use mega_analysis::items::{extract, FnItem};
use mega_analysis::{analyze_sources, audit, scan, Rule};
use proptest::prelude::*;

/// A tiny name pool — deliberately small so generated structures shadow
/// names across mods, impls, and files.
const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

#[derive(Clone, Debug)]
enum Stmt {
    /// `name();`
    Bare(usize),
    /// `owner::name();`
    Qualified(usize, usize),
    /// `x.name();`
    Method(usize),
    /// `x.unwrap();`
    Panic,
    /// `unsafe { raw() }`
    Unsafe,
}

#[derive(Clone, Debug)]
enum Item {
    Fn {
        name: usize,
        public: bool,
        stmts: Vec<Stmt>,
    },
    Mod {
        name: usize,
        items: Vec<Item>,
    },
    Impl {
        owner: usize,
        fns: Vec<(usize, Vec<Stmt>)>,
    },
}

/// Number of `fn` items in a tree (what the extractor must recover).
fn fn_count(items: &[Item]) -> usize {
    items
        .iter()
        .map(|it| match it {
            Item::Fn { .. } => 1,
            Item::Mod { items, .. } => fn_count(items),
            Item::Impl { fns, .. } => fns.len(),
        })
        .sum()
}

/// Number of `fn` items whose body holds a panic: what `panic-surface`
/// flags when the tree sits in a hot file.
fn panicking_fn_count(items: &[Item]) -> usize {
    let panics = |stmts: &[Stmt]| stmts.iter().any(|s| matches!(s, Stmt::Panic));
    items
        .iter()
        .map(|it| match it {
            Item::Fn { stmts, .. } => usize::from(panics(stmts)),
            Item::Mod { items, .. } => panicking_fn_count(items),
            Item::Impl { fns, .. } => fns.iter().filter(|(_, s)| panics(s)).count(),
        })
        .sum()
}

fn render_stmts(stmts: &[Stmt], out: &mut String, indent: usize) {
    for s in stmts {
        out.push_str(&" ".repeat(indent));
        match s {
            Stmt::Bare(n) => out.push_str(&format!("{}();\n", NAMES[*n])),
            Stmt::Qualified(m, n) => out.push_str(&format!("{}::{}();\n", NAMES[*m], NAMES[*n])),
            Stmt::Method(n) => out.push_str(&format!("x.{}();\n", NAMES[*n])),
            Stmt::Panic => out.push_str("x.unwrap();\n"),
            Stmt::Unsafe => out.push_str("unsafe { raw() }\n"),
        }
    }
}

fn render_items(items: &[Item], out: &mut String, indent: usize) {
    for it in items {
        let pad = " ".repeat(indent);
        match it {
            Item::Fn {
                name,
                public,
                stmts,
            } => {
                let vis = if *public { "pub " } else { "" };
                out.push_str(&format!("{pad}{vis}fn {}() {{\n", NAMES[*name]));
                render_stmts(stmts, out, indent + 4);
                out.push_str(&format!("{pad}}}\n"));
            }
            Item::Mod { name, items } => {
                out.push_str(&format!("{pad}mod {} {{\n", NAMES[*name]));
                render_items(items, out, indent + 4);
                out.push_str(&format!("{pad}}}\n"));
            }
            Item::Impl { owner, fns } => {
                out.push_str(&format!("{pad}impl {} {{\n", NAMES[*owner].to_uppercase()));
                for (name, stmts) in fns {
                    out.push_str(&format!("{pad}    pub fn {}(&self) {{\n", NAMES[*name]));
                    render_stmts(stmts, out, indent + 8);
                    out.push_str(&format!("{pad}    }}\n"));
                }
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

fn render(items: &[Item]) -> String {
    let mut out = String::new();
    render_items(items, &mut out, 0);
    out
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0usize..4).prop_map(Stmt::Bare),
        (0usize..4, 0usize..4).prop_map(|(m, n)| Stmt::Qualified(m, n)),
        (0usize..4).prop_map(Stmt::Method),
        Just(Stmt::Panic),
        Just(Stmt::Unsafe),
    ]
}

fn arb_fn() -> impl Strategy<Value = Item> {
    (
        0usize..4,
        0usize..2,
        proptest::collection::vec(arb_stmt(), 0..4),
    )
        .prop_map(|(name, vis, stmts)| Item::Fn {
            name,
            public: vis == 1,
            stmts,
        })
}

fn arb_impl() -> impl Strategy<Value = Item> {
    (
        0usize..4,
        proptest::collection::vec(
            (0usize..4, proptest::collection::vec(arb_stmt(), 0..3)),
            0..3,
        ),
    )
        .prop_map(|(owner, fns)| Item::Impl { owner, fns })
}

/// Top-level items: fns, impls, and mods one level deep (which may again
/// contain fns and impls — enough nesting to exercise the scope stack and
/// name shadowing without unbounded recursion).
fn arb_items() -> impl Strategy<Value = Vec<Item>> {
    let leaf = || prop_oneof![arb_fn(), arb_impl()];
    let item = prop_oneof![
        arb_fn(),
        arb_impl(),
        (0usize..4, proptest::collection::vec(leaf(), 0..4))
            .prop_map(|(name, items)| Item::Mod { name, items }),
    ];
    proptest::collection::vec(item, 0..6)
}

/// Extracts the items of one rendered file at a fixed path.
fn items(src: &str) -> Vec<FnItem> {
    extract("crates/core/src/gen.rs", &scan::strip(src))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn extraction_is_total_and_deterministic(items_tree in arb_items()) {
        let src = render(&items_tree);
        prop_assert_eq!(items(&src), items(&src));
    }

    #[test]
    fn every_generated_fn_is_recorded_exactly_once(items_tree in arb_items()) {
        let src = render(&items_tree);
        let fns = items(&src);
        prop_assert_eq!(
            fns.len(),
            fn_count(&items_tree),
            "expected every fn item in:\n{}",
            src
        );
        // Every recorded fn points at a real definition line and carries
        // the name the generator gave it.
        let lines: Vec<&str> = src.lines().collect();
        for f in &fns {
            prop_assert!(f.line >= 1 && f.line <= lines.len());
            prop_assert!(lines[f.line - 1].contains(&format!("fn {}", f.name)));
        }
    }

    #[test]
    fn whole_pipeline_is_total_on_random_multi_file_sets(
        trees in proptest::collection::vec(arb_items(), 1..4),
    ) {
        // Random files sharing shadowed names, the first at a hot path. The
        // analyzer must neither panic nor diverge, two runs must agree
        // finding-for-finding, and `panic-surface` flags each panicking fn
        // of the hot file once.
        let sources: Vec<(String, String)> = trees
            .iter()
            .enumerate()
            .map(|(i, items)| {
                let path = match i {
                    0 => audit::HOT_FILES[0].to_string(),
                    _ => format!("crates/core/src/gen{i}.rs"),
                };
                (path, render(items))
            })
            .collect();
        let a = analyze_sources(&sources, "");
        let b = analyze_sources(&sources, "");
        prop_assert_eq!(&a.findings, &b.findings);
        for f in &a.findings {
            prop_assert!(f.line >= 1, "findings are 1-based: {:?}", f);
        }
        let flagged = a.findings.iter().filter(|f| f.rule == Rule::PanicSurface).count();
        prop_assert_eq!(flagged, panicking_fn_count(&trees[0]));
    }
}
