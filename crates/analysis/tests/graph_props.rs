//! Property tests for the call-graph extractor.
//!
//! The extractor is a token-level state machine, not a parser, so its
//! contract is framed as properties over *arbitrary* item/call/module
//! structures rather than a grammar: it must be total (never panic, on
//! garbage included), deterministic (same source → same graph, same
//! findings), complete over `fn` items (every generated fn is recorded
//! exactly once, however deeply mods/impls nest and however names shadow),
//! and cycle-safe (call cycles, self-calls).

use mega_analysis::graph::Graph;
use mega_analysis::{analyze_sources, scan};
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
    /// `std::time::Instant::now();`
    Source,
    /// `let _g = mega_obs::span("p");`
    Span,
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

fn render_stmts(stmts: &[Stmt], out: &mut String, indent: usize) {
    for s in stmts {
        out.push_str(&" ".repeat(indent));
        match s {
            Stmt::Bare(n) => out.push_str(&format!("{}();\n", NAMES[*n])),
            Stmt::Qualified(m, n) => out.push_str(&format!("{}::{}();\n", NAMES[*m], NAMES[*n])),
            Stmt::Method(n) => out.push_str(&format!("x.{}();\n", NAMES[*n])),
            Stmt::Panic => out.push_str("x.unwrap();\n"),
            Stmt::Source => out.push_str("std::time::Instant::now();\n"),
            Stmt::Span => out.push_str("let _g = mega_obs::span(\"p\");\n"),
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
        Just(Stmt::Source),
        Just(Stmt::Span),
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

/// Builds the graph for one rendered file at a fixed path.
fn build(src: &str) -> Graph {
    let lines = scan::strip(src);
    Graph::build(&[("crates/core/src/gen.rs", &lines)])
}

/// A graph rendered to a comparable string (the extractor's full output).
fn fingerprint(g: &Graph) -> String {
    format!("{:?}\n{:?}\n{:?}", g.fns, g.edges, g.static_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn extraction_is_total_and_deterministic(items in arb_items()) {
        let src = render(&items);
        let a = build(&src);
        let b = build(&src);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn every_generated_fn_is_recorded_exactly_once(items in arb_items()) {
        let src = render(&items);
        let g = build(&src);
        prop_assert_eq!(
            g.fns.len(),
            fn_count(&items),
            "expected every fn item in:\n{}",
            src
        );
        // Every recorded fn points at a real definition line and carries
        // the name the generator gave it.
        let lines: Vec<&str> = src.lines().collect();
        for f in &g.fns {
            prop_assert!(f.line >= 1 && f.line <= lines.len());
            prop_assert!(lines[f.line - 1].contains(&format!("fn {}", f.name)));
        }
    }

    #[test]
    fn call_cycles_and_self_calls_terminate(items in arb_items()) {
        // Append a guaranteed cycle (a → b → a → a) on shadowed pool names
        // to whatever the generator produced, then walk reachability from
        // every fn: BFS must terminate and stay in-bounds.
        let mut src = render(&items);
        src.push_str("fn alpha() { beta(); alpha(); }\nfn beta() { alpha(); }\n");
        let g = build(&src);
        for start in 0..g.fns.len() {
            let parents = g.reach([start], false, |_| false);
            prop_assert_eq!(parents.len(), g.fns.len());
            for (i, p) in parents.iter().enumerate() {
                if let Some(p) = p {
                    // Parent chains stay inside the reached set.
                    prop_assert!(*p == i || parents[*p].is_some());
                }
            }
        }
    }

    #[test]
    fn whole_pipeline_is_total_on_random_multi_file_sets(
        trees in proptest::collection::vec(arb_items(), 1..4),
    ) {
        // Random files sharing shadowed names. The analyzer must neither
        // panic nor diverge, and two runs must agree finding-for-finding.
        let sources: Vec<(String, String)> = trees
            .iter()
            .enumerate()
            .map(|(i, items)| (format!("crates/core/src/gen{i}.rs"), render(items)))
            .collect();
        let a = analyze_sources(&sources, "", "");
        let b = analyze_sources(&sources, "", "");
        prop_assert_eq!(&a.findings, &b.findings);
        prop_assert_eq!(&a.unsafe_reach, &b.unsafe_reach);
        for f in &a.findings {
            prop_assert!(f.line >= 1, "findings are 1-based: {:?}", f);
        }
    }
}
