//! Regenerates the paper's tables and figures by name:
//! `figures fig10_runtime tab02_graph_stats`. Each one is printed and
//! written to `bench_results/<name>.json`; with no name, the known names
//! are listed.

use mega_bench::figures::{by_name, emit, FIGURES};

fn main() {
    mega_obs::report::init_from_env();
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        mega_obs::data!("usage: figures NAME...\n\nfigures:");
        for (name, _) in FIGURES {
            mega_obs::data!("  {name}");
        }
        return;
    }
    // Every name is checked before the first (possibly long) figure runs.
    let mut figures = Vec::new();
    for name in &names {
        let Some(figure) = by_name(name) else {
            mega_obs::error!("error: no figure named `{name}` (run with no argument for the list)");
            std::process::exit(2);
        };
        figures.push((name, figure));
    }
    for (name, figure) in figures {
        emit(name, &figure());
    }
}
