//! The five workloads. Names are fixed (later changes cite them); the
//! reason each exists is in `BENCHMARK.json` and `benchmark/README.md`.

use mega_gnn::{EngineChoice, ModelKind};

/// Which generator feeds a training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DatasetKind {
    Zinc,
    Csl,
}

/// A `Trainer::run` workload.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrainSpec {
    pub(crate) dataset: DatasetKind,
    /// Train / validation / test graphs.
    pub(crate) split: (usize, usize, usize),
    pub(crate) model: ModelKind,
    pub(crate) engine: EngineChoice,
    pub(crate) hidden: usize,
    pub(crate) layers: usize,
    pub(crate) heads: usize,
    pub(crate) batch: usize,
    /// Reshuffle every epoch, which makes the trainer rebuild (and for
    /// MEGA re-preprocess) its batches every epoch.
    pub(crate) shuffle: bool,
    /// Timed epochs per `Trainer::run`, after the warm-up epoch.
    pub(crate) timed_epochs: usize,
}

/// The preprocessing + band-kernel workload on one large graph.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GraphSpec {
    /// `barabasi_albert(nodes, attach)`.
    pub(crate) nodes: usize,
    pub(crate) attach: usize,
    /// Feature width of the band state.
    pub(crate) dim: usize,
    /// Node count of the smaller BA graph whose schedule is persisted.
    pub(crate) persist_nodes: usize,
    /// Steps of the distributed `BandJob`.
    pub(crate) dist_steps: usize,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    Train(TrainSpec),
    Graph(GraphSpec),
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Workload {
    pub(crate) name: &'static str,
    /// Worker threads the workload asks the product for; never more than
    /// the host has, or the run is refused.
    pub(crate) threads: usize,
    pub(crate) kind: Kind,
}

/// The workload table, in round order. `tiny` shrinks every input for
/// `--check` (same code paths, seconds instead of minutes).
pub(crate) fn table(tiny: bool) -> Vec<Workload> {
    let zinc_gt = TrainSpec {
        dataset: DatasetKind::Zinc,
        split: if tiny { (16, 8, 8) } else { (128, 32, 32) },
        model: ModelKind::GraphTransformer,
        engine: EngineChoice::Mega,
        hidden: if tiny { 16 } else { 64 },
        layers: if tiny { 2 } else { 4 },
        heads: 4,
        batch: if tiny { 8 } else { 32 },
        shuffle: false,
        timed_epochs: 3,
    };
    let train = |name, threads, spec| Workload {
        name,
        threads,
        kind: Kind::Train(spec),
    };
    vec![
        train("zinc-gt-mega", 1, zinc_gt),
        train(
            "zinc-gt-baseline",
            1,
            TrainSpec {
                engine: EngineChoice::Baseline,
                ..zinc_gt
            },
        ),
        train(
            "zinc-gcn-wide-t2",
            2,
            TrainSpec {
                split: if tiny { (16, 8, 8) } else { (64, 16, 16) },
                model: ModelKind::GatedGcn,
                hidden: if tiny { 32 } else { 256 },
                timed_epochs: 2,
                ..zinc_gt
            },
        ),
        train(
            "csl-gt-mega-shuffle",
            1,
            TrainSpec {
                dataset: DatasetKind::Csl,
                split: if tiny { (16, 8, 8) } else { (64, 16, 16) },
                batch: if tiny { 8 } else { 16 },
                shuffle: true,
                timed_epochs: 2,
                ..zinc_gt
            },
        ),
        Workload {
            name: "ba50k-graph",
            threads: 1,
            kind: Kind::Graph(GraphSpec {
                nodes: if tiny { 2_000 } else { 50_000 },
                attach: 3,
                dim: if tiny { 16 } else { 64 },
                persist_nodes: if tiny { 200 } else { 2_000 },
                dist_steps: if tiny { 2 } else { 8 },
            }),
        },
    ]
}
