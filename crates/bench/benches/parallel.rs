//! Criterion benches of the parallel band-execution engine: the slot walk
//! versus the public entry point at 1/2/4/8 requested worker threads on a
//! 10k-node synthetic graph, every iteration re-zeroing and writing one
//! shared output buffer. The results are bit-identical at every setting —
//! this bench measures only the scheduling cost and (on multi-core hosts)
//! the scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mega_core::parallel::Parallelism;
use mega_core::{preprocess, MegaConfig};
use mega_exec::kernels::{banded_aggregate, banded_aggregate_serial, BandLanes};
use mega_graph::generate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 10_000;
const FEAT: usize = 64;

fn bench_banded_aggregate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let g = generate::barabasi_albert(NODES, 4, &mut rng).unwrap();
    let schedule = preprocess(&g, &MegaConfig::default()).unwrap();
    let band = schedule.band();
    let len = band.len();
    let x: Vec<f32> = (0..len * FEAT)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let weights: Vec<f32> = (0..schedule.working_graph().edge_count())
        .map(|_| rng.gen_range(0.0f32..1.0))
        .collect();

    let mut out = vec![0.0f32; x.len()];
    let mut group = c.benchmark_group("banded_aggregate");
    group.bench_function(BenchmarkId::new("serial", format!("ba-{NODES}")), |b| {
        b.iter(|| {
            out.fill(0.0);
            banded_aggregate_serial(BandLanes::SCALAR, band, &x, FEAT, &weights, &mut out);
        })
    });
    for threads in [1usize, 2, 4, 8] {
        let par = Parallelism::with_threads(threads);
        group.bench_function(BenchmarkId::new("chunked", format!("{threads}t")), |b| {
            b.iter(|| {
                out.fill(0.0);
                banded_aggregate(BandLanes::SCALAR, band, &x, FEAT, &weights, &par, &mut out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_banded_aggregate);
criterion_main!(benches);
