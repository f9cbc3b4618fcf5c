//! CSL-like (circular skip links) classification dataset.
//!
//! CSL graphs (Murphy et al.) are 4-regular: `n` nodes in a cycle plus skip
//! links of a fixed stride; the class is the stride. Table II/III: 41 nodes,
//! 164 adjacency slots (4-regular ⇒ 2·2n), sparsity 0.098, *zero* degree
//! variance and perfect KS similarity — every graph in the dataset shares the
//! identical degree sequence.
//!
//! Plain message passing cannot distinguish CSL classes (all graphs are
//! WL-indistinguishable), so — as in the benchmark the paper builds on
//! (Dwivedi et al.) — nodes carry a positional index feature; the class
//! remains a pure function of topology. Edge features distinguish cycle
//! edges from skip edges.

use crate::sample::{Dataset, GraphSample, Target, Task};
use crate::spec::DatasetSpec;
use mega_graph::generate;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Number of nodes in every CSL graph (matches Table II).
pub const CSL_NODES: usize = 41;
/// The skip strides used as classes ("4 types of regular graphs").
pub const CSL_SKIPS: [usize; 4] = [2, 3, 4, 5];

/// Generates the CSL-like dataset. Every sample is a circular-skip-link graph
/// on [`CSL_NODES`] nodes with one of the [`CSL_SKIPS`] strides; the class is
/// the stride index. Node labels are randomly rotated so the positional
/// feature does not trivially encode the class.
pub fn csl(spec: &DatasetSpec) -> Dataset {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let make = |count: usize, rng: &mut StdRng| -> Vec<GraphSample> {
        (0..count)
            .map(|i| {
                let class = i % CSL_SKIPS.len();
                csl_sample(class, rng)
            })
            .collect()
    };
    let mut train = make(spec.train, &mut rng);
    train.shuffle(&mut rng);
    let val = make(spec.val, &mut rng);
    let test = make(spec.test, &mut rng);
    Dataset {
        name: "CSL".to_string(),
        task: Task::Classification {
            classes: CSL_SKIPS.len(),
        },
        node_vocab: CSL_NODES,
        edge_vocab: 2,
        train,
        val,
        test,
    }
}

fn csl_sample(class: usize, rng: &mut StdRng) -> GraphSample {
    let skip = CSL_SKIPS[class];
    let base = generate::circular_skip_links(CSL_NODES, skip)
        .expect("CSL parameters are valid by construction");
    // Random rotation of positional ids: relabel node v as (v + r) mod n.
    let r = rng.gen_range(0..CSL_NODES);
    let node_features: Vec<usize> = (0..CSL_NODES).map(|v| (v + r) % CSL_NODES).collect();
    // Edge feature 0 = cycle edge, 1 = skip edge.
    let edge_features: Vec<usize> = base
        .edges()
        .map(|(a, b)| {
            let diff = (a + CSL_NODES - b) % CSL_NODES;
            let diff = diff.min(CSL_NODES - diff);
            usize::from(diff != 1)
        })
        .collect();
    GraphSample {
        graph: base,
        node_features,
        edge_features,
        target: Target::Class(class),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mega_graph::DegreeStats;

    #[test]
    fn csl_matches_table_statistics() {
        // The paper's CSL split (Table II: 90/30/30).
        let ds = csl(&DatasetSpec {
            train: 90,
            val: 30,
            test: 30,
            seed: 1,
        });
        assert!(ds.validate());
        let st = ds.stats(32);
        assert!((st.mean_nodes - 41.0).abs() < 1e-9);
        assert!((st.mean_edges - 82.0).abs() < 1e-9); // 164 slots / 2
                                                      // Table III row CSL: all-zero degree variance, μ(ε) = 1.
        assert!(st.mean_degree_std.abs() < 1e-9);
        assert!(st.std_min_degree.abs() < 1e-9);
        assert!(st.std_max_degree.abs() < 1e-9);
        assert!((st.mean_ks_similarity - 1.0).abs() < 1e-9);
        assert!(
            (st.mean_sparsity - 0.098).abs() < 0.005,
            "sparsity {}",
            st.mean_sparsity
        );
    }

    #[test]
    fn graphs_are_4_regular() {
        let ds = csl(&DatasetSpec::tiny(2));
        for s in ds.all_samples() {
            let d = DegreeStats::of(&s.graph);
            assert_eq!((d.min, d.max), (4, 4));
        }
    }

    #[test]
    fn all_classes_present_in_train() {
        let ds = csl(&DatasetSpec::tiny(3));
        let mut seen = [false; 4];
        for s in &ds.train {
            seen[s.target.class()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn edge_features_mark_skip_links() {
        let ds = csl(&DatasetSpec::tiny(4));
        let s = &ds.train[0];
        // A CSL graph has n cycle edges and n skip edges.
        let skips = s.edge_features.iter().filter(|&&f| f == 1).count();
        let cycles = s.edge_features.iter().filter(|&&f| f == 0).count();
        assert_eq!(skips, CSL_NODES);
        assert_eq!(cycles, CSL_NODES);
    }
}
