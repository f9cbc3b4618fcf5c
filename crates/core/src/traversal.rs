//! The objective graph traversal (paper Algorithm 1, Eq. 2).
//!
//! The traversal agent starts at a chosen vertex and repeatedly appends a next
//! node to the path `P`:
//!
//! 1. If the current node still has *uncovered-edge neighbors* (the paper's
//!    `N(curr)`, maintained exactly like the pseudocode's neighbors dict with
//!    `N(curr).remove(pre)` as edges are consumed), pick among them.
//! 2. Otherwise pop the stack of previously visited nodes that still have
//!    uncovered-edge neighbors — a *revisit*.
//! 3. Otherwise jump to an unvisited node (or, when all nodes are visited but
//!    the coverage target θ is not yet met, to any node with uncovered
//!    edges) — creating a *virtual edge* if the jump target is not adjacent
//!    to the path head.
//!
//! Within a candidate pool the default selection is Eq. 2: the candidate
//! maximizing `|N(v) ∩ P[-ω:]|`, the overlap between the candidate's original
//! neighborhood and the last ω path entries.
//!
//! An edge counts as *covered* as soon as its two endpoints appear within ω
//! positions of each other anywhere in the path, which is exactly the
//! condition for the edge to own a slot in the diagonal band (see
//! [`crate::band`]).

use crate::config::{CandidatePolicy, MegaConfig};
use crate::edge_drop::drop_edges;
use crate::error::MegaError;
use crate::window::resolve_window;
use mega_graph::Graph;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeSet;
// mega-lint: allow(unordered-collection, reason = "(src,dst)->eid lookup only; neighbor iteration uses sorted open_nbrs")
use std::collections::HashMap;

/// The raw result of running Algorithm 1 on a graph.
#[derive(Debug, Clone)]
pub struct Traversal {
    /// The node id at each path position.
    pub path: Vec<usize>,
    /// `virtual_step[i]` is true when the step from `path[i-1]` to `path[i]`
    /// does not follow an original edge (`virtual_step[0]` is always false).
    pub virtual_step: Vec<bool>,
    /// The window ω the traversal was run with.
    pub window: usize,
    /// Number of working-graph edges covered by the band (endpoints within ω
    /// path positions of each other).
    pub covered_edges: usize,
    /// Edge count of the working (post-drop) graph.
    pub working_edges: usize,
    /// Number of node appearances beyond each node's first (revisits).
    pub revisits: usize,
    /// Number of virtual steps taken.
    pub virtual_edge_count: usize,
    /// The working graph the traversal ran over (equals the input unless edge
    /// dropping was configured).
    pub working_graph: Graph,
}

impl Traversal {
    /// Fraction of working-graph edges covered by the band.
    pub fn coverage(&self) -> f64 {
        if self.working_edges == 0 {
            1.0
        } else {
            self.covered_edges as f64 / self.working_edges as f64
        }
    }

    /// Path length divided by node count: the memory-expansion factor the
    /// paper calls the justifiable tradeoff (§IV-B6).
    pub fn expansion_factor(&self) -> f64 {
        self.path.len() as f64 / self.working_graph.node_count() as f64
    }

    /// Revisit count per band window: the path chunked into consecutive
    /// windows of ω positions (the granularity at which the band mask sees
    /// it), each entry counting the node appearances in that chunk beyond a
    /// node's global first appearance. Uneven tails keep their own entry.
    ///
    /// This is the revisit *placement* signal hotness-driven tiering needs:
    /// a flat profile means revisits are an Eulerian-walk tax spread over
    /// the whole band, spikes mean specific band regions re-materialize the
    /// same nodes and are worth caching.
    pub fn band_window_revisits(&self) -> Vec<usize> {
        let w = self.window.max(1);
        let mut out = vec![0usize; self.path.len().div_ceil(w)];
        let mut seen = vec![false; self.working_graph.node_count()];
        for (i, &v) in self.path.iter().enumerate() {
            if seen[v] {
                out[i / w] += 1;
            } else {
                seen[v] = true;
            }
        }
        out
    }

    /// Number of path appearances per node id (0 for nodes the walk never
    /// reached — impossible for finished walks, which visit every node).
    /// Entries `> 1` are the re-materialized "hot" nodes.
    pub fn node_hotness(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.working_graph.node_count()];
        for &v in &self.path {
            out[v] += 1;
        }
        out
    }
}

struct State<'g> {
    g: &'g Graph,
    window: usize,
    policy: CandidatePolicy,
    rng: StdRng,
    /// Uncovered-edge neighbors per node (the pseudocode's `N` dict), kept
    /// sorted for deterministic argmax tie-breaking.
    open_nbrs: Vec<Vec<usize>>,
    /// Nodes with non-empty `open_nbrs`, ordered.
    open_nodes: BTreeSet<usize>,
    /// Edge id lookup for the working graph.
    // mega-lint: allow(unordered-collection, reason = "keyed lookup only; never iterated")
    edge_of: HashMap<(usize, usize), usize>,
    covered: Vec<bool>,
    covered_count: usize,
    visited: Vec<bool>,
    unvisited_count: usize,
    path: Vec<usize>,
    virtual_step: Vec<bool>,
    stack: Vec<usize>,
    revisits: usize,
}

impl<'g> State<'g> {
    fn new(g: &'g Graph, window: usize, policy: CandidatePolicy, seed: u64) -> Self {
        let n = g.node_count();
        let mut open_nbrs: Vec<Vec<usize>> = Vec::with_capacity(n);
        for v in 0..n {
            open_nbrs.push(g.neighbors(v).to_vec());
        }
        let open_nodes: BTreeSet<usize> = (0..n).filter(|&v| !open_nbrs[v].is_empty()).collect();
        // mega-lint: allow(unordered-collection, reason = "keyed lookup only; never iterated")
        let mut edge_of = HashMap::with_capacity(g.edge_count());
        for (eid, (s, d)) in g.edges().enumerate() {
            edge_of.insert((s.min(d), s.max(d)), eid);
        }
        State {
            g,
            window,
            policy,
            rng: StdRng::seed_from_u64(seed),
            open_nbrs,
            open_nodes,
            edge_of,
            covered: vec![false; g.edge_count()],
            covered_count: 0,
            visited: vec![false; n],
            unvisited_count: n,
            path: Vec::with_capacity(n + 2 * g.edge_count()),
            virtual_step: Vec::with_capacity(n + 2 * g.edge_count()),
            stack: Vec::new(),
            revisits: 0,
        }
    }

    /// Eq. 2: overlap between `v`'s original neighborhood and the last ω path
    /// entries.
    fn correlate(&self, v: usize) -> usize {
        let lo = self.path.len().saturating_sub(self.window);
        self.path[lo..]
            .iter()
            .filter(|&&p| p != v && self.g.contains_edge(p, v))
            .count()
    }

    /// Selects from a non-empty candidate pool according to the policy.
    fn select(&mut self, pool: &[usize]) -> usize {
        debug_assert!(!pool.is_empty());
        match self.policy {
            CandidatePolicy::CorrelateArgmax => {
                let mut best = pool[0];
                let mut best_score = self.correlate(best);
                for &v in &pool[1..] {
                    let s = self.correlate(v);
                    if s > best_score || (s == best_score && v < best) {
                        best = v;
                        best_score = s;
                    }
                }
                best
            }
            CandidatePolicy::FirstCandidate => *pool.iter().min().expect("non-empty pool"),
            CandidatePolicy::Random => pool[self.rng.gen_range(0..pool.len())],
        }
    }

    fn remove_open(&mut self, a: usize, b: usize) {
        if let Ok(i) = self.open_nbrs[a].binary_search(&b) {
            self.open_nbrs[a].remove(i);
            if self.open_nbrs[a].is_empty() {
                self.open_nodes.remove(&a);
            }
        }
    }

    /// Appends `v` to the path, marking the step virtual when it does not ride
    /// an original edge, and covering every uncovered edge from `v` to the ω
    /// previous path entries.
    fn append(&mut self, v: usize) {
        let is_virtual = match self.path.last() {
            Some(&prev) => prev == v || !self.g.contains_edge(prev, v),
            None => false,
        };
        if self.visited[v] {
            self.revisits += 1;
        } else {
            self.visited[v] = true;
            self.unvisited_count -= 1;
        }
        self.path.push(v);
        self.virtual_step.push(is_virtual);
        let i = self.path.len() - 1;
        let lo = i.saturating_sub(self.window);
        for j in lo..i {
            let u = self.path[j];
            if u == v {
                continue;
            }
            if let Some(&eid) = self.edge_of.get(&(u.min(v), u.max(v))) {
                if !self.covered[eid] {
                    self.covered[eid] = true;
                    self.covered_count += 1;
                    self.remove_open(u, v);
                    self.remove_open(v, u);
                }
            }
        }
        if !self.open_nbrs[v].is_empty() {
            self.stack.push(v);
        }
    }

    /// Pops the stack until a node with uncovered-edge neighbors surfaces.
    fn pop_open(&mut self) -> Option<usize> {
        while let Some(v) = self.stack.pop() {
            if !self.open_nbrs[v].is_empty() {
                return Some(v);
            }
        }
        None
    }
}

/// Picks the starting vertex: the smallest-id odd-degree node if any (an
/// Eulerian path, when one exists, must start there), otherwise the
/// smallest-id node with non-zero degree, otherwise node 0.
fn start_node(g: &Graph) -> usize {
    (0..g.node_count())
        .find(|&v| g.degree(v) % 2 == 1)
        .or_else(|| (0..g.node_count()).find(|&v| g.degree(v) > 0))
        .unwrap_or(0)
}

/// Runs Algorithm 1 over `g` under `config`.
///
/// # Errors
///
/// * [`MegaError::InvalidConfig`] if the configuration fails validation.
/// * [`MegaError::CoverageUnreachable`] if the safety cap on path length is
///   hit before the coverage target (cannot happen with the shipped policies
///   and a valid θ ≤ 1).
pub fn traverse(g: &Graph, config: &MegaConfig) -> Result<Traversal, MegaError> {
    let _span = mega_obs::span("traverse");
    config.validate()?;
    let working = if config.edge_drop > 0.0 {
        drop_edges(g, config.edge_drop, config.seed)?
    } else {
        g.clone()
    };
    let out = traverse_working(working, config)?;
    emit_traversal_obs(&out);
    Ok(out)
}

/// Runs the walk over an already-prepared working graph (post edge-drop).
fn traverse_working(working: Graph, config: &MegaConfig) -> Result<Traversal, MegaError> {
    let window = resolve_window(&working, config.window);
    let m = working.edge_count();
    let mut st = State::new(&working, window, config.policy, config.seed);
    st.append(start_node(&working));
    complete_walk(&mut st, config)?;
    let out = st.into_output();
    finish(out, window, m, working)
}

/// The main loop of Algorithm 1: extends the walk until every node is
/// visited and the coverage target is met. Also used to finish a stitched
/// multi-agent path (see [`traverse_parallel`]), where it covers whatever
/// the independent agents left open — in particular edges crossing
/// partition cuts.
fn complete_walk(st: &mut State<'_>, config: &MegaConfig) -> Result<(), MegaError> {
    let n = st.g.node_count();
    let m = st.g.edge_count();
    let needed = (config.coverage * m as f64).ceil() as usize;
    let cap = config.max_path_factor * (n + 2 * m + 1);
    while st.unvisited_count > 0 || st.covered_count < needed {
        if st.path.len() >= cap {
            return Err(MegaError::CoverageUnreachable {
                requested: config.coverage,
                achieved: st.covered_count as f64 / m.max(1) as f64,
            });
        }
        let curr = *st.path.last().expect("path starts non-empty");
        let next = if !st.open_nbrs[curr].is_empty() {
            // Pool 1: neighbors over uncovered edges — extend the walk.
            let pool = st.open_nbrs[curr].clone();
            st.select(&pool)
        } else if let Some(v) = st.pop_open() {
            // Pool 2: revisit a node that still has open edges.
            v
        } else if st.unvisited_count > 0 {
            // Pool 3: jump to an unvisited node.
            let pool: Vec<usize> = (0..n).filter(|&v| !st.visited[v]).collect();
            st.select(&pool)
        } else {
            // Coverage not met but stack is empty: jump to any open node.
            // (Reachable when a far region's edges were only partly covered.)
            let pool: Vec<usize> = st.open_nodes.iter().copied().collect();
            if pool.is_empty() {
                // Every edge is covered; needed > m is impossible for θ ≤ 1.
                break;
            }
            st.select(&pool)
        };
        st.append(next);
    }
    Ok(())
}

/// The owned results of a finished walk, extracted so the borrowed working
/// graph can be moved into the returned [`Traversal`].
struct WalkOutput {
    path: Vec<usize>,
    virtual_step: Vec<bool>,
    covered_count: usize,
    revisits: usize,
}

impl State<'_> {
    fn into_output(self) -> WalkOutput {
        WalkOutput {
            path: self.path,
            virtual_step: self.virtual_step,
            covered_count: self.covered_count,
            revisits: self.revisits,
        }
    }
}

fn finish(
    out: WalkOutput,
    window: usize,
    working_edges: usize,
    working: Graph,
) -> Result<Traversal, MegaError> {
    let virtual_edge_count = out.virtual_step.iter().filter(|&&b| b).count();
    Ok(Traversal {
        path: out.path,
        virtual_step: out.virtual_step,
        window,
        covered_edges: out.covered_count,
        working_edges,
        revisits: out.revisits,
        virtual_edge_count,
        working_graph: working,
    })
}

/// Emits the aggregate walk statistics of a finished traversal into the
/// `core.traversal.*` metric namespace (no-op when obs is disabled).
fn emit_traversal_obs(t: &Traversal) {
    if !mega_obs::enabled() {
        return;
    }
    mega_obs::record_value("core.traversal.path_len", t.path.len() as u64);
    mega_obs::record_value("core.traversal.window", t.window as u64);
    // Revisit placement per band window and node re-materialization counts:
    // the distributions hotness-driven tiering consumes. Value histograms
    // are deterministic, so these survive into byte-compared reports.
    for &r in &t.band_window_revisits() {
        mega_obs::record_value("core.traversal.band_window_revisits", r as u64);
    }
    let mut hot_nodes = 0u64;
    for &count in &t.node_hotness() {
        if count > 1 {
            hot_nodes += 1;
            mega_obs::record_value("core.traversal.node_hotness", count as u64);
        }
    }
    mega_obs::counter_add("core.traversal.hot_nodes", hot_nodes);
}

/// Multi-seed objective traversal: `agents` independent walks on contiguous
/// node partitions, stitched back into one path.
///
/// Each agent runs Algorithm 1 on the subgraph induced by its node range
/// (with an agent-specific seed), in parallel on `par`'s worker pool. The
/// local paths are then *replayed* in agent order into a single global walk:
/// junction steps that do not ride an original edge become virtual edges, and
/// every appended node re-scores coverage against the last ω global path
/// entries (Eq. 2's window-overlap condition), so edges coincidentally
/// brought in-band across a stitch count as covered. A final serial
/// completion pass covers what no agent could see — edges crossing partition
/// cuts — and tops coverage up to θ.
///
/// The result is a function of `(g, config, agents)` only: worker threads
/// compute independent pure walks collected in agent order, so the output is
/// **independent of the thread count**. With `agents <= 1` this is exactly
/// [`traverse`].
///
/// # Errors
///
/// Same conditions as [`traverse`].
pub fn traverse_parallel(
    g: &Graph,
    config: &MegaConfig,
    agents: usize,
    par: &crate::parallel::Parallelism,
) -> Result<Traversal, MegaError> {
    let _span = mega_obs::span("traverse_parallel");
    config.validate()?;
    let working = if config.edge_drop > 0.0 {
        drop_edges(g, config.edge_drop, config.seed)?
    } else {
        g.clone()
    };
    let n = working.node_count();
    let agents = agents.clamp(1, n.max(1));
    if agents == 1 {
        let out = traverse_working(working, config)?;
        emit_traversal_obs(&out);
        return Ok(out);
    }
    let window = resolve_window(&working, config.window);
    let m = working.edge_count();

    // Contiguous node partitions of near-equal size.
    let bounds: Vec<(usize, usize)> = (0..agents)
        .map(|a| (a * n / agents, (a + 1) * n / agents))
        .filter(|(lo, hi)| hi > lo)
        .collect();

    // Local config: the working graph already has edges dropped, and every
    // agent uses the globally resolved window so coverage semantics match.
    let local_base = config
        .clone()
        .with_window(crate::config::WindowPolicy::Fixed(window))
        .with_edge_drop(0.0);

    let local_paths = crate::parallel::ordered_map(
        &bounds,
        par.effective_threads(),
        |a, &(lo, hi)| -> Result<Vec<usize>, MegaError> {
            let _agent_span = mega_obs::span("traverse_agent");
            let mut b = if working.is_undirected() {
                mega_graph::GraphBuilder::undirected(hi - lo)
            } else {
                mega_graph::GraphBuilder::directed(hi - lo)
            };
            for (s, d) in working.edges() {
                if (lo..hi).contains(&s) && (lo..hi).contains(&d) {
                    b.edge(s - lo, d - lo)
                        .expect("induced edge ids are in range");
                }
            }
            let sub = b.build().expect("induced subgraph is well-formed");
            let local = traverse_working(
                sub,
                &local_base.clone().with_seed(
                    config
                        .seed
                        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(a as u64 + 1)),
                ),
            )?;
            Ok(local.path.iter().map(|&v| v + lo).collect())
        },
    );

    // Replay the stitched path through one global walk state, then let the
    // standard loop finish the job (cross-partition edges, coverage top-up).
    let mut st = State::new(&working, window, config.policy, config.seed);
    for segment in local_paths {
        for v in segment? {
            st.append(v);
        }
    }
    if st.path.is_empty() {
        st.append(start_node(&working));
    }
    complete_walk(&mut st, config)?;
    let out = st.into_output();
    let result = finish(out, window, m, working)?;
    emit_traversal_obs(&result);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WindowPolicy;
    use mega_graph::{generate, GraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig3a() -> Graph {
        // The 7-node demonstration graph of Fig. 3a.
        GraphBuilder::undirected(7)
            .edges([
                (0, 1),
                (0, 5),
                (1, 2),
                (1, 5),
                (2, 3),
                (2, 6),
                (3, 6),
                (3, 4),
                (4, 6),
                (5, 6),
            ])
            .unwrap()
            .build()
            .unwrap()
    }

    fn full_cfg(window: usize) -> MegaConfig {
        MegaConfig::default().with_window(WindowPolicy::Fixed(window))
    }

    #[test]
    fn covers_all_nodes_and_edges_at_full_coverage() {
        let g = fig3a();
        let t = traverse(&g, &full_cfg(1)).unwrap();
        let mut seen = [false; 7];
        for &v in &t.path {
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(t.covered_edges, g.edge_count());
        assert!((t.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn real_steps_follow_original_edges() {
        let g = fig3a();
        let t = traverse(&g, &full_cfg(2)).unwrap();
        for i in 1..t.path.len() {
            if !t.virtual_step[i] {
                assert!(
                    g.contains_edge(t.path[i - 1], t.path[i]),
                    "step {} -> {} marked real but not an edge",
                    t.path[i - 1],
                    t.path[i]
                );
            }
        }
    }

    #[test]
    fn cycle_needs_no_virtual_edges_or_revisits_for_nodes() {
        // An even cycle has an Eulerian circuit; with ω=1 the walk just goes
        // around it.
        let g = generate::cycle(10).unwrap();
        let t = traverse(&g, &full_cfg(1)).unwrap();
        assert_eq!(t.virtual_edge_count, 0);
        // Path is 0,1,...,9 plus one revisit closing the last edge (9,0).
        assert_eq!(t.path.len(), 11);
        assert_eq!(t.revisits, 1);
    }

    #[test]
    fn disconnected_graph_uses_virtual_jumps() {
        let g = GraphBuilder::undirected(6)
            .edges([(0, 1), (1, 2), (3, 4), (4, 5)])
            .unwrap()
            .build()
            .unwrap();
        let t = traverse(&g, &full_cfg(1)).unwrap();
        assert!(t.virtual_edge_count >= 1);
        assert_eq!(t.covered_edges, 4);
        let mut seen = [false; 6];
        for &v in &t.path {
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn isolated_nodes_appear_in_path() {
        let g = GraphBuilder::undirected(4)
            .edges([(0, 1)])
            .unwrap()
            .build()
            .unwrap();
        let t = traverse(&g, &full_cfg(1)).unwrap();
        for v in 0..4 {
            assert!(t.path.contains(&v), "node {v} missing from path");
        }
    }

    #[test]
    fn partial_coverage_stops_early() {
        let g = generate::complete(12).unwrap(); // 66 edges
        let half = MegaConfig::default()
            .with_window(WindowPolicy::Fixed(1))
            .with_coverage(0.5);
        let t = traverse(&g, &half).unwrap();
        assert!(t.coverage() >= 0.5);
        let full = traverse(&g, &full_cfg(1)).unwrap();
        assert!(t.path.len() < full.path.len());
    }

    #[test]
    fn larger_window_covers_with_fewer_revisits() {
        let g = generate::complete(10).unwrap();
        let t1 = traverse(&g, &full_cfg(1)).unwrap();
        let t4 = traverse(&g, &full_cfg(4)).unwrap();
        assert!(t4.revisits <= t1.revisits);
        assert!(t4.path.len() <= t1.path.len());
        assert_eq!(t4.covered_edges, 45);
    }

    #[test]
    fn revisits_respect_two_sided_floor() {
        let g = generate::barabasi_albert(60, 3, &mut StdRng::seed_from_u64(5)).unwrap();
        for w in [1usize, 2, 4] {
            let t = traverse(&g, &full_cfg(w)).unwrap();
            let floor = crate::window::revisit_floor_two_sided(&g.degrees(), w);
            assert!(
                t.revisits >= floor,
                "window {w}: revisits {} below floor {floor}",
                t.revisits
            );
        }
    }

    #[test]
    fn edge_drop_shortens_path() {
        let g = generate::complete(14).unwrap();
        let base = traverse(&g, &full_cfg(2)).unwrap();
        let dropped = traverse(&g, &full_cfg(2).with_edge_drop(0.5)).unwrap();
        assert!(dropped.working_edges < base.working_edges);
        assert!(dropped.path.len() < base.path.len());
        assert!((dropped.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = generate::erdos_renyi(40, 0.15, &mut StdRng::seed_from_u64(3)).unwrap();
        let a = traverse(&g, &full_cfg(2)).unwrap();
        let b = traverse(&g, &full_cfg(2)).unwrap();
        assert_eq!(a.path, b.path);
        assert_eq!(a.virtual_step, b.virtual_step);
    }

    #[test]
    fn policies_all_reach_full_coverage() {
        let g = generate::erdos_renyi(30, 0.2, &mut StdRng::seed_from_u64(8)).unwrap();
        for policy in [
            CandidatePolicy::CorrelateArgmax,
            CandidatePolicy::FirstCandidate,
            CandidatePolicy::Random,
        ] {
            let cfg = full_cfg(2).with_policy(policy);
            let t = traverse(&g, &cfg).unwrap();
            assert_eq!(t.covered_edges, g.edge_count(), "policy {policy:?}");
        }
    }

    #[test]
    fn start_prefers_odd_degree() {
        // Path graph: endpoints have odd degree; node 0 is one.
        let g = generate::path(5).unwrap();
        assert_eq!(start_node(&g), 0);
        // Star: all leaves odd (degree 1), hub even when n-1 even.
        let g = generate::star(5).unwrap();
        assert_eq!(start_node(&g), 1);
    }

    #[test]
    fn parallel_one_agent_matches_serial() {
        let g = generate::erdos_renyi(50, 0.12, &mut StdRng::seed_from_u64(11)).unwrap();
        let cfg = full_cfg(2);
        let serial = traverse(&g, &cfg).unwrap();
        let par = crate::parallel::Parallelism::pinned(4);
        let p = traverse_parallel(&g, &cfg, 1, &par).unwrap();
        assert_eq!(serial.path, p.path);
        assert_eq!(serial.virtual_step, p.virtual_step);
        assert_eq!(serial.covered_edges, p.covered_edges);
    }

    #[test]
    fn parallel_output_independent_of_thread_count() {
        let g = generate::erdos_renyi(64, 0.1, &mut StdRng::seed_from_u64(12)).unwrap();
        let cfg = full_cfg(2);
        let reference =
            traverse_parallel(&g, &cfg, 4, &crate::parallel::Parallelism::with_threads(1)).unwrap();
        for threads in [2usize, 4, 8] {
            let t = traverse_parallel(&g, &cfg, 4, &crate::parallel::Parallelism::pinned(threads))
                .unwrap();
            assert_eq!(reference.path, t.path, "threads={threads}");
            assert_eq!(reference.virtual_step, t.virtual_step);
            assert_eq!(reference.revisits, t.revisits);
        }
    }

    #[test]
    fn parallel_agents_reach_full_coverage() {
        let g = generate::erdos_renyi(80, 0.08, &mut StdRng::seed_from_u64(13)).unwrap();
        let cfg = full_cfg(3);
        for agents in [2usize, 4, 7] {
            let t = traverse_parallel(&g, &cfg, agents, &crate::parallel::Parallelism::default())
                .unwrap();
            assert_eq!(t.covered_edges, g.edge_count(), "agents={agents}");
            let mut seen = vec![false; g.node_count()];
            for &v in &t.path {
                seen[v] = true;
            }
            assert!(seen.iter().all(|&s| s));
            for i in 1..t.path.len() {
                if !t.virtual_step[i] {
                    assert!(g.contains_edge(t.path[i - 1], t.path[i]));
                }
            }
        }
    }

    #[test]
    fn parallel_agents_clamped_to_node_count() {
        let g = generate::cycle(5).unwrap();
        let t = traverse_parallel(
            &g,
            &full_cfg(1),
            64,
            &crate::parallel::Parallelism::pinned(2),
        )
        .unwrap();
        assert_eq!(t.covered_edges, 5);
    }

    #[test]
    fn band_window_revisits_partition_the_revisit_total() {
        let g = generate::complete(10).unwrap();
        for w in [1usize, 2, 4] {
            let t = traverse(&g, &full_cfg(w)).unwrap();
            let per_window = t.band_window_revisits();
            assert_eq!(per_window.len(), t.path.len().div_ceil(w));
            assert_eq!(
                per_window.iter().sum::<usize>(),
                t.revisits,
                "window {w}: per-window revisits must partition the total"
            );
        }
    }

    #[test]
    fn node_hotness_counts_path_appearances() {
        let g = fig3a();
        let t = traverse(&g, &full_cfg(2)).unwrap();
        let hot = t.node_hotness();
        assert_eq!(hot.len(), 7);
        assert_eq!(hot.iter().sum::<usize>(), t.path.len());
        for (v, &count) in hot.iter().enumerate() {
            assert_eq!(count, t.path.iter().filter(|&&p| p == v).count());
        }
        // Revisits are exactly the appearances beyond each node's first.
        let beyond_first: usize = hot.iter().map(|&c| c.saturating_sub(1)).sum();
        assert_eq!(beyond_first, t.revisits);
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::undirected(1).build().unwrap();
        let t = traverse(&g, &full_cfg(1)).unwrap();
        assert_eq!(t.path, vec![0]);
        assert_eq!(t.covered_edges, 0);
        assert!((t.coverage() - 1.0).abs() < 1e-12);
    }
}
