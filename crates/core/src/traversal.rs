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

use crate::band::{claim_position, sort_slots, BandSlot};
use crate::config::{CandidatePolicy, MegaConfig};
use crate::edge_drop::drop_edges;
use crate::error::MegaError;
use crate::window::resolve_window;
use mega_graph::Graph;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

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
    /// The band slot each covered edge claimed as the walk reached it,
    /// sorted by `(lo, hi)` (see [`crate::band`]).
    pub slots: Vec<BandSlot>,
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

/// Uncovered-edge neighbours per node (the pseudocode's `N` dict) in one
/// flat copy of the CSR targets: row `v`'s open neighbours are the first
/// `len[v]` entries of its CSR row. Removal shifts the rest of the row down,
/// so every open prefix stays sorted — the order argmax ties and `Random`'s
/// index both read.
struct OpenRows<'g> {
    offsets: &'g [usize],
    nbrs: Vec<usize>,
    len: Vec<usize>,
}

impl<'g> OpenRows<'g> {
    fn new(g: &'g Graph) -> Self {
        let csr = g.csr();
        OpenRows {
            offsets: csr.offsets(),
            nbrs: csr.targets().to_vec(),
            len: (0..g.node_count()).map(|v| csr.degree(v)).collect(),
        }
    }

    fn row(&self, v: usize) -> &[usize] {
        let lo = self.offsets[v];
        &self.nbrs[lo..lo + self.len[v]]
    }

    fn is_open(&self, v: usize) -> bool {
        self.len[v] > 0
    }

    fn remove(&mut self, a: usize, b: usize) {
        if let Ok(i) = self.row(a).binary_search(&b) {
            let lo = self.offsets[a];
            let end = lo + self.len[a];
            self.nbrs.copy_within(lo + i + 1..end, lo + i);
            self.len[a] -= 1;
        }
    }
}

struct State<'g> {
    g: &'g Graph,
    window: usize,
    policy: CandidatePolicy,
    rng: StdRng,
    open: OpenRows<'g>,
    /// Per working-graph edge: whether it owns a band slot yet.
    covered: Vec<bool>,
    /// The band slots claimed so far, in `(hi, lo)` order; one per covered
    /// edge.
    slots: Vec<BandSlot>,
    visited: Vec<bool>,
    unvisited_count: usize,
    path: Vec<usize>,
    virtual_step: Vec<bool>,
    stack: Vec<usize>,
    revisits: usize,
    /// The candidate pool of the current step, reused across steps.
    pool: Vec<usize>,
    /// Eq. 2 scores parallel to `pool`, reused across steps.
    scores: Vec<u32>,
}

impl<'g> State<'g> {
    fn new(g: &'g Graph, window: usize, policy: CandidatePolicy, seed: u64) -> Self {
        let n = g.node_count();
        let m = g.edge_count();
        State {
            g,
            window,
            policy,
            rng: StdRng::seed_from_u64(seed),
            open: OpenRows::new(g),
            covered: vec![false; m],
            slots: Vec::with_capacity(m),
            visited: vec![false; n],
            unvisited_count: n,
            path: Vec::with_capacity(n + 2 * m),
            virtual_step: Vec::with_capacity(n + 2 * m),
            stack: Vec::new(),
            revisits: 0,
            pool: Vec::new(),
            scores: Vec::new(),
        }
    }

    fn covered_count(&self) -> usize {
        self.slots.len()
    }

    /// Eq. 2 over the whole pool, scored from the window side: each of the
    /// last ω path entries `p` adds one to every candidate in `N(p)`, found
    /// by binary-searching the shorter of `N(p)` and the sorted pool into the
    /// longer. Entries equal to `common`, a node adjacent to every candidate,
    /// add one to every score and are skipped. The argmax breaks ties by the
    /// smallest id.
    fn correlate_argmax(&mut self, common: Option<usize>) -> usize {
        let pool = &self.pool;
        let scores = &mut self.scores;
        scores.clear();
        scores.resize(pool.len(), 0);
        let lo = self.path.len().saturating_sub(self.window);
        for &p in &self.path[lo..] {
            if Some(p) == common {
                continue;
            }
            let nbrs = self.g.neighbors(p);
            if nbrs.len() <= pool.len() {
                for x in nbrs {
                    if let Ok(k) = pool.binary_search(x) {
                        scores[k] += 1;
                    }
                }
            } else {
                for (k, v) in pool.iter().enumerate() {
                    if nbrs.binary_search(v).is_ok() {
                        scores[k] += 1;
                    }
                }
            }
        }
        let mut best = 0;
        for k in 1..pool.len() {
            if scores[k] > scores[best] || (scores[k] == scores[best] && pool[k] < pool[best]) {
                best = k;
            }
        }
        pool[best]
    }

    /// Selects from the non-empty candidate pool (`self.pool`, sorted)
    /// according to the policy; `common` is as in
    /// [`State::correlate_argmax`].
    fn select(&mut self, common: Option<usize>) -> usize {
        debug_assert!(!self.pool.is_empty());
        match self.policy {
            CandidatePolicy::CorrelateArgmax => self.correlate_argmax(common),
            CandidatePolicy::FirstCandidate => self.pool[0],
            CandidatePolicy::Random => self.pool[self.rng.gen_range(0..self.pool.len())],
        }
    }

    /// Appends `v` to the path, marking the step virtual when it does not ride
    /// an original edge, and claiming a band slot for every uncovered edge
    /// from `v` to the ω previous path entries.
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
        let open = &mut self.open;
        claim_position(
            self.g,
            &self.path,
            self.path.len() - 1,
            self.window,
            &mut self.covered,
            &mut self.slots,
            |u, v| {
                open.remove(u, v);
                open.remove(v, u);
            },
        );
        if self.open.is_open(v) {
            self.stack.push(v);
        }
    }

    /// Pops the stack until a node with uncovered-edge neighbors surfaces.
    fn pop_open(&mut self) -> Option<usize> {
        while let Some(v) = self.stack.pop() {
            if self.open.is_open(v) {
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
/// * [`MegaError::CoverageUnreachable`] if the walk cannot reach the
///   coverage target θ. A directed graph with arcs both ways between two
///   nodes does this at θ = 1: one band slot serves the pair, so only the
///   later arc in the edge list can own it. The safety cap on path length
///   also ends the walk with this error; no shipped policy reaches it.
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

/// Hard cap on path length as a multiple of `n + 2m + 1`, a safety net
/// against pathological revisit loops; no shipped policy reaches it.
const MAX_PATH_FACTOR: usize = 4;

/// The main loop of Algorithm 1: extends the walk until every node is
/// visited and the coverage target is met. Also used to finish a stitched
/// multi-agent path (see [`traverse_parallel`]), where it covers whatever
/// the independent agents left open — in particular edges crossing
/// partition cuts.
fn complete_walk(st: &mut State<'_>, config: &MegaConfig) -> Result<(), MegaError> {
    let n = st.g.node_count();
    let m = st.g.edge_count();
    let needed = (config.coverage * m as f64).ceil() as usize;
    let cap = MAX_PATH_FACTOR * (n + 2 * m + 1);
    let unreachable = |st: &State<'_>| MegaError::CoverageUnreachable {
        requested: config.coverage,
        achieved: st.covered_count() as f64 / m.max(1) as f64,
    };
    while st.unvisited_count > 0 || st.covered_count() < needed {
        if st.path.len() >= cap {
            return Err(unreachable(st));
        }
        let curr = *st.path.last().expect("path starts non-empty");
        st.pool.clear();
        let next = if st.open.is_open(curr) {
            // Pool 1: neighbors over uncovered edges — extend the walk.
            st.pool.extend_from_slice(st.open.row(curr));
            st.select(Some(curr))
        } else if let Some(v) = st.pop_open() {
            // Pool 2: revisit a node that still has open edges.
            v
        } else if st.unvisited_count > 0 {
            // Pool 3: jump to an unvisited node.
            st.pool.extend((0..n).filter(|&v| !st.visited[v]));
            st.select(None)
        } else {
            // Coverage not met but stack is empty: jump to any open node.
            // (Reachable when a far region's edges were only partly covered.)
            st.pool.extend((0..n).filter(|&v| st.open.is_open(v)));
            if st.pool.is_empty() {
                // No open row is left, yet edges lack a slot: a directed
                // graph's two arcs between one pair of nodes share its
                // slots, which only the later arc can own.
                return Err(unreachable(st));
            }
            st.select(None)
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
    slots: Vec<BandSlot>,
    revisits: usize,
}

impl State<'_> {
    fn into_output(self) -> WalkOutput {
        let mut slots = self.slots;
        sort_slots(&mut slots);
        WalkOutput {
            path: self.path,
            virtual_step: self.virtual_step,
            slots,
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
        covered_edges: out.slots.len(),
        slots: out.slots,
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
    mega_obs::record_values(
        "core.traversal.band_window_revisits",
        t.band_window_revisits().into_iter().map(|r| r as u64),
    );
    let hot: Vec<u64> = t
        .node_hotness()
        .into_iter()
        .filter(|&count| count > 1)
        .map(|count| count as u64)
        .collect();
    mega_obs::counter_add("core.traversal.hot_nodes", hot.len() as u64);
    mega_obs::record_values("core.traversal.node_hotness", hot);
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
    fn reciprocal_arcs_report_unreachable_coverage() {
        // 0→1 and 1→0 share every band slot between nodes 0 and 1, and only
        // the later arc can own one: full coverage is out of reach.
        let g = GraphBuilder::directed(3)
            .edges([(0, 1), (1, 0), (1, 2)])
            .unwrap()
            .build()
            .unwrap();
        let err = traverse(&g, &MegaConfig::default()).unwrap_err();
        assert_eq!(
            err,
            MegaError::CoverageUnreachable {
                requested: 1.0,
                achieved: 2.0 / 3.0,
            }
        );
        let t = traverse(&g, &MegaConfig::default().with_coverage(0.6)).unwrap();
        assert!(t.coverage() >= 0.6);
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
