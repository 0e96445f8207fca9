//! Makespan-preserving graph reduction: the pipeline between trace
//! compilation and analysis lowering.
//!
//! The LP stays tractable by exploiting the *structure* of the MPI
//! dependency graph before the solver ever sees it (paper §II-D3 credits
//! presolve; here the same reductions happen at the graph level, where
//! they also speed up the envelope and evaluation backends). Three pass
//! families, all exact — the reduced graph predicts the same makespan
//! `T(L, G, o)`, the same sensitivities and the same critical latencies
//! for **every** parameter value:
//!
//! * **serial-chain contraction** — a vertex whose single `Local`
//!   in-edge comes from a single-successor vertex merges into that
//!   predecessor, coefficients accumulated (`max`-free segments are
//!   associative);
//! * **vertex folds** (the generalised zero-weight merge) — a vertex
//!   with exactly one `Local` *out*-edge folds forward into its consumer,
//!   its cost pushed onto every in-edge (`max(a, b) + c =
//!   max(a + c, b + c)`): this is what actually removes LP rows, because
//!   it dissolves multi-predecessor join vertices into their unique
//!   consumer. The mirror backward fold (single `Local` in-edge) folds
//!   pass-through vertices into their producer.
//! * **redundant-dependency elimination** — an in-edge whose implied
//!   bound is dominated by a sibling's for every non-negative parameter
//!   value is dropped: sibling edges whose sources share an exact
//!   single-predecessor chain root are compared symbolically, and
//!   zero-cost `Local` edges with an alternative path (bounded DFS) are
//!   transitively redundant.
//!
//! The pipeline carries a full **provenance map**: every reduced vertex
//! remembers the ordered original vertices it absorbed, every reduced
//! edge the original vertices folded into it, so critical paths (and with
//! them `λ` attributions, `ρ` shares and critical-latency certificates)
//! lift back to original graph entities via [`ReducedGraph::lift_path`].
//!
//! The reduced graph is for *analysis*: like [`ExecGraph::contracted`]
//! (now a thin wrapper over the chains-only pipeline), `Send`/`Recv`
//! semantics survive only on unmerged vertices, so don't feed it to the
//! simulator.

use crate::graph::{CostExpr, EdgeKind, EdgeRef, ExecGraph, GraphBuilder, Vertex, VertexKind};
use crate::view::{alg1_row_count, GraphView};
use llamp_util::FxHashMap;

/// Which reduction passes run, and their effort bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceConfig {
    /// Serial-chain contraction (coefficient accumulation).
    pub chains: bool,
    /// Forward/backward vertex folds (generalised zero-weight merging).
    pub folds: bool,
    /// Redundant-dependency elimination (sibling domination + bounded
    /// transitive search).
    pub redundant: bool,
    /// Maximum pass rounds; the pipeline stops earlier at a fixpoint.
    pub max_rounds: u32,
    /// Visited-vertex cap per transitive-elimination search.
    pub dfs_cap: usize,
    /// Worker threads for the region-parallel path (`0` = one per
    /// available core). Thread count never changes the output: regions
    /// are reduced independently and stitched in rank order, so any
    /// thread count produces the same bytes.
    pub threads: usize,
    /// Minimum vertex count before the region-parallel path engages.
    /// Below it (or with a single rank) the pipeline runs the classic
    /// whole-graph fixpoint, which can reduce slightly further on small
    /// graphs (cross-rank edges are never contracted on the region path,
    /// and redundancy searches do not look across region boundaries).
    pub par_threshold: usize,
}

impl Default for ReduceConfig {
    fn default() -> Self {
        Self {
            chains: true,
            folds: true,
            redundant: true,
            max_rounds: 8,
            dfs_cap: 128,
            threads: 0,
            par_threshold: 65_536,
        }
    }
}

impl ReduceConfig {
    /// No reduction at all: [`reduce()`] returns the identity
    /// [`ReducedGraph`] (the raw graph with trivial provenance).
    pub fn none() -> Self {
        Self {
            chains: false,
            folds: false,
            redundant: false,
            max_rounds: 0,
            dfs_cap: 0,
            threads: 0,
            par_threshold: usize::MAX,
        }
    }

    /// Serial-chain contraction only — the historical
    /// [`ExecGraph::contracted`] behaviour.
    pub fn chains_only() -> Self {
        Self {
            chains: true,
            folds: false,
            redundant: false,
            ..Self::default()
        }
    }

    /// True when no pass is enabled.
    pub fn is_identity(&self) -> bool {
        self.max_rounds == 0 || !(self.chains || self.folds || self.redundant)
    }
}

/// What the pipeline did: sizes before → after plus per-pass counters.
/// Campaigns aggregate these into the run summary exactly like the LP
/// `SolveStats` — being cache-state dependent they live *beside*, never
/// inside, deterministic result files. Wall-clock pass timings are not
/// carried here: each pass runs under an `llamp-obs` span
/// (`reduce/reduce.chains` etc.), so timing lives in the telemetry
/// channel where it belongs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReductionStats {
    /// Vertices in the input graph.
    pub vertices_before: u64,
    /// Vertices after reduction.
    pub vertices_after: u64,
    /// Edges in the input graph.
    pub edges_before: u64,
    /// Edges after reduction.
    pub edges_after: u64,
    /// Algorithm-1 LP rows the input graph would generate.
    pub rows_before: u64,
    /// Algorithm-1 LP rows the reduced graph generates.
    pub rows_after: u64,
    /// Serial-chain merges performed.
    pub chain_merges: u64,
    /// Forward/backward vertex folds performed.
    pub folds: u64,
    /// Redundant in-edges removed.
    pub redundant_removed: u64,
    /// Pass rounds executed before the fixpoint (or the round cap).
    pub rounds: u64,
}

impl ReductionStats {
    /// Accumulate another graph's reduction counters (campaign
    /// aggregation).
    pub fn merge(&mut self, other: &ReductionStats) {
        self.vertices_before += other.vertices_before;
        self.vertices_after += other.vertices_after;
        self.edges_before += other.edges_before;
        self.edges_after += other.edges_after;
        self.rows_before += other.rows_before;
        self.rows_after += other.rows_after;
        self.chain_merges += other.chain_merges;
        self.folds += other.folds;
        self.redundant_removed += other.redundant_removed;
        self.rounds += other.rounds;
    }

    /// True when no graph went through the pipeline (all counters zero).
    pub fn is_empty(&self) -> bool {
        self.vertices_before == 0
    }

    /// Human-readable block (the shape `llamp run` prints).
    pub fn render(&self) -> String {
        let ratio = |before: u64, after: u64| -> String {
            if after == 0 {
                "-".into()
            } else {
                format!("{:.2}x", before as f64 / after as f64)
            }
        };
        format!(
            "vertices        {} -> {} ({})\n\
             edges           {} -> {} ({})\n\
             lp rows         {} -> {} ({})\n\
             passes          {} chain merges, {} folds, {} redundant edges, {} rounds",
            self.vertices_before,
            self.vertices_after,
            ratio(self.vertices_before, self.vertices_after),
            self.edges_before,
            self.edges_after,
            ratio(self.edges_before, self.edges_after),
            self.rows_before,
            self.rows_after,
            ratio(self.rows_before, self.rows_after),
            self.chain_merges,
            self.folds,
            self.redundant_removed,
            self.rounds,
        )
    }
}

/// The reduced IR: a smaller [`ExecGraph`] plus the provenance map that
/// lifts analysis results back to original graph entities. Implements
/// [`GraphView`], so every analysis builder consumes it exactly like a
/// raw graph.
#[derive(Debug, Clone)]
pub struct ReducedGraph {
    graph: ExecGraph,
    /// CSR: reduced vertex → ordered original member ids (head first).
    member_start: Vec<u32>,
    member_ids: Vec<u32>,
    /// Flat slot offsets: `pred_offset[v] + i` indexes the via list of
    /// `graph.preds(v)[i]`.
    pred_offset: Vec<u32>,
    /// CSR over pred slots: original vertices folded into each edge,
    /// ordered source-side → target-side.
    via_start: Vec<u32>,
    via_ids: Vec<u32>,
    /// Original vertex → the reduced vertex it is accounted under.
    home: Vec<u32>,
    stats: ReductionStats,
}

impl ReducedGraph {
    /// The identity reduction: the raw graph, trivial provenance, zeroed
    /// pass counters (sizes recorded unchanged).
    pub fn identity(g: &ExecGraph) -> Self {
        let n = g.num_vertices();
        let mut pred_offset = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        pred_offset.push(0);
        for v in 0..n as u32 {
            acc += g.preds(v).len() as u32;
            pred_offset.push(acc);
        }
        let rows = alg1_row_count(g);
        Self {
            member_start: (0..=n as u32).collect(),
            member_ids: (0..n as u32).collect(),
            pred_offset,
            via_start: vec![0; acc as usize + 1],
            via_ids: Vec::new(),
            home: (0..n as u32).collect(),
            stats: ReductionStats {
                vertices_before: n as u64,
                vertices_after: n as u64,
                edges_before: g.num_edges() as u64,
                edges_after: g.num_edges() as u64,
                rows_before: rows,
                rows_after: rows,
                ..ReductionStats::default()
            },
            graph: g.clone(),
        }
    }

    /// The reduced execution graph itself.
    pub fn graph(&self) -> &ExecGraph {
        &self.graph
    }

    /// Discard the provenance, keeping only the reduced graph.
    pub fn into_graph(self) -> ExecGraph {
        self.graph
    }

    /// What the pipeline did.
    pub fn stats(&self) -> &ReductionStats {
        &self.stats
    }

    /// Ordered original member vertices of a reduced vertex (head first;
    /// always non-empty).
    pub fn members(&self, v: u32) -> &[u32] {
        let s = self.member_start[v as usize] as usize;
        let e = self.member_start[v as usize + 1] as usize;
        &self.member_ids[s..e]
    }

    /// The original vertex a reduced vertex stands for (its chain head).
    pub fn lift_vertex(&self, v: u32) -> u32 {
        self.members(v)[0]
    }

    /// The reduced vertex an *original* vertex is accounted under —
    /// the inverse of [`ReducedGraph::members`] /
    /// [`ReducedGraph::edge_via`] (vertices folded into an edge map to
    /// the edge's target).
    pub fn home_of(&self, orig: u32) -> u32 {
        self.home[orig as usize]
    }

    /// Original vertices folded into the `i`-th predecessor edge of `v`
    /// (ordered from the source side to `v`).
    pub fn edge_via(&self, v: u32, i: usize) -> &[u32] {
        let slot = self.pred_offset[v as usize] as usize + i;
        let s = self.via_start[slot] as usize;
        let e = self.via_start[slot + 1] as usize;
        &self.via_ids[s..e]
    }

    /// Lift a path of reduced vertices (e.g. a critical path reported by
    /// the evaluator) back to a path of **original** vertices: member
    /// chains are expanded in order and the original vertices folded into
    /// each traversed edge are spliced between them. Consecutive lifted
    /// vertices are connected in the original graph.
    pub fn lift_path(&self, path: &[u32]) -> Vec<u32> {
        let mut out = Vec::new();
        for (i, &v) in path.iter().enumerate() {
            if i > 0 {
                let prev = path[i - 1];
                let idx = self
                    .graph
                    .preds(v)
                    .iter()
                    .position(|e| e.other == prev)
                    .expect("lift_path follows reduced edges");
                out.extend_from_slice(self.edge_via(v, idx));
            }
            out.extend_from_slice(self.members(v));
        }
        out
    }
}

impl GraphView for ReducedGraph {
    fn nranks(&self) -> u32 {
        self.graph.nranks()
    }

    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn vertex(&self, v: u32) -> &Vertex {
        self.graph.vertex(v)
    }

    fn preds(&self, v: u32) -> &[EdgeRef] {
        self.graph.preds(v)
    }

    fn succs(&self, v: u32) -> &[EdgeRef] {
        self.graph.succs(v)
    }

    fn topo_order(&self) -> &[u32] {
        self.graph.topo_order()
    }
}

impl ExecGraph {
    /// Run the reduction pipeline on this graph (see [`reduce()`]).
    pub fn reduced(&self, cfg: &ReduceConfig) -> ReducedGraph {
        reduce(self, cfg)
    }
}

/// Run the configured reduction passes to a fixpoint (bounded by
/// `cfg.max_rounds`) and package the result with its provenance map.
///
/// Graphs at or above `cfg.par_threshold` vertices (with more than one
/// rank) take the **region-parallel** path: the graph is partitioned into
/// rank-local regions, each cross-rank edge is split into two per-region
/// half-edges (see `Reducer::from_region`), regions reduce
/// independently on `cfg.threads` workers, and the survivors are
/// stitched back in rank order — halves recombined into whole cross
/// edges — for a serial finishing fixpoint. The output is a pure
/// function of the graph and the config: any thread count yields
/// bit-identical results.
pub fn reduce(g: &ExecGraph, cfg: &ReduceConfig) -> ReducedGraph {
    if cfg.is_identity() {
        return ReducedGraph::identity(g);
    }
    let outer = llamp_obs::span("reduce");
    let reduced = if g.num_vertices() >= cfg.par_threshold && g.nranks() > 1 {
        reduce_partitioned(g, cfg)
    } else {
        let mut r = Reducer::from_graph(g);
        r.stats.vertices_before = g.num_vertices() as u64;
        r.stats.edges_before = g.num_edges() as u64;
        r.stats.rows_before = alg1_row_count(g);
        run_rounds(&mut r, cfg);
        r.finish(g.num_vertices(), Vec::new())
    };
    if llamp_obs::is_enabled() {
        let s = reduced.stats();
        outer.field_u64("vertices_before", s.vertices_before);
        outer.field_u64("vertices_after", s.vertices_after);
        outer.field_u64("rows_before", s.rows_before);
        outer.field_u64("rows_after", s.rows_after);
        outer.field_u64("rounds", s.rounds);
    }
    reduced
}

/// The pass fixpoint shared by the whole-graph path, each rank-local
/// region and the stitched finishing stage.
fn run_rounds(r: &mut Reducer, cfg: &ReduceConfig) {
    let dbg = std::env::var_os("LLAMP_PASS_DEBUG").is_some();
    for _ in 0..cfg.max_rounds {
        let mut changed = 0u64;
        if cfg.chains {
            changed += dbg_pass(dbg, r, "chains", |r| {
                traced_pass("reduce.chains", || r.pass_chains())
            });
        }
        if cfg.folds {
            changed += dbg_pass(dbg, r, "folds", |r| {
                traced_pass("reduce.folds", || r.pass_folds())
            });
        }
        if cfg.redundant {
            changed += dbg_pass(dbg, r, "redundant", |r| {
                traced_pass("reduce.redundant", || r.pass_redundant(cfg.dfs_cap))
            });
        }
        r.stats.rounds += 1;
        if changed == 0 {
            break;
        }
    }
}

fn dbg_pass(dbg: bool, r: &mut Reducer, name: &str, f: impl FnOnce(&mut Reducer) -> u64) -> u64 {
    if !dbg {
        return f(r);
    }
    let n = r.valive.iter().filter(|&&a| a).count();
    let e = r.edges.iter().filter(|e| e.alive).count();
    let t = std::time::Instant::now();
    let changed = f(r);
    eprintln!(
        "[pass] {name:10} n={n:8} e={e:8} changed={changed:8} {:8.1} ms",
        t.elapsed().as_secs_f64() * 1e3
    );
    changed
}

/// Region-parallel reduction: partition by vertex rank, split cross-rank
/// edges into per-region half-edges (see [`Reducer::from_region`]),
/// reduce each region independently, stitch survivors in rank order and
/// run a serial finishing fixpoint over the merged graph.
///
/// Determinism argument: each region's reduction is a pure function of
/// its region subgraph (intra edges plus its halves of the cross edges);
/// regions only read their own arenas, so worker scheduling cannot
/// influence them. The stitch iterates regions in rank order and each
/// region's arena in allocation order, then recombines cross-edge halves
/// in original arena order — the two halves of a cross edge live in
/// different regions and touch disjoint fields (source-side cost/via
/// prefix vs target-side cost/via suffix), so their merge is order-free.
/// Every id assignment is order-fixed, and the finishing fixpoint plus
/// [`Reducer::finish`] are serial. Bit-identical output at any thread
/// count follows.
fn reduce_partitioned(g: &ExecGraph, cfg: &ReduceConfig) -> ReducedGraph {
    let n = g.num_vertices();
    let nranks = g.nranks() as usize;

    let part_span = llamp_obs::span("reduce.par.partition");
    // Partition vertices into rank regions (ascending global id).
    let mut region_verts: Vec<Vec<u32>> = vec![Vec::new(); nranks];
    let mut local_of = vec![0u32; n];
    for v in 0..n as u32 {
        let r = g.vertex(v).rank as usize;
        local_of[v as usize] = region_verts[r].len() as u32;
        region_verts[r].push(v);
    }
    // Collect cross-rank edges (in arena order) and hand each region the
    // list of halves it owns: `(cross id, is_source)` pairs. `src_pos` /
    // `dst_pos` remember each half's position in its region's incident
    // list so the stitch can find it again.
    let mut cross: Vec<(u32, u32, EdgeKind, CostExpr)> = Vec::new();
    let mut incident: Vec<Vec<(u32, bool)>> = vec![Vec::new(); nranks];
    let mut src_pos: Vec<u32> = Vec::new();
    let mut dst_pos: Vec<u32> = Vec::new();
    for v in 0..n as u32 {
        let rt = g.vertex(v).rank;
        for e in g.preds(v) {
            let rs = g.vertex(e.other).rank;
            if rs != rt {
                let cid = cross.len() as u32;
                src_pos.push(incident[rs as usize].len() as u32);
                incident[rs as usize].push((cid, true));
                dst_pos.push(incident[rt as usize].len() as u32);
                incident[rt as usize].push((cid, false));
                cross.push((e.other, v, e.kind, e.cost));
            }
        }
    }
    drop(part_span);
    llamp_obs::counter("reduce.par.regions", nranks as u64);

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        cfg.threads
    };
    // Each worker builds, reduces and compacts one region at a time, so
    // an arena's memory is recycled into the next region instead of
    // growing the peak footprint (and the kernel's fault bill).
    let workers = threads.min(nranks).max(1);
    let mut outs: Vec<Option<RegionOut>> = (0..nranks).map(|_| None).collect();
    let reduce_region = |r: usize| {
        let mut arena = Reducer::from_region(g, &region_verts[r], &local_of, &cross, &incident[r]);
        run_rounds(&mut arena, cfg);
        arena.into_region_out(incident[r].len())
    };
    if workers <= 1 {
        for (r, slot) in outs.iter_mut().enumerate() {
            *slot = Some(reduce_region(r));
        }
    } else {
        let chunk = nranks.div_ceil(workers);
        // The workers record into the caller's recorder; they reach no
        // fault site, so the faults handle stays behind.
        let recorder = &llamp_obs::current();
        std::thread::scope(|s| {
            for (ci, slice) in outs.chunks_mut(chunk).enumerate() {
                let reduce_region = &reduce_region;
                s.spawn(move || {
                    let _recorder = recorder.as_ref().map(llamp_obs::Recorder::install);
                    let g = llamp_obs::span("reduce.par.worker");
                    for (i, slot) in slice.iter_mut().enumerate() {
                        *slot = Some(reduce_region(ci * chunk + i));
                    }
                    if llamp_obs::is_enabled() {
                        g.field_u64("regions", slice.len() as u64);
                    }
                });
            }
        });
    }
    let mut outs: Vec<RegionOut> = outs.into_iter().map(|o| o.expect("region ran")).collect();

    // Stitch: survivors of each region in rank order, then the
    // recombined cross edges, then a serial finishing fixpoint.
    let stitch_span = llamp_obs::span("reduce.par.stitch");
    let mut stats = ReductionStats::default();
    for o in &outs {
        stats.chain_merges += o.stats.chain_merges;
        stats.folds += o.stats.folds;
        stats.redundant_removed += o.stats.redundant_removed;
        stats.rounds = stats.rounds.max(o.stats.rounds);
    }
    stats.vertices_before = n as u64;
    stats.edges_before = g.num_edges() as u64;
    stats.rows_before = alg1_row_count(g);

    let n_surv: usize = outs.iter().map(|o| o.verts.len()).sum();
    let e_surv: usize = outs.iter().map(|o| o.edges.len()).sum::<usize>() + cross.len();
    // Survivor-local index -> stitched id offset, per region (rank order).
    let mut base = Vec::with_capacity(nranks);
    let mut acc = 0u32;
    for o in &outs {
        base.push(acc);
        acc += o.verts.len() as u32;
    }
    let mut st = Reducer {
        nranks: g.nranks(),
        verts: Vec::with_capacity(n_surv),
        valive: vec![true; n_surv],
        members: Vec::with_capacity(n_surv),
        head: Vec::with_capacity(n_surv),
        first_virtual: n_surv as u32,
        edges: Vec::with_capacity(e_surv),
        inc: vec![Vec::new(); n_surv],
        out: vec![Vec::new(); n_surv],
        stats,
    };
    // Region edges that died carrying provenance (redundant-eliminated
    // after folds routed vertices through them) still owe those vertices
    // a home: remember the dead edge's target by its original head id.
    let mut dead_via: Vec<(u32, Vec<u32>)> = Vec::new();
    let push_edge = |st: &mut Reducer, e: REdge| {
        let id = st.edges.len() as u32;
        st.inc[e.to as usize].push(id);
        st.out[e.from as usize].push(id);
        st.edges.push(e);
    };
    for (r, o) in outs.iter_mut().enumerate() {
        let b = base[r];
        st.verts.append(&mut o.verts);
        st.head.append(&mut o.head);
        st.members.append(&mut o.members);
        dead_via.append(&mut o.dead_via);
        for e in o.edges.drain(..) {
            push_edge(
                &mut st,
                REdge {
                    from: e.from + b,
                    to: e.to + b,
                    ..e
                },
            );
        }
    }
    // Recombine each cross edge from its two halves: the source half's
    // current origin and accumulated (cost, via prefix) from the source
    // region, the target half's current target and (cost, via suffix)
    // from the target region.
    for (cid, &(gf, gt, kind, _)) in cross.iter().enumerate() {
        let sr = g.vertex(gf).rank as usize;
        let tr = g.vertex(gt).rank as usize;
        let (sf, scost, mut via) = {
            let h = &mut outs[sr].halves[src_pos[cid] as usize];
            (h.0, h.1, std::mem::take(&mut h.2))
        };
        let (tt, tcost, tvia) = {
            let h = &mut outs[tr].halves[dst_pos[cid] as usize];
            (h.0, h.1, std::mem::take(&mut h.2))
        };
        via.extend(tvia);
        debug_assert!(
            sf != u32::MAX && tt != u32::MAX,
            "cross-edge endpoint lost in region reduction"
        );
        push_edge(
            &mut st,
            REdge {
                from: sf + base[sr],
                to: tt + base[tr],
                kind,
                cost: scost.add(&tcost),
                via,
                alive: true,
            },
        );
    }
    drop(stitch_span);
    run_rounds(&mut st, cfg);
    st.finish(n, dead_via)
}

/// The compact survivor set extracted from one region's arena (see
/// [`Reducer::into_region_out`]); everything the stitch needs, in a
/// footprint proportional to the *reduced* region.
struct RegionOut {
    /// Surviving real vertices in arena-slot (= ascending original id)
    /// order, with their head ids and member lists.
    verts: Vec<Vertex>,
    head: Vec<u32>,
    members: Vec<Vec<u32>>,
    /// Live intra-region edges in arena order, endpoints renumbered to
    /// survivor-local indexes.
    edges: Vec<REdge>,
    /// Via lists of dead intra-region edges, keyed by the dead edge's
    /// target as an original head id.
    dead_via: Vec<(u32, Vec<u32>)>,
    /// Per incident half-edge (same order as the region's incident
    /// list): the real endpoint as a survivor-local index, plus the
    /// half's accumulated cost and via list.
    halves: Vec<(u32, CostExpr, Vec<u32>)>,
    stats: ReductionStats,
}

/// Run one reduction pass under an obs span carrying its change count.
fn traced_pass(name: &'static str, f: impl FnOnce() -> u64) -> u64 {
    let g = llamp_obs::span(name);
    let changed = f();
    if llamp_obs::is_enabled() {
        g.field_u64("changed", changed);
    }
    changed
}

/// One mutable edge of the reduction arena. Edges are only ever rewired
/// or killed, never created, so arena indices are stable and every pass
/// iterating them is deterministic.
#[derive(Debug, Clone)]
struct REdge {
    from: u32,
    to: u32,
    kind: EdgeKind,
    cost: CostExpr,
    /// Original vertices folded into this edge, source-side first.
    via: Vec<u32>,
    alive: bool,
}

struct Reducer {
    nranks: u32,
    verts: Vec<Vertex>,
    valive: Vec<bool>,
    /// Ordered original members absorbed by each live vertex (head
    /// first; starts as the vertex itself).
    members: Vec<Vec<u32>>,
    /// Arena slot -> **original** graph vertex id (`members[v][0]`,
    /// stable even after the member list is taken during stitching). On
    /// the whole-graph path this is the identity.
    head: Vec<u32>,
    /// Slots `>= first_virtual` are per-cross-edge boundary anchors on
    /// the region path (see [`Reducer::from_region`]): zero-cost
    /// vertices with the sentinel rank `u32::MAX`, so the same-rank
    /// guards in every pass keep them inert. Equal to `verts.len()` on
    /// the whole-graph path and the stitched arena.
    first_virtual: u32,
    edges: Vec<REdge>,
    /// Incoming/outgoing edge-id lists. Entries can go stale when an
    /// edge dies or is rewired; readers filter, `compact` prunes.
    inc: Vec<Vec<u32>>,
    out: Vec<Vec<u32>>,
    stats: ReductionStats,
}

impl Reducer {
    fn from_graph(g: &ExecGraph) -> Self {
        let n = g.num_vertices();
        let mut edges = Vec::with_capacity(g.num_edges());
        let mut inc: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n as u32 {
            for e in g.preds(v) {
                let id = edges.len() as u32;
                edges.push(REdge {
                    from: e.other,
                    to: v,
                    kind: e.kind,
                    cost: e.cost,
                    via: Vec::new(),
                    alive: true,
                });
                inc[v as usize].push(id);
                out[e.other as usize].push(id);
            }
        }
        Self {
            nranks: g.nranks(),
            verts: g.vertices().to_vec(),
            valive: vec![true; n],
            members: (0..n as u32).map(|v| vec![v]).collect(),
            head: (0..n as u32).collect(),
            first_virtual: n as u32,
            edges,
            inc,
            out,
            stats: ReductionStats::default(),
        }
    }

    /// A rank-local region arena: `verts` are the region's original
    /// vertex ids (ascending), edges are the intra-region edges in arena
    /// order. Members and via lists carry **original** ids.
    ///
    /// Each cross-region edge incident on this region becomes a
    /// **half-edge** anchored to its own virtual boundary vertex: a
    /// source half `u -> B` (zero cost) for an outgoing cross edge, a
    /// target half `B -> v` (carrying the cross edge's cost) for an
    /// incoming one. The anchors have rank `u32::MAX` and degree one, so
    /// no pass can merge, fold or eliminate them — but every *real*
    /// vertex now sees its full global degree, and the generic rewiring
    /// in the passes transforms the halves exactly as it would the cross
    /// edge itself (cost pushes accumulate on the half, folded vertices
    /// land in its via list, merges move its real endpoint). The stitch
    /// recombines the two halves of each cross edge afterwards.
    ///
    /// `incident` lists this region's (cross-edge id, is-source) pairs in
    /// cross-arena order; the `k`-th entry's half-edge gets arena id
    /// `intra_edge_count + k`.
    fn from_region(
        g: &ExecGraph,
        verts: &[u32],
        local_of: &[u32],
        cross: &[(u32, u32, EdgeKind, CostExpr)],
        incident: &[(u32, bool)],
    ) -> Self {
        let n = verts.len();
        let total = n + incident.len();
        let mut edges = Vec::new();
        let mut inc: Vec<Vec<u32>> = vec![Vec::new(); total];
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); total];
        for (lv, &gv) in verts.iter().enumerate() {
            let rank = g.vertex(gv).rank;
            for e in g.preds(gv) {
                if g.vertex(e.other).rank != rank {
                    continue;
                }
                let lu = local_of[e.other as usize];
                let id = edges.len() as u32;
                edges.push(REdge {
                    from: lu,
                    to: lv as u32,
                    kind: e.kind,
                    cost: e.cost,
                    via: Vec::new(),
                    alive: true,
                });
                inc[lv].push(id);
                out[lu as usize].push(id);
            }
        }
        let mut arena: Vec<Vertex> = Vec::with_capacity(total);
        arena.extend(verts.iter().map(|&gv| *g.vertex(gv)));
        let mut members: Vec<Vec<u32>> = Vec::with_capacity(total);
        members.extend(verts.iter().map(|&gv| vec![gv]));
        let mut head = Vec::with_capacity(total);
        head.extend_from_slice(verts);
        for (k, &(cid, is_src)) in incident.iter().enumerate() {
            let b = (n + k) as u32;
            arena.push(Vertex {
                rank: u32::MAX,
                kind: VertexKind::Calc,
                cost: CostExpr::ZERO,
            });
            members.push(Vec::new());
            head.push(u32::MAX);
            let (gf, gt, kind, cost) = cross[cid as usize];
            let eid = edges.len() as u32;
            if is_src {
                let lu = local_of[gf as usize];
                edges.push(REdge {
                    from: lu,
                    to: b,
                    kind,
                    cost: CostExpr::ZERO,
                    via: Vec::new(),
                    alive: true,
                });
                out[lu as usize].push(eid);
                inc[b as usize].push(eid);
            } else {
                let lv = local_of[gt as usize];
                edges.push(REdge {
                    from: b,
                    to: lv,
                    kind,
                    cost,
                    via: Vec::new(),
                    alive: true,
                });
                inc[lv as usize].push(eid);
                out[b as usize].push(eid);
            }
        }
        Self {
            nranks: g.nranks(),
            verts: arena,
            valive: vec![true; total],
            members,
            head,
            first_virtual: n as u32,
            edges,
            inc,
            out,
            stats: ReductionStats::default(),
        }
    }

    /// Consume a reduced region arena into its compact survivor set.
    /// `n_incident` is the region's half-edge count; halves occupy the
    /// last `n_incident` arena edge slots (see [`Reducer::from_region`]).
    fn into_region_out(mut self, n_incident: usize) -> RegionOut {
        let fv = self.first_virtual as usize;
        let n_intra = self.edges.len() - n_incident;
        let mut surv_of = vec![u32::MAX; fv];
        let mut verts = Vec::new();
        let mut head = Vec::new();
        let mut members = Vec::new();
        for (lv, slot) in surv_of.iter_mut().enumerate() {
            if self.valive[lv] {
                *slot = verts.len() as u32;
                verts.push(self.verts[lv]);
                head.push(self.head[lv]);
                members.push(std::mem::take(&mut self.members[lv]));
            }
        }
        let mut edges = Vec::new();
        let mut dead_via = Vec::new();
        for e in &mut self.edges[..n_intra] {
            if e.alive {
                let (f, t) = (surv_of[e.from as usize], surv_of[e.to as usize]);
                debug_assert!(f != u32::MAX && t != u32::MAX, "live edge endpoint died");
                edges.push(REdge {
                    from: f,
                    to: t,
                    kind: e.kind,
                    cost: e.cost,
                    via: std::mem::take(&mut e.via),
                    alive: true,
                });
            } else if !e.via.is_empty() {
                dead_via.push((self.head[e.to as usize], std::mem::take(&mut e.via)));
            }
        }
        let mut halves = Vec::with_capacity(n_incident);
        for e in &mut self.edges[n_intra..] {
            debug_assert!(e.alive, "boundary half-edge died in region pass");
            // The real endpoint (the other one is this half's virtual
            // boundary anchor).
            let real = if (e.from as usize) < fv { e.from } else { e.to };
            halves.push((surv_of[real as usize], e.cost, std::mem::take(&mut e.via)));
        }
        RegionOut {
            verts,
            head,
            members,
            edges,
            dead_via,
            halves,
            stats: self.stats,
        }
    }

    fn live_in(&self, v: u32) -> Vec<u32> {
        self.inc[v as usize]
            .iter()
            .copied()
            .filter(|&e| self.edges[e as usize].alive && self.edges[e as usize].to == v)
            .collect()
    }

    fn live_out(&self, v: u32) -> Vec<u32> {
        self.out[v as usize]
            .iter()
            .copied()
            .filter(|&e| self.edges[e as usize].alive && self.edges[e as usize].from == v)
            .collect()
    }

    /// Prune stale adjacency entries (dead or rewired edges).
    fn compact(&mut self) {
        for v in 0..self.verts.len() {
            let edges = &self.edges;
            self.inc[v].retain(|&e| edges[e as usize].alive && edges[e as usize].to == v as u32);
            self.out[v].retain(|&e| edges[e as usize].alive && edges[e as usize].from == v as u32);
        }
    }

    /// Topological order of the live subgraph (Kahn, ascending-id queue
    /// seeding — deterministic).
    fn topo(&self) -> Vec<u32> {
        let n = self.verts.len();
        let mut indeg = vec![0u32; n];
        for e in &self.edges {
            if e.alive {
                indeg[e.to as usize] += 1;
            }
        }
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&v| self.valive[v as usize] && indeg[v as usize] == 0)
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for eid in self.live_out(v) {
                let t = self.edges[eid as usize].to;
                let d = &mut indeg[t as usize];
                *d -= 1;
                if *d == 0 {
                    queue.push(t);
                }
            }
        }
        queue
    }

    /// Serial-chain contraction: merge `v` into its sole `Local`
    /// predecessor `u` when `u`'s only successor is `v` (same rank),
    /// accumulating edge + vertex cost into `u`.
    fn pass_chains(&mut self) -> u64 {
        self.compact();
        let order = self.topo();
        let mut merged = 0u64;
        for &v in &order {
            if !self.valive[v as usize] {
                continue;
            }
            let ins = self.live_in(v);
            if ins.len() != 1 {
                continue;
            }
            let eid = ins[0] as usize;
            if self.edges[eid].kind != EdgeKind::Local {
                continue;
            }
            let u = self.edges[eid].from;
            if u == v
                || !self.valive[u as usize]
                || self.verts[u as usize].rank != self.verts[v as usize].rank
                || self.live_out(u).len() != 1
            {
                continue;
            }
            let add = self.edges[eid].cost.add(&self.verts[v as usize].cost);
            self.verts[u as usize].cost = self.verts[u as usize].cost.add(&add);
            let via = std::mem::take(&mut self.edges[eid].via);
            self.members[u as usize].extend(via);
            let mv = std::mem::take(&mut self.members[v as usize]);
            self.members[u as usize].extend(mv);
            self.edges[eid].alive = false;
            self.valive[v as usize] = false;
            for oid in self.live_out(v) {
                self.edges[oid as usize].from = u;
                self.out[u as usize].push(oid);
            }
            merged += 1;
        }
        self.stats.chain_merges += merged;
        merged
    }

    /// Vertex folds. Forward: a vertex with exactly one `Local` out-edge
    /// (same rank, ≥ 1 pred) dissolves into its consumer, cost pushed
    /// onto every in-edge — `max` distributes over `+`, so the makespan
    /// is exact, and join vertices stop spawning LP rows of their own.
    /// Backward: the mirror for a single `Local` in-edge (≥ 1 succ).
    fn pass_folds(&mut self) -> u64 {
        self.compact();
        let order = self.topo();
        let mut count = 0u64;
        for &v in &order {
            if !self.valive[v as usize] {
                continue;
            }
            let outs = self.live_out(v);
            let ins = self.live_in(v);
            // Forward fold into the unique consumer.
            if outs.len() == 1 && !ins.is_empty() {
                let fid = outs[0] as usize;
                let w = self.edges[fid].to;
                if self.edges[fid].kind == EdgeKind::Local
                    && self.valive[w as usize]
                    && self.verts[w as usize].rank == self.verts[v as usize].rank
                {
                    let push = self.verts[v as usize].cost.add(&self.edges[fid].cost);
                    let fvia = std::mem::take(&mut self.edges[fid].via);
                    let mv = std::mem::take(&mut self.members[v as usize]);
                    for &eid in &ins {
                        let e = &mut self.edges[eid as usize];
                        debug_assert_ne!(e.from, w, "fold would create a self edge");
                        e.cost = e.cost.add(&push);
                        e.via.extend(mv.iter().copied());
                        e.via.extend(fvia.iter().copied());
                        e.to = w;
                        self.inc[w as usize].push(eid);
                    }
                    self.edges[fid].alive = false;
                    self.valive[v as usize] = false;
                    count += 1;
                    continue;
                }
            }
            // Backward fold into the unique producer.
            if ins.len() == 1 && !outs.is_empty() {
                let eid = ins[0] as usize;
                let u = self.edges[eid].from;
                if self.edges[eid].kind == EdgeKind::Local
                    && self.valive[u as usize]
                    && self.verts[u as usize].rank == self.verts[v as usize].rank
                {
                    let push = self.edges[eid].cost.add(&self.verts[v as usize].cost);
                    let evia = std::mem::take(&mut self.edges[eid].via);
                    let mv = std::mem::take(&mut self.members[v as usize]);
                    for &oid in &outs {
                        let o = &mut self.edges[oid as usize];
                        debug_assert_ne!(o.to, u, "fold would create a self edge");
                        o.cost = push.add(&o.cost);
                        let mut via = evia.clone();
                        via.extend(mv.iter().copied());
                        via.append(&mut o.via);
                        o.via = via;
                        o.from = u;
                        self.out[u as usize].push(oid);
                    }
                    self.edges[eid].alive = false;
                    self.valive[v as usize] = false;
                    count += 1;
                }
            }
        }
        self.stats.folds += count;
        count
    }

    /// Redundant-dependency elimination at join vertices.
    ///
    /// (a) *Sibling domination*: in-edges whose sources sit on exact
    /// single-predecessor chains from a **shared root** `a` imply bounds
    /// `T_a + offset + edge` with symbolic (per-parameter) offsets; an
    /// edge componentwise-dominated by a sibling for every non-negative
    /// parameter value is implied and removed (ties keep the
    /// lowest-index edge).
    ///
    /// (b) *Transitive elimination*: a zero-cost `Local` in-edge with an
    /// alternative all-non-negative path from its source (bounded DFS,
    /// `dfs_cap` visits) is implied by that path.
    fn pass_redundant(&mut self, dfs_cap: usize) -> u64 {
        self.compact();
        let order = self.topo();
        let n = self.verts.len();
        let mut pos = vec![u32::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        // Exact chain roots: root[v]/off[v] such that T_v = T_root + off
        // for all parameter values (only holds along single-in-edge
        // chains; off includes the chain vertices' own costs).
        let mut root: Vec<u32> = (0..n as u32).collect();
        let mut off: Vec<CostExpr> = vec![CostExpr::ZERO; n];
        for &v in &order {
            let ins = self.live_in(v);
            if ins.len() == 1 {
                let e = &self.edges[ins[0] as usize];
                root[v as usize] = root[e.from as usize];
                off[v as usize] = off[e.from as usize]
                    .add(&e.cost)
                    .add(&self.verts[v as usize].cost);
            }
        }
        let mut removed = 0u64;
        let mut stamp = vec![0u32; n];
        let mut cur_stamp = 0u32;
        for &v in &order {
            let ins = self.live_in(v);
            if ins.len() < 2 {
                continue;
            }
            // (a) sibling domination on shared exact-chain roots.
            for (i, &ei) in ins.iter().enumerate() {
                if !self.edges[ei as usize].alive {
                    continue;
                }
                let (ri, bi) = {
                    let e = &self.edges[ei as usize];
                    (root[e.from as usize], off[e.from as usize].add(&e.cost))
                };
                for (j, &ej) in ins.iter().enumerate() {
                    if i == j || !self.edges[ej as usize].alive {
                        continue;
                    }
                    let e = &self.edges[ej as usize];
                    if root[e.from as usize] != ri {
                        continue;
                    }
                    let bj = off[e.from as usize].add(&e.cost);
                    if dominated(&bi, &bj) && (bi != bj || j < i) {
                        self.edges[ei as usize].alive = false;
                        removed += 1;
                        break;
                    }
                }
            }
            // (b) bounded transitive search for zero-cost Local edges.
            let still: Vec<u32> = ins
                .iter()
                .copied()
                .filter(|&e| self.edges[e as usize].alive)
                .collect();
            let mut live_count = still.len();
            if live_count < 2 {
                continue;
            }
            for &ei in &still {
                if live_count < 2 {
                    break;
                }
                let e = &self.edges[ei as usize];
                if e.kind != EdgeKind::Local || !e.cost.is_zero() {
                    continue;
                }
                let u = e.from;
                cur_stamp += 1;
                if self.reaches(u, v, ei, dfs_cap, &pos, &mut stamp, cur_stamp) {
                    self.edges[ei as usize].alive = false;
                    live_count -= 1;
                    removed += 1;
                }
            }
        }
        self.stats.redundant_removed += removed;
        removed
    }

    /// Is there a path `u ⇝ target` avoiding `skip_edge` whose edge and
    /// intermediate-vertex costs are all componentwise non-negative?
    /// Bounded to `cap` visited vertices; only explores vertices
    /// topologically before `target`.
    #[allow(clippy::too_many_arguments)]
    fn reaches(
        &self,
        u: u32,
        target: u32,
        skip_edge: u32,
        cap: usize,
        pos: &[u32],
        stamp: &mut [u32],
        cur: u32,
    ) -> bool {
        let mut stack = vec![u];
        stamp[u as usize] = cur;
        let mut visited = 0usize;
        while let Some(x) = stack.pop() {
            visited += 1;
            if visited > cap {
                return false;
            }
            for &oid in &self.out[x as usize] {
                let e = &self.edges[oid as usize];
                if !e.alive || e.from != x || oid == skip_edge || !nonneg(&e.cost) {
                    continue;
                }
                let y = e.to;
                if y == target {
                    return true;
                }
                if stamp[y as usize] == cur
                    || pos[y as usize] >= pos[target as usize]
                    || !nonneg(&self.verts[y as usize].cost)
                {
                    continue;
                }
                stamp[y as usize] = cur;
                stack.push(y);
            }
        }
        false
    }

    /// Rebuild the reduced [`ExecGraph`] and assemble the provenance map.
    ///
    /// `orig_n` is the **original** graph's vertex count (provenance
    /// arrays index original ids — on the region-parallel path the arena
    /// is the stitched survivor set, not the original graph).
    /// `extra_via` carries via lists of region edges that died before
    /// stitching, keyed by the dead edge's target as an original head id.
    fn finish(mut self, orig_n: usize, extra_via: Vec<(u32, Vec<u32>)>) -> ReducedGraph {
        let _span = llamp_obs::span("reduce.finish");
        // Only whole-graph or stitched arenas reach here; boundary
        // anchors never survive a stitch.
        debug_assert_eq!(self.first_virtual as usize, self.verts.len());
        self.compact();
        // Pre-deduplicate parallel zero-cost Local edges ourselves so the
        // builder's internal dedup can never desynchronise the via table.
        let mut seen: FxHashMap<(u32, u32), ()> = FxHashMap::default();
        for e in self.edges.iter_mut() {
            if e.alive
                && e.kind == EdgeKind::Local
                && e.cost.is_zero()
                && seen.insert((e.from, e.to), ()).is_some()
            {
                e.alive = false;
            }
        }

        let n = self.verts.len();
        let n_live = self.valive.iter().filter(|&&a| a).count();
        let e_live = self.edges.iter().filter(|e| e.alive).count();
        let mut new_id = vec![u32::MAX; n];
        let mut builder = GraphBuilder::with_capacity(self.nranks, n_live, e_live);
        let mut member_start: Vec<u32> = vec![0];
        let mut member_ids: Vec<u32> = Vec::new();
        for (v, vert) in self.verts.iter().enumerate() {
            if self.valive[v] {
                new_id[v] = builder.add_vertex(vert.rank, vert.kind, vert.cost);
                member_ids.extend_from_slice(&self.members[v]);
                member_start.push(member_ids.len() as u32);
            }
        }
        // Edges in arena order, bucketed by (new) target so the via table
        // aligns with the builder's per-target pred fill order.
        let n_new = member_start.len() - 1;
        let mut bucket: Vec<Vec<u32>> = vec![Vec::new(); n_new];
        for (eid, e) in self.edges.iter().enumerate() {
            if !e.alive {
                continue;
            }
            let (f, t) = (new_id[e.from as usize], new_id[e.to as usize]);
            debug_assert!(f != u32::MAX && t != u32::MAX, "edge endpoint died");
            builder.add_edge(f, t, e.kind, e.cost);
            bucket[t as usize].push(eid as u32);
        }
        let graph = builder.finish().expect("reduction preserves acyclicity");

        let mut pred_offset: Vec<u32> = Vec::with_capacity(n_new + 1);
        let mut via_start: Vec<u32> = vec![0];
        let mut via_ids: Vec<u32> = Vec::new();
        let mut acc = 0u32;
        pred_offset.push(0);
        for (v, slots) in bucket.iter().enumerate() {
            // Hard assert (release builds included): the via table is
            // aligned with the builder's per-target pred fill order, and
            // relies on the pre-dedup above replicating GraphBuilder's
            // drop rule exactly. If the builder's rule ever drifts, fail
            // loudly here instead of silently mis-attributing provenance.
            assert_eq!(
                graph.preds(v as u32).len(),
                slots.len(),
                "GraphBuilder dropped edges the reduction pre-dedup kept: \
                 via table would desynchronise"
            );
            for &eid in slots {
                via_ids.extend_from_slice(&self.edges[eid as usize].via);
                via_start.push(via_ids.len() as u32);
            }
            acc += slots.len() as u32;
            pred_offset.push(acc);
        }

        let mut home = vec![u32::MAX; orig_n];
        for (v, members) in self.members.iter().enumerate() {
            if self.valive[v] {
                for &m in members {
                    home[m as usize] = new_id[v];
                }
            }
        }
        // Vertices folded into edges map to the edge's target. Dead edges
        // (removed as redundant, or deduplicated above) still carry their
        // via lists, and their target may itself have been folded onward —
        // resolve through the target's own home, iterating until stable
        // (each round resolves at least one fold layer, so this is bounded
        // by the fold depth). Dead targets resolve through their *head*
        // (original id), which on the whole-graph path is the arena id
        // itself; pre-stitch casualties in `extra_via` resolve the same
        // way, directly by original head id.
        loop {
            let mut changed = false;
            for e in &self.edges {
                let target_home = if self.valive[e.to as usize] {
                    new_id[e.to as usize]
                } else {
                    home[self.head[e.to as usize] as usize]
                };
                if target_home == u32::MAX {
                    continue;
                }
                for &x in &e.via {
                    if home[x as usize] == u32::MAX {
                        home[x as usize] = target_home;
                        changed = true;
                    }
                }
            }
            for (to_orig, via) in &extra_via {
                let target_home = home[*to_orig as usize];
                if target_home == u32::MAX {
                    continue;
                }
                for &x in via {
                    if home[x as usize] == u32::MAX {
                        home[x as usize] = target_home;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        debug_assert!(
            graph.num_vertices() == 0 || home.iter().all(|&h| h != u32::MAX),
            "every original vertex has a home in the reduced graph"
        );

        self.stats.vertices_after = graph.num_vertices() as u64;
        self.stats.edges_after = graph.num_edges() as u64;
        self.stats.rows_after = alg1_row_count(&graph);
        ReducedGraph {
            graph,
            member_start,
            member_ids,
            pred_offset,
            via_start,
            via_ids,
            home,
            stats: self.stats,
        }
    }
}

/// `a ≤ b` in every cost component: the bound `T + a·θ` is implied by
/// `T + b·θ` for all non-negative parameter values.
fn dominated(a: &CostExpr, b: &CostExpr) -> bool {
    a.const_ns <= b.const_ns
        && a.o_count <= b.o_count
        && a.l_count <= b.l_count
        && a.gbytes <= b.gbytes
}

/// Every component non-negative (true for every cost the trace compiler
/// emits; guarded here so hand-built graphs with negative costs are never
/// mis-reduced).
fn nonneg(c: &CostExpr) -> bool {
    c.const_ns >= 0.0 && c.o_count >= 0.0 && c.l_count >= 0.0 && c.gbytes >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VertexKind;

    fn calc(b: &mut GraphBuilder, rank: u32, ns: f64) -> u32 {
        b.add_vertex(rank, VertexKind::Calc, CostExpr::constant(ns))
    }

    #[test]
    fn identity_reduction_round_trips() {
        let mut b = GraphBuilder::new(1);
        let a = calc(&mut b, 0, 1.0);
        let c = calc(&mut b, 0, 2.0);
        b.add_edge(a, c, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let r = reduce(&g, &ReduceConfig::none());
        assert_eq!(r.graph().num_vertices(), 2);
        assert_eq!(r.members(0), &[0]);
        assert_eq!(r.lift_path(&[0, 1]), vec![0, 1]);
        assert_eq!(r.stats().rows_before, r.stats().rows_after);
    }

    #[test]
    fn chains_only_matches_legacy_contraction() {
        let mut b = GraphBuilder::new(1);
        let a = calc(&mut b, 0, 1.0);
        let c = calc(&mut b, 0, 2.0);
        let d = calc(&mut b, 0, 3.0);
        b.add_edge(a, c, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(c, d, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let r = reduce(&g, &ReduceConfig::chains_only());
        assert_eq!(r.graph().num_vertices(), 1);
        assert_eq!(r.graph().vertex(0).cost.const_ns, 6.0);
        assert_eq!(r.members(0), &[0, 1, 2]);
        assert_eq!(r.home_of(2), 0);
        assert_eq!(r.lift_path(&[0]), vec![0, 1, 2]);
    }

    #[test]
    fn forward_fold_dissolves_single_consumer_joins() {
        // Join j = max(a, x) + 5, consumed only by w (which also has a
        // third pred, so the chain pass cannot fire): folding j into w
        // pushes the 5 onto j's in-edges, deleting j's LP rows.
        let mut b = GraphBuilder::new(1);
        let a = calc(&mut b, 0, 1.0);
        let x = calc(&mut b, 0, 2.0);
        let j = calc(&mut b, 0, 5.0);
        let w = calc(&mut b, 0, 7.0);
        let y = calc(&mut b, 0, 3.0);
        b.add_edge(a, j, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(x, j, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(j, w, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(y, w, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let r = reduce(&g, &ReduceConfig::default());
        let rg = r.graph();
        // j dissolved into w: 4 vertices remain (a, x, y, w).
        assert_eq!(rg.num_vertices(), 4);
        let sink = (0..rg.num_vertices() as u32)
            .find(|&v| rg.succs(v).is_empty())
            .unwrap();
        // The two edges routed through j carry its pushed cost.
        let pushed = rg
            .preds(sink)
            .iter()
            .filter(|e| e.cost.const_ns == 5.0)
            .count();
        assert_eq!(pushed, 2, "j's cost pushed onto both in-edges");
        assert_eq!(r.stats().rows_after, 4); // 3 join rows + 1 sink row
                                             // Provenance: j is accounted under the sink, spliced into edges.
        assert_eq!(r.home_of(j), sink);
        let via_pred = rg
            .preds(sink)
            .iter()
            .position(|e| e.cost.const_ns == 5.0)
            .unwrap();
        let from = rg.preds(sink)[via_pred].other;
        let lifted = r.lift_path(&[from, sink]);
        assert!(lifted.contains(&j));
    }

    #[test]
    fn sibling_domination_removes_implied_edges() {
        // w has in-edges from both s and s's own chain root t:
        //   t --(0)--> s(cost 5) --(0)--> w   and   t --(0)--> w.
        // The direct t edge is implied (T_s = T_t + 5 ≥ T_t).
        let mut b = GraphBuilder::new(1);
        let t = calc(&mut b, 0, 1.0);
        let s = calc(&mut b, 0, 5.0);
        let w0 = calc(&mut b, 0, 0.0);
        b.add_edge(t, s, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(s, w0, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(t, w0, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let cfg = ReduceConfig {
            chains: false,
            folds: false,
            redundant: true,
            ..ReduceConfig::default()
        };
        let r = reduce(&g, &cfg);
        assert_eq!(r.stats().redundant_removed, 1);
        assert_eq!(r.graph().num_edges(), 2);
    }

    #[test]
    fn transitive_zero_edge_removed_through_join_paths() {
        // u --(0)--> v redundant because u → j → v exists, where j is a
        // join (so u is not on an exact chain — only the DFS finds it).
        let mut b = GraphBuilder::new(1);
        let u = calc(&mut b, 0, 1.0);
        let other = calc(&mut b, 0, 1.0);
        let j = calc(&mut b, 0, 2.0);
        let v = calc(&mut b, 0, 0.0);
        b.add_edge(u, j, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(other, j, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(j, v, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(u, v, EdgeKind::Local, CostExpr::ZERO);
        let g = b.finish().unwrap();
        let cfg = ReduceConfig {
            chains: false,
            folds: false,
            redundant: true,
            ..ReduceConfig::default()
        };
        let r = reduce(&g, &cfg);
        assert!(r.stats().redundant_removed >= 1);
        // v keeps only the j edge; rows shrink accordingly.
        assert!(r.stats().rows_after < r.stats().rows_before);
    }

    #[test]
    fn home_is_total_even_when_via_edges_are_deduplicated() {
        // Zero-cost diamond u -> {a, b} -> w: both arms fold into w as
        // parallel zero-cost edges carrying via [a] and [b]; one edge is
        // then removed as redundant. The vertex folded into the dead
        // edge must still resolve to a home in the reduced graph.
        let mut bld = GraphBuilder::new(1);
        let u = calc(&mut bld, 0, 1.0);
        let a = calc(&mut bld, 0, 0.0);
        let b2 = calc(&mut bld, 0, 0.0);
        let w = calc(&mut bld, 0, 2.0);
        bld.add_edge(u, a, EdgeKind::Local, CostExpr::ZERO);
        bld.add_edge(u, b2, EdgeKind::Local, CostExpr::ZERO);
        bld.add_edge(a, w, EdgeKind::Local, CostExpr::ZERO);
        bld.add_edge(b2, w, EdgeKind::Local, CostExpr::ZERO);
        let g = bld.finish().unwrap();
        let r = reduce(&g, &ReduceConfig::default());
        let n = r.graph().num_vertices() as u32;
        for orig in 0..g.num_vertices() as u32 {
            let h = r.home_of(orig);
            assert!(h < n, "vertex {orig} lost its home ({h})");
        }
    }

    #[test]
    fn partitioned_reduction_is_thread_invariant_and_total() {
        // Two ranks, cross-rank comm edges; par_threshold 0 forces the
        // region path even on this tiny graph. Output must be a pure
        // function of the graph — identical Debug image at any thread
        // count — and every original vertex must keep a home.
        let mut b = GraphBuilder::new(2);
        let a0 = calc(&mut b, 0, 1.0);
        let a1 = calc(&mut b, 0, 2.0);
        let a2 = calc(&mut b, 0, 3.0);
        let c0 = calc(&mut b, 1, 4.0);
        let c1 = calc(&mut b, 1, 5.0);
        let c2 = calc(&mut b, 1, 0.0);
        b.add_edge(a0, a1, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(a1, a2, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(c0, c1, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(c1, c2, EdgeKind::Local, CostExpr::ZERO);
        b.add_edge(a1, c2, EdgeKind::Comm, CostExpr::wire(8));
        b.add_edge(c0, a2, EdgeKind::Comm, CostExpr::wire(8));
        let g = b.finish().unwrap();
        let run = |threads: usize| {
            reduce(
                &g,
                &ReduceConfig {
                    threads,
                    par_threshold: 0,
                    ..ReduceConfig::default()
                },
            )
        };
        let r1 = run(1);
        let img1 = format!("{r1:?}");
        for threads in [2, 4, 8] {
            assert_eq!(img1, format!("{:?}", run(threads)), "threads={threads}");
        }
        let n = r1.graph().num_vertices() as u32;
        for orig in 0..g.num_vertices() as u32 {
            assert!(r1.home_of(orig) < n, "vertex {orig} lost its home");
        }
        // Cross-rank comm edges are never contracted on the region path.
        assert_eq!(r1.graph().nranks(), 2);
        assert_eq!(
            r1.graph()
                .vertices()
                .iter()
                .enumerate()
                .filter(|(v, _)| {
                    r1.graph()
                        .preds(*v as u32)
                        .iter()
                        .any(|e| e.kind == EdgeKind::Comm)
                })
                .count(),
            2
        );
    }

    #[test]
    fn comm_edges_and_ranks_are_preserved() {
        let mut b = GraphBuilder::new(2);
        let s = b.add_vertex(
            0,
            VertexKind::Send {
                peer: 1,
                bytes: 8,
                tag: 0,
            },
            CostExpr::o(1.0),
        );
        let r0 = b.add_vertex(
            1,
            VertexKind::Recv {
                peer: 0,
                bytes: 8,
                tag: 0,
            },
            CostExpr::o(1.0),
        );
        b.add_edge(s, r0, EdgeKind::Comm, CostExpr::wire(8));
        let g = b.finish().unwrap();
        let red = reduce(&g, &ReduceConfig::default());
        assert_eq!(red.graph().num_messages(), 1);
        assert_eq!(red.graph().nranks(), 2);
    }
}
