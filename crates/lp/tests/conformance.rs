//! Solver conformance suite: one shared battery run over **both
//! factorisations × every start**.
//!
//! The factorisations are the solver ([`SparseSimplex`], sparse LU) and
//! the dense-inverse reference ([`solve_dense`]). Starts are the
//! ways a solve can begin in this codebase: cold (all-logical), warm
//! from a reference optimal basis, and — for the DAG LPs that mirror
//! Algorithm 1 — the two crash bases `llamp-core` builds (the exact
//! longest-path crash and the historic largest-constant heuristic).
//!
//! Every combination must report the same optimum: objective, primal
//! values, duals, reduced costs and lower-bound ranging all within 1e-9
//! of the dense cold reference — and whenever two runs finish on the
//! *same final basis*, their canonical extractions must be **byte
//! identical** (`to_bits` equality): canonical extraction makes a
//! solution a pure function of (model, final basis).
//!
//! Inputs: random DAG longest-path LPs (proptest; integer cost grids so
//! degenerate ties are the norm) plus the Beale / degenerate fixed
//! corpus.

use llamp_lp::simplex::{solve_dense, SimplexOptions};
use llamp_lp::solution::VarStatus;
use llamp_lp::{Basis, ConId, LpModel, Objective, Relation, Solution, SparseSimplex, VarId};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The battery
// ---------------------------------------------------------------------

/// The factorisations under test, by label.
const FACTORS: &[&str] = &["dense", "sparse"];

/// How a run begins.
enum Start<'a> {
    Cold,
    Seeded(&'a str, &'a Basis),
}

impl Start<'_> {
    fn label(&self) -> String {
        match self {
            Start::Cold => "cold".into(),
            Start::Seeded(name, _) => (*name).into(),
        }
    }
}

fn run(factor: &str, start: &Start, model: &LpModel) -> Solution {
    let warm = match start {
        Start::Cold => None,
        Start::Seeded(_, basis) => Some(*basis),
    };
    let out = if factor == "dense" {
        solve_dense(model, &SimplexOptions::default(), warm)
    } else {
        let mut b = SparseSimplex::default();
        if let Some(basis) = warm {
            b.seed(basis);
        }
        b.resolve(model)
    };
    out.unwrap_or_else(|e| panic!("{factor}/{}: solve failed: {e}", start.label()))
}

/// Assert that `sol` and `reference` finished on the same basis and
/// that **every** reported quantity — objective, primal values, duals,
/// reduced costs, lower-bound ranging — is bit-for-bit identical.
/// Canonical extraction is a pure function of (model, basis), so on the
/// same basis anything short of `to_bits` equality is a conformance bug.
fn assert_bitwise(
    label: &str,
    reference: &Solution,
    sol: &Solution,
    vars: &[VarId],
    cons: &[ConId],
) {
    assert_eq!(
        reference.basis(),
        sol.basis(),
        "{label}: final basis diverged"
    );
    assert_eq!(
        reference.objective().to_bits(),
        sol.objective().to_bits(),
        "{label}: objective bits differ on identical bases"
    );
    for &v in vars {
        assert_eq!(
            reference.value(v).to_bits(),
            sol.value(v).to_bits(),
            "{label}: x[{v:?}] bits"
        );
        assert_eq!(
            reference.reduced_cost(v).to_bits(),
            sol.reduced_cost(v).to_bits(),
            "{label}: d[{v:?}] bits"
        );
        let (rl, rh) = reference.lb_range(v);
        let (sl, sh) = sol.lb_range(v);
        assert_eq!(rl.to_bits(), sl.to_bits(), "{label}: lb_range lo[{v:?}]");
        assert_eq!(rh.to_bits(), sh.to_bits(), "{label}: lb_range hi[{v:?}]");
    }
    for &c in cons {
        assert_eq!(
            reference.dual(c).to_bits(),
            sol.dual(c).to_bits(),
            "{label}: y[{c:?}] bits"
        );
    }
}

/// Run both factorisations × every start.
///
/// The contract:
///
/// * **Per start, across factorisations**: dense and sparse land on the
///   same final basis and report byte-identical numbers.
/// * **Across starts**: every run reports the same optimum objective to
///   1e-9 — alternative optimal bases may differ in non-binding primal
///   values and degenerate duals, which is why byte-identity is only a
///   same-basis contract.
fn battery(model: &LpModel, vars: &[VarId], cons: &[ConId], seeds: &[(&str, &Basis)]) {
    let close = |a: f64, b: f64| {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs()) || (a.is_infinite() && b.is_infinite() && a == b)
    };
    let cold_ref = run("dense", &Start::Cold, model);
    let mut starts: Vec<Start> = vec![Start::Cold, Start::Seeded("warm", cold_ref.basis())];
    for &(label, basis) in seeds {
        starts.push(Start::Seeded(label, basis));
    }
    for start in &starts {
        let reference = run("dense", start, model);
        assert!(
            close(cold_ref.objective(), reference.objective()),
            "dense/{}: objective {} vs cold {}",
            start.label(),
            reference.objective(),
            cold_ref.objective()
        );
        for factor in FACTORS {
            let sol = run(factor, start, model);
            let label = format!("{factor}/{}", start.label());
            assert!(
                close(cold_ref.objective(), sol.objective()),
                "{label}: objective {} vs cold {}",
                sol.objective(),
                cold_ref.objective()
            );
            assert_bitwise(&label, &reference, &sol, vars, cons);
        }
    }
    // The warm start re-installs the cold optimum: zero pivots, and the
    // whole extraction — ranging included — reproduces bitwise.
    let warm = run("dense", &Start::Seeded("warm", cold_ref.basis()), model);
    assert_bitwise("dense/warm-vs-cold", &cold_ref, &warm, vars, cons);
}

// ---------------------------------------------------------------------
// Random DAG longest-path LPs (the Algorithm-1 shape)
// ---------------------------------------------------------------------

/// One in-edge of a DAG vertex: predecessor (None ⇒ source row), integer
/// constant cost and latency multiplier.
type Edge = (Option<usize>, u8, u8);

#[derive(Debug, Clone)]
struct RandomDag {
    /// In-edges per vertex, topologically indexed (vertex 0 is a source).
    in_edges: Vec<Vec<Edge>>,
    /// Query latency lower bound.
    l0: f64,
}

fn dag_strategy() -> impl Strategy<Value = RandomDag> {
    // A flat pool of (pred-seed, c, m) draws, folded into per-vertex
    // in-edge lists below: vertex 0 is the source (one defining row),
    // every later vertex j takes two in-edges with predecessors
    // `seed % j` — always topologically earlier.
    (
        3usize..=8,
        prop::collection::vec((0u16..4096, 0u8..5, 0u8..3), 17..=17),
        0.0f64..4.0,
    )
        .prop_map(|(k, pool, l0)| {
            let mut in_edges: Vec<Vec<Edge>> = Vec::with_capacity(k);
            let mut draws = pool.into_iter().cycle();
            for j in 0..k {
                let n = if j == 0 { 1 } else { 2 };
                let edges = (0..n)
                    .map(|_| {
                        let (seed, c, m) = draws.next().unwrap();
                        let pred = if j == 0 {
                            None
                        } else {
                            Some(seed as usize % j)
                        };
                        (pred, c, m)
                    })
                    .collect();
                in_edges.push(edges);
            }
            RandomDag {
                in_edges,
                // Integer-snapped latency: exact longest-path ties abound.
                l0: l0.round(),
            }
        })
}

struct DagLp {
    model: LpModel,
    vars: Vec<VarId>,
    cons: Vec<ConId>,
    /// (target col, base col or usize::MAX, c, m) per row, in row order.
    rows: Vec<(usize, usize, f64, f64)>,
    l: VarId,
    t: VarId,
}

/// Build the Algorithm-1-shaped LP: `min t`, `y_j ≥ y_p + c + m·l` per
/// in-edge, `t ≥ y_s` per sink, `l ≥ l0`.
fn build_dag_lp(dag: &RandomDag) -> DagLp {
    let k = dag.in_edges.len();
    let mut m = LpModel::new(Objective::Minimize);
    let l = m.add_var("l", dag.l0, f64::INFINITY, 0.0);
    let t = m.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
    let ys: Vec<VarId> = (0..k)
        .map(|j| m.add_var(format!("y{j}"), f64::NEG_INFINITY, f64::INFINITY, 0.0))
        .collect();
    let mut vars = vec![l, t];
    vars.extend(&ys);
    let mut cons = Vec::new();
    let mut rows = Vec::new();
    let mut has_succ = vec![false; k];
    for (j, edges) in dag.in_edges.iter().enumerate() {
        for &(p, c, mul) in edges {
            let (c, mul) = (c as f64, mul as f64);
            let mut terms = vec![(ys[j], 1.0)];
            if let Some(p) = p {
                terms.push((ys[p], -1.0));
                has_succ[p] = true;
            }
            if mul != 0.0 {
                terms.push((l, -mul));
            }
            cons.push(m.add_constraint(format!("in{j}"), &terms, Relation::Ge, c));
            rows.push((
                ys[j].0 as usize,
                p.map_or(usize::MAX, |p| ys[p].0 as usize),
                c,
                mul,
            ));
        }
    }
    for (j, _) in dag.in_edges.iter().enumerate() {
        if !has_succ[j] {
            cons.push(m.add_constraint(
                format!("sink{j}"),
                &[(t, 1.0), (ys[j], -1.0)],
                Relation::Ge,
                0.0,
            ));
            rows.push((t.0 as usize, ys[j].0 as usize, 0.0, 0.0));
        }
    }
    DagLp {
        model: m,
        vars,
        cons,
        rows,
        l,
        t,
    }
}

/// The two crash bases `llamp-core` would build for this LP: the exact
/// longest-path crash at `l0` and the largest-constant heuristic.
fn crash_bases(lp: &DagLp, l0: f64) -> (Basis, Basis) {
    let n_cols = lp.model.num_vars();
    let build = |longest_path: bool| {
        let mut pot = vec![0.0f64; n_cols];
        let mut winner = vec![usize::MAX; n_cols];
        let mut best = vec![f64::NEG_INFINITY; n_cols];
        for (i, &(tgt, base, c, mul)) in lp.rows.iter().enumerate() {
            let score = if longest_path {
                let from = if base == usize::MAX { 0.0 } else { pot[base] };
                from + c + mul * l0
            } else {
                c
            };
            if winner[tgt] == usize::MAX || score > best[tgt] {
                winner[tgt] = i;
                best[tgt] = score;
            }
            if longest_path && best[tgt] > pot[tgt] {
                pot[tgt] = best[tgt];
            }
        }
        let mut col_status = vec![VarStatus::Basic; n_cols];
        col_status[lp.l.0 as usize] = VarStatus::AtLower;
        let mut row_status = vec![VarStatus::Basic; lp.rows.len()];
        for &w in winner.iter().filter(|&&w| w != usize::MAX) {
            row_status[w] = VarStatus::AtLower;
        }
        Basis::from_statuses(col_status, row_status)
    };
    (build(true), build(false))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The full battery on random DAG LPs: 2 factorisations × (cold, warm,
    /// longest-path crash, heuristic crash).
    #[test]
    fn dag_lps_conform_across_backends_and_starts(dag in dag_strategy()) {
        let lp = build_dag_lp(&dag);
        let (crash_lp, crash_topo) = crash_bases(&lp, dag.l0);
        battery(
            &lp.model,
            &lp.vars,
            &lp.cons,
            &[("crash-longest-path", &crash_lp), ("crash-topological", &crash_topo)],
        );
    }

    /// The longest-path crash is optimal at its own point: seeding it
    /// into the sparse solver solves with zero pivots, and the objective
    /// equals the forward longest-path recursion run in plain arithmetic.
    #[test]
    fn longest_path_crash_needs_no_pivots(dag in dag_strategy()) {
        let lp = build_dag_lp(&dag);
        let (crash_lp, _) = crash_bases(&lp, dag.l0);
        let mut b = SparseSimplex::default();
        b.seed(&crash_lp);
        let sol = b.resolve(&lp.model).expect("crash-seeded solve");
        let stats = b.stats();
        prop_assert!(stats.phase1_iterations == 0, "crash not primal feasible");
        prop_assert!(stats.pivots == 0, "crash not optimal: {} pivots", stats.pivots);
        // Forward recursion, same float op order as the crash scoring.
        let n_cols = lp.model.num_vars();
        let mut pot = vec![0.0f64; n_cols];
        let mut seen = vec![false; n_cols];
        for &(tgt, base, c, mul) in &lp.rows {
            let from = if base == usize::MAX { 0.0 } else { pot[base] };
            let score = from + c + mul * dag.l0;
            if !seen[tgt] || score > pot[tgt] {
                pot[tgt] = score;
                seen[tgt] = true;
            }
        }
        let want = pot[lp.t.0 as usize];
        prop_assert!(
            (sol.objective() - want).abs() <= 1e-9 * (1.0 + want),
            "objective {} vs longest path {}", sol.objective(), want
        );
    }
}

// ---------------------------------------------------------------------
// Beale / degenerate fixed corpus
// ---------------------------------------------------------------------

/// Beale's classic cycling example (optimum −1/20).
fn beale() -> (LpModel, Vec<VarId>, Vec<ConId>) {
    let mut m = LpModel::new(Objective::Minimize);
    let x1 = m.add_var("x1", 0.0, f64::INFINITY, -0.75);
    let x2 = m.add_var("x2", 0.0, f64::INFINITY, 150.0);
    let x3 = m.add_var("x3", 0.0, 1.0, -0.02);
    let x4 = m.add_var("x4", 0.0, f64::INFINITY, 6.0);
    let c1 = m.add_constraint(
        "r1",
        &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Relation::Le,
        0.0,
    );
    let c2 = m.add_constraint(
        "r2",
        &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Relation::Le,
        0.0,
    );
    (m, vec![x1, x2, x3, x4], vec![c1, c2])
}

/// A maximally degenerate star: many redundant constraints through one
/// vertex.
fn redundant_star(nvars: usize) -> (LpModel, Vec<VarId>, Vec<ConId>) {
    let mut m = LpModel::new(Objective::Minimize);
    let vars: Vec<_> = (0..nvars)
        .map(|j| m.add_var(format!("x{j}"), 0.0, 10.0, 1.0 + j as f64 * 0.1))
        .collect();
    let mut cons = Vec::new();
    for i in 0..4 * nvars {
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        cons.push(m.add_constraint(format!("r{i}"), &terms, Relation::Ge, 5.0));
    }
    (m, vars, cons)
}

/// A degenerate box: the optimum sits on a corner shared by every row.
fn tied_box() -> (LpModel, Vec<VarId>, Vec<ConId>) {
    let mut m = LpModel::new(Objective::Maximize);
    let x = m.add_var("x", 0.0, 4.0, 1.0);
    let y = m.add_var("y", 0.0, 4.0, 1.0);
    let c1 = m.add_constraint("r1", &[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
    let c2 = m.add_constraint("r2", &[(x, 1.0)], Relation::Le, 4.0);
    let c3 = m.add_constraint("r3", &[(y, 1.0)], Relation::Le, 4.0);
    let c4 = m.add_constraint("r4", &[(x, 2.0), (y, 2.0)], Relation::Le, 8.0);
    (m, vec![x, y], vec![c1, c2, c3, c4])
}

#[test]
fn beale_corpus_conforms_across_backends_and_starts() {
    for (m, vars, cons) in [beale(), redundant_star(4), redundant_star(6), tied_box()] {
        battery(&m, &vars, &cons, &[]);
    }
}
