//! Property test for the longest-path crash basis (`llamp_core::crash`).
//!
//! The claim under test: on any execution DAG (all LogGPS costs are
//! nonnegative), the crash basis instantiated at the query point is
//! simultaneously primal feasible (each merge variable equals the max of
//! its in-edges) and dual feasible (the duals are 0/1 critical-subtree
//! indicators and every parameter multiplier is nonnegative) — so a cold
//! solve seeded from it performs **zero pivots**: no phase 1, no phase-2
//! exchanges, just the optimality pricing pass. And the objective it
//! certifies equals the forward longest-path evaluation.
//!
//! The same holds for the tolerance flip (§II-D2, `max l` s.t.
//! `t ≤ cap`): the flipped crash — the longest-path basis at the answer
//! `L*`, found by a Newton descent on `T`, with `l` basic and `t` at its
//! cap — certifies without pivots, and its answer equals the envelope's
//! inverse and the anchor-seeded solve.
//!
//! Random programs come from `common` (deadlock-free phases on a small
//! integer time grid, so exact ties occur constantly).

mod common;

use common::{graph_of, program_strategy, Phase};
use llamp_core::{
    evaluate, Binding, CrashKind, GraphLp, GraphMultiLp, ParamPoint, ParametricProfile, SweepParam,
};
use llamp_model::LogGPSParams;
use llamp_schedgen::ExecGraph;
use llamp_util::time::us;
use proptest::prelude::*;

/// The assertion battery for one (graph, latency) pair.
fn assert_crash_is_optimal(g: &ExecGraph, binding: &Binding, l: f64) {
    let reduced = g.contracted();
    let mut lp = GraphLp::build(&reduced, binding);
    let p = lp.predict(l).expect("crash-seeded solve succeeds");
    let stats = lp.solver_stats();
    assert_eq!(
        stats.phase1_iterations, 0,
        "L={l}: crash basis not primal feasible"
    );
    assert_eq!(
        stats.pivots, 0,
        "L={l}: crash basis not optimal ({} pivots)",
        stats.pivots
    );
    // The certified objective is the forward longest-path evaluation.
    let e = evaluate(&reduced, binding, l);
    assert!(
        (p.runtime - e.runtime).abs() <= 1e-9 * (1.0 + e.runtime),
        "L={l}: lp {} vs eval {}",
        p.runtime,
        e.runtime
    );
    // The historic topological heuristic reaches the same optimum (in
    // however many pivots it needs).
    let mut topo = GraphLp::build(&reduced, binding);
    topo.set_crash_kind(CrashKind::Topological);
    let q = topo.predict(l).expect("heuristic-seeded solve succeeds");
    assert!(
        (p.runtime - q.runtime).abs() <= 1e-9 * (1.0 + p.runtime),
        "L={l}: crash kinds disagree: {} vs {}",
        p.runtime,
        q.runtime
    );
}

/// Upper end of the envelope window the tolerances are checked in.
const SEARCH_HI: f64 = 1e12;

/// `a` and `b` agree to 1e-9 relative (both infinite counts as equal).
fn assert_close(a: f64, b: f64, what: &str) {
    if a.is_infinite() || b.is_infinite() {
        assert_eq!(a, b, "{what}");
    } else {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
            "{what}: {a} vs {b}"
        );
    }
}

/// The flipped-crash battery for one (graph, floor) pair at the caps
/// 1, 2, 5 and 50 % above `T(floor)`.
fn assert_flipped_crash_is_optimal(g: &ExecGraph, params: &LogGPSParams, floor: f64) {
    let reduced = g.contracted();
    let binding = Binding::uniform(params);
    let t0 = evaluate(&reduced, &binding, floor).runtime;
    let profile = ParametricProfile::compute(&reduced, &binding, (floor, SEARCH_HI));
    let at = ParamPoint {
        l: floor,
        g: params.big_g,
        o: params.o,
    };
    for pct in [1.0, 2.0, 5.0, 50.0] {
        let cap = t0 * (1.0 + pct / 100.0);
        let what = format!("floor {floor}, cap +{pct}%");
        let envelope = match profile.tolerance(cap) {
            Some(x) if x >= SEARCH_HI => f64::INFINITY,
            Some(x) => x,
            None => panic!("{what}: envelope finds the floor infeasible"),
        };

        // A fresh instance seeds the flipped crash: no pivots at all.
        let mut lp = GraphLp::build(&reduced, &binding);
        let tol = lp
            .tolerance(floor, cap)
            .expect("flipped-crash solve succeeds");
        let st = lp.solver_stats();
        assert_eq!(st.phase1_iterations, 0, "{what}: flipped crash infeasible");
        assert_eq!(st.pivots, 0, "{what}: flipped crash not optimal");
        assert_close(tol, envelope, &format!("{what}: LP vs envelope"));

        // The anchor-seeded path reaches the same answer.
        let mut anchored = GraphLp::build(&reduced, &binding);
        anchored.predict(floor).unwrap();
        let anchor = anchored.warm_basis().unwrap();
        anchored.seed_backend(&anchor);
        let a = anchored.tolerance(floor, cap).unwrap();
        assert_close(tol, a, &format!("{what}: flipped vs anchor-seeded"));

        // The multi-parameter LP along L, G and o pinned at base.
        let mut multi = GraphMultiLp::build(&reduced, &binding);
        let m = multi.tolerance(SweepParam::L, at, cap).unwrap();
        let st = multi.solver_stats();
        assert_eq!(
            st.phase1_iterations, 0,
            "{what}: multi flipped crash infeasible"
        );
        assert_eq!(st.pivots, 0, "{what}: multi flipped crash not optimal");
        assert_close(m, envelope, &format!("{what}: multi LP vs envelope"));
        let mut anchored = GraphMultiLp::build(&reduced, &binding);
        anchored.predict(at).unwrap();
        let anchor = anchored.warm_basis().unwrap();
        anchored.seed_backend(&anchor);
        let a = anchored.tolerance(SweepParam::L, at, cap).unwrap();
        assert_close(m, a, &format!("{what}: multi flipped vs anchor-seeded"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn longest_path_crash_solves_without_pivots((ranks, phases) in program_strategy()) {
        let g = graph_of(ranks, &phases);
        let binding = Binding::uniform(&LogGPSParams::didactic());
        for l in [0.0, 385.0, us(1.0), us(20.0)] {
            assert_crash_is_optimal(&g, &binding, l);
        }
    }

    #[test]
    fn flipped_crash_certifies_tolerance_without_pivots((ranks, phases) in program_strategy()) {
        let g = graph_of(ranks, &phases);
        for floor in [0.0, us(1.0)] {
            assert_flipped_crash_is_optimal(&g, &LogGPSParams::didactic(), floor);
        }
    }
}

/// Regression seeds: tie-heavy shapes where every rank's path has the
/// same length, so the longest-path max ties across all in-edges of
/// every merge vertex.
#[test]
fn degenerate_tie_graphs_still_need_no_pivots() {
    let binding = Binding::uniform(&LogGPSParams::didactic());
    // Uniform compute + allreduce: all 2·ranks in-edges of each merge tie.
    for ranks in [2, 4, 8] {
        let g = graph_of(
            ranks,
            &[
                Phase::Comp(vec![3; ranks]),
                Phase::Allreduce(512),
                Phase::Comp(vec![1; ranks]),
                Phase::Barrier,
            ],
        );
        for l in [0.0, us(5.0)] {
            assert_crash_is_optimal(&g, &binding, l);
        }
    }
    // Zero-cost compute: every potential is identical (maximal ties).
    let g = graph_of(4, &[Phase::Comp(vec![0; 4]), Phase::Barrier]);
    assert_crash_is_optimal(&g, &binding, 0.0);
}

/// The tie-heavy shapes again, through the tolerance flip: every rank
/// path reaches the cap at the same `L*`.
#[test]
fn degenerate_tie_graphs_flip_without_pivots() {
    for ranks in [2, 4, 8] {
        let g = graph_of(
            ranks,
            &[
                Phase::Comp(vec![3; ranks]),
                Phase::Allreduce(512),
                Phase::Comp(vec![1; ranks]),
                Phase::Barrier,
            ],
        );
        assert_flipped_crash_is_optimal(&g, &LogGPSParams::didactic(), 0.0);
    }
}
