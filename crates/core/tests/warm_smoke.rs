//! Crash-vs-warm smoke, run explicitly in CI (`cargo test ... --
//! --ignored`): the engine starts every sweep point from its own
//! longest-path crash basis instead of warm-starting from the previous
//! point's optimum. This guards that decision with exact counters, not a
//! wall-clock race: over the same 64-point latency sweep the
//! crash-started solves must take no more pivots in total than the warm
//! chain, and both sweeps must agree with direct evaluation at every
//! point.

use llamp_core::{Analyzer, GraphLp};
use llamp_model::LogGPSParams;
use llamp_schedgen::{build_graph, GraphConfig};
use llamp_trace::{ProgramSet, TracerConfig};
use llamp_util::time::us;

/// Solve every latency in `ls` in order, resetting the solver before
/// each point when `crash` is set; returns the total pivots spent.
fn sweep_pivots(analyzer: &Analyzer, ls: &[f64], crash: bool) -> u64 {
    let mut lp: GraphLp = analyzer.lp();
    for &l in ls {
        if crash {
            lp.reset_backend();
        }
        let p = lp.predict(l).expect("solve succeeds");
        let e = analyzer.evaluate(l);
        let rel = (p.runtime - e.runtime).abs() / e.runtime.abs().max(1.0);
        assert!(
            rel <= 1e-9,
            "L={l}: LP runtime {} vs evaluate {} (rel {rel:.2e}, crash={crash})",
            p.runtime,
            e.runtime
        );
        assert_eq!(
            p.lambda, e.lambda,
            "L={l}: LP λ vs evaluate λ (crash={crash})"
        );
    }
    lp.solver_stats().pivots
}

#[test]
#[ignore = "release-mode sweep; CI runs it explicitly"]
fn crash_sweep_pivots_not_above_warm() {
    // A bulk-synchronous proxy: per-iteration compute, halo exchange with
    // both neighbours, then a global reduction — big enough that a cold
    // solve costs real pivots.
    let ranks = 8u32;
    let set = ProgramSet::spmd(ranks, |rank, b| {
        for it in 0..12 {
            b.comp(us(20.0) * ((rank + it) % 3 + 1) as f64);
            let left = (rank + ranks - 1) % ranks;
            let right = (rank + 1) % ranks;
            let reqs = vec![
                b.isend(left, 2048, 1),
                b.isend(right, 2048, 2),
                b.irecv(right, 2048, 1),
                b.irecv(left, 2048, 2),
            ];
            b.waitall(reqs);
            b.allreduce(64);
        }
    });
    let graph = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::paper())
        .expect("workload builds");
    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.1));
    let analyzer = Analyzer::new(&graph, &params);
    let ls: Vec<f64> = (0..64).map(|i| params.l + us(1.0) * i as f64).collect();

    let crash = sweep_pivots(&analyzer, &ls, true);
    let warm = sweep_pivots(&analyzer, &ls, false);
    println!("64-point sweep pivots: crash-started {crash}, warm chain {warm}");
    assert!(
        crash <= warm,
        "crash-started sweep took {crash} pivots, more than the warm chain's {warm}"
    );
}
