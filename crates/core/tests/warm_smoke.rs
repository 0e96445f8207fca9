//! Warm-vs-cold smoke assertion, run explicitly in CI (`cargo test ...
//! -- --ignored`): a warm-started 64-point latency sweep must not be
//! slower than the same sweep with the solver reset (crash-started)
//! before every point. Warm sweeps re-use the previous optimal basis —
//! usually a pivot-free certification — so anything short of a clear win
//! means the warm-start path regressed.

use llamp_core::{Analyzer, GraphLp};
use llamp_model::LogGPSParams;
use llamp_schedgen::{build_graph, GraphConfig};
use llamp_trace::{ProgramSet, TracerConfig};
use llamp_util::time::us;
use std::time::Instant;

fn sweep_time(lp: &mut GraphLp, deltas: &[f64], cold: bool) -> f64 {
    let start = Instant::now();
    for &d in deltas {
        if cold {
            lp.reset_backend();
        }
        lp.predict(d).expect("solve succeeds");
    }
    start.elapsed().as_secs_f64()
}

#[test]
#[ignore = "timing assertion; CI runs it explicitly"]
fn warm_sweep_not_slower_than_cold() {
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
    let deltas: Vec<f64> = (0..64).map(|i| us(1.0) * i as f64).collect();

    // One throwaway pass to warm caches/allocator before timing.
    let mut lp = analyzer.lp();
    sweep_time(&mut lp, &deltas, false);

    let mut cold_lp = analyzer.lp();
    let cold = sweep_time(&mut cold_lp, &deltas, true);
    let mut warm_lp = analyzer.lp();
    let warm = sweep_time(&mut warm_lp, &deltas, false);

    println!(
        "cold sweep: {cold:.3}s, warm sweep: {warm:.3}s ({:.1}x)",
        cold / warm
    );
    assert!(
        warm <= cold,
        "warm sweep ({warm:.3}s) slower than cold ({cold:.3}s)"
    );
}
