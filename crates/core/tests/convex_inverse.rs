//! Property test for the convex-inverse routine (`llamp_core::inverse`)
//! driven by direct evaluation, the way the `eval` backend answers its
//! tolerance zones: on random programs the Newton descent from the top
//! of the search window must land on the envelope's exact inverse
//! (`ParametricProfile::tolerance`) to 1e-12 relative, and spend at most
//! one evaluation per breakpoint of `T(L)` between the answer and the
//! window top, plus the start and one confirming evaluation.

mod common;

use common::{graph_of, program_strategy};
use llamp_core::{convex_inverse, evaluate, Binding, ParametricProfile};
use llamp_model::LogGPSParams;
use llamp_util::time::us;
use proptest::prelude::*;

/// Top of the search window, as in the engine's default spec (2 ms).
const SEARCH_HI: f64 = 2_000_000.0;

/// `a` and `b` agree to 1e-12 relative.
fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
        "{what}: descent {a} vs envelope {b}"
    );
}

/// The descent against the envelope at the caps 1, 2, 5 and 50 % above
/// `T(floor)`, zones measured from `floor` as the engine does.
fn assert_descent_is_exact(ranks: usize, phases: &[common::Phase], params: &LogGPSParams) {
    let g = graph_of(ranks, phases).contracted();
    let binding = Binding::uniform(params);
    let oracle = |l: f64| {
        let e = evaluate(&g, &binding, l);
        (e.runtime, e.lambda)
    };
    for floor in [0.0, us(1.0)] {
        let t0 = evaluate(&g, &binding, floor).runtime;
        let top = oracle(SEARCH_HI);
        let profile = ParametricProfile::compute(&g, &binding, (floor, SEARCH_HI));
        for pct in [1.0, 2.0, 5.0, 50.0] {
            let cap = t0 * (1.0 + pct / 100.0);
            let what = format!("floor {floor}, cap +{pct}%");
            let envelope = profile.tolerance(cap).expect("the floor is feasible");
            if top.0 <= cap {
                assert_eq!(envelope, SEARCH_HI, "{what}: only the envelope is bounded");
                continue;
            }
            let inv = convex_inverse(oracle, floor, cap, SEARCH_HI, top);
            assert_close(inv.x - floor, envelope - floor, &what);
            let above = profile
                .critical_latencies()
                .into_iter()
                .filter(|&b| b > envelope && b <= SEARCH_HI)
                .count();
            let evaluations = 1 + inv.evaluations as usize;
            assert!(
                evaluations <= above + 2,
                "{what}: {evaluations} evaluations for {above} breakpoints above the answer"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn descent_matches_the_envelope_inverse((ranks, phases) in program_strategy()) {
        assert_descent_is_exact(ranks, &phases, &LogGPSParams::didactic());
        assert_descent_is_exact(ranks, &phases, &LogGPSParams::cscs_testbed(ranks as u32));
    }
}
