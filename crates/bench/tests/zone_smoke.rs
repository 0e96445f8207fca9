//! Release-mode *tolerance-zone* smoke, run explicitly in CI (`cargo
//! test --release -p llamp-bench --test zone_smoke -- --ignored`): the
//! engine's 1/2/5 % zone solves on the 32k-row scaled LULESH shape
//! (`scaled(App::Lulesh, 2, 100)`, i.e. 16 ranks × 100 iterations) must
//! stay within a pivot ceiling and a wall budget, and agree with the
//! envelope. Each zone starts cold from the flipped crash — the
//! longest-path basis at the answer `L*` with `l` basic and `t` at its
//! cap — so the simplex only certifies it. A regression in the Newton
//! search or the basis swap shows up as pivots long before the wall
//! budget trips; anchor-seeded zones paid thousands of pivots here.
//! `sweep_smoke.rs` is the matching tripwire for the sweep points.

use llamp_engine::{expand, CampaignSpec};
use std::time::Instant;

/// Pivot ceiling for the anchor plus all three zone solves (observed:
/// 0; exact ties at `L*` may cost one or two).
const PIVOT_CEILING: u64 = 10;
/// Wall budget in seconds for the anchor plus three zones (observed:
/// well under a second in release).
const WALL_BUDGET_S: f64 = 10.0;
/// Relative agreement with the envelope's closed-form inverse.
const REL_TOL: f64 = 1e-9;

const SPEC: &str = r#"
name = "zone-smoke"
backends = ["lp-sparse"]

[grid]
deltas_ns = [0.0]
search_hi_ns = 2000000.0

[[workloads]]
app = "lulesh"
ranks = 16
iters = 100
"#;

#[test]
#[ignore = "timing assertion; CI runs it explicitly in release mode"]
fn engine_zones_certify_the_flipped_crash_at_32k_rows() {
    let spec = CampaignSpec::parse(SPEC, "zone-smoke.toml").unwrap();
    let scenarios = expand(&spec);
    let sc = &scenarios[0];
    let analyzer = sc.build_analyzer().unwrap();
    let rows = analyzer.reduction_stats().rows_after;
    assert!(rows > 30_000, "shape shrank: {rows} rows");

    let start = Instant::now();
    let (_, zones, stats) = sc.compute_with(&analyzer, &[], true, 1).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    let zones = zones.expect("zones requested");
    let envelope = analyzer.tolerance_zones(analyzer.base_l() + sc.grid.search_hi_ns);
    eprintln!(
        "zone smoke  {rows} rows  3 zones  {elapsed:.3} s  {} pivots  {} phase-1 iterations",
        stats.pivots, stats.phase1_iterations
    );

    assert!(
        stats.pivots <= PIVOT_CEILING,
        "zone solves at {rows} rows took {} pivots (ceiling {PIVOT_CEILING}): \
         the flipped crash has regressed",
        stats.pivots
    );
    assert!(
        elapsed <= WALL_BUDGET_S,
        "zone solves at {rows} rows took {elapsed:.3}s (budget {WALL_BUDGET_S}s)"
    );
    for (pct, lp, env) in [
        (1, zones.pct1_ns, envelope.pct1),
        (2, zones.pct2_ns, envelope.pct2),
        (5, zones.pct5_ns, envelope.pct5),
    ] {
        assert!(
            lp == env || (lp - env).abs() <= REL_TOL * lp.abs().max(env.abs()),
            "{pct}% zone: LP {lp} vs envelope {env}"
        );
    }
}
