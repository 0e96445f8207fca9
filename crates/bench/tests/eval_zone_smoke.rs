//! Release-mode smoke for the `eval` backend's tolerance zones, run
//! explicitly in CI (`cargo test --release -p llamp-bench --test
//! eval_zone_smoke -- --ignored --nocapture`). On the 10⁶-vertex LULESH
//! shape (16 ranks × 430 iterations, 137,616 reduced rows) the three
//! 1/2/5 % zones come from a Newton descent on direct evaluation
//! (`llamp_core::convex_inverse`). The `eval.zones` span must report at
//! most [`EVALUATION_CEILING`] evaluations for all three (a 64-step
//! bisection took 194), and each zone must agree with the envelope's
//! closed-form inverse. `zone_smoke.rs` is the LP's counterpart.

use llamp_engine::{expand, CampaignSpec};
use llamp_obs::FieldValue;
use std::time::Instant;

/// Evaluations for the baseline, the window top and all three descents
/// (observed: 7).
const EVALUATION_CEILING: u64 = 16;
/// Agreement with the envelope, relative, in runtime: the envelope's `T`
/// at the eval zone's latency equals that zone's cap. The zone itself is
/// the inverse of a 1.25e10 ns makespan summed along a path of ~10⁵ rows
/// by two engines in different orders; that summation error (~2e-14
/// relative in `T`) is magnified ~100× in `∆L`, where the two engines
/// differ by 2.4e-12 relative, as the bisection did (2.2e-12).
const RUNTIME_REL_TOL: f64 = 1e-12;
/// Agreement in the zone itself, relative (see [`RUNTIME_REL_TOL`]).
const ZONE_REL_TOL: f64 = 1e-11;

const SPEC: &str = r#"
name = "eval-zone-smoke"
backends = ["eval"]

[grid]
deltas_ns = [0.0]
search_hi_ns = 2000000.0

[[workloads]]
app = "lulesh"
ranks = 16
iters = 430
"#;

#[test]
#[ignore = "10^6-vertex build; CI runs it explicitly in release mode"]
fn eval_zones_descend_in_few_evaluations_at_a_million_vertices() {
    let spec = CampaignSpec::parse(SPEC, "eval-zone-smoke.toml").unwrap();
    let scenarios = expand(&spec);
    let sc = &scenarios[0];
    let analyzer = sc.build_analyzer().unwrap();
    let rows = analyzer.reduction_stats().rows_after;
    assert!(rows > 130_000, "shape shrank: {rows} rows");

    llamp_obs::enable();
    let start = Instant::now();
    let (_, zones, _) = sc.compute_with(&analyzer, &[], true, 1).unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    let snapshot = llamp_obs::take();
    llamp_obs::disable();
    let zones = zones.expect("zones requested");
    let evaluations: u64 = snapshot
        .events
        .iter()
        .filter(|e| e.name == "eval.zones")
        .flat_map(|e| &e.fields)
        .map(|(key, v)| match (key, v) {
            (&"evaluations", FieldValue::U64(n)) => *n,
            _ => 0,
        })
        .sum();
    eprintln!("eval zone smoke  {rows} rows  3 zones  {elapsed:.3} s  {evaluations} evaluations");
    assert!(
        (3..=EVALUATION_CEILING).contains(&evaluations),
        "eval zones took {evaluations} evaluations (ceiling {EVALUATION_CEILING})"
    );

    let base = analyzer.base_l();
    let hi = base + sc.grid.search_hi_ns;
    let envelope = analyzer.tolerance_zones(hi);
    let profile = analyzer.profile(base, hi);
    for (pct, ev, env) in [
        (1.0, zones.pct1_ns, envelope.pct1),
        (2.0, zones.pct2_ns, envelope.pct2),
        (5.0, zones.pct5_ns, envelope.pct5),
    ] {
        assert!(
            ev.is_finite() && env.is_finite(),
            "{pct}% zone: {ev} vs {env}"
        );
        let cap = envelope.baseline_runtime * (1.0 + pct / 100.0);
        let t = profile.runtime(base + ev);
        let runtime_rel = (t - cap).abs() / cap;
        let zone_rel = (ev - env).abs() / ev.abs().max(env.abs());
        eprintln!("  {pct}% zone  eval {ev}  envelope {env}  ∆L rel {zone_rel:.1e}  T rel {runtime_rel:.1e}");
        assert!(
            runtime_rel <= RUNTIME_REL_TOL,
            "{pct}% zone: the envelope's T at eval's zone is {t}, cap {cap}"
        );
        assert!(
            zone_rel <= ZONE_REL_TOL,
            "{pct}% zone: eval {ev} vs envelope {env}"
        );
    }
}
