//! Integration tests for the campaign subsystem: spec round-trips, cache
//! semantics across runs, thread-count determinism, the LP backend's
//! aliases and crash-started points, and the `llamp` CLI's flag checks.

use llamp_engine::{
    parse_backend, run_campaign, Backend, CampaignSpec, ExecutorConfig, LpSolver, Provenance,
    ResultCache,
};

const SPEC: &str = r#"
name = "itest"
backends = ["parametric", "eval"]

[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "milc"
ranks = 4
iters = 1

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1

[[topologies]]
kind = "uniform"

[[topologies]]
kind = "fattree"
k = 4
"#;

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC, "itest.toml").unwrap()
}

fn config(threads: usize) -> ExecutorConfig {
    ExecutorConfig {
        threads,
        job_timeout: None,
        ..Default::default()
    }
}

#[test]
fn spec_round_trip_preserves_hash_and_content() {
    let a = spec();
    // Canonical JSON re-encoding parses back to the identical spec.
    let b = CampaignSpec::parse(&a.to_value().to_json(), "x.json").unwrap();
    assert_eq!(a, b);
    assert_eq!(a.fingerprint(), b.fingerprint());
    // A reordered-but-equivalent TOML spec hashes identically.
    let reordered = r#"
name = "renamed-on-purpose"
backends = ["eval", "parametric"]

[grid]
deltas_ns = [40000.0, 0.0, 20000.0, 0.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1

[[workloads]]
app = "milc"
ranks = 4
iters = 1

[[topologies]]
kind = "fattree"
k = 4

[[topologies]]
kind = "uniform"
"#;
    let c = CampaignSpec::parse(reordered, "y.toml").unwrap();
    // The name is not part of the sweep identity.
    assert_eq!(a.fingerprint(), c.fingerprint());
    // A genuinely different sweep hashes differently.
    let mut d = a.clone();
    d.grid.search_hi_ns *= 2.0;
    assert_ne!(a.fingerprint(), d.fingerprint());
}

#[test]
fn second_run_is_all_cache_hits_and_byte_identical() {
    let spec = spec();
    let cache = ResultCache::new();
    let (r1, s1) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s1.jobs_unique, 8, "2 workloads x 2 topologies x 2 backends");
    assert_eq!(s1.cache_hits, 0, "cold cache cannot hit");
    assert!(s1.cache_misses > 0);
    assert!(s1.provenance.iter().all(|p| *p == Provenance::Computed));

    let (r2, s2) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s2.cache_misses, 0, "warm cache must not recompute anything");
    assert!(s2.hit_rate() >= 0.9, "hit rate {}", s2.hit_rate());
    assert!(s2.provenance.iter().all(|p| *p == Provenance::FullCacheHit));
    assert_eq!(r1.to_json(), r2.to_json(), "results must be byte-identical");
}

#[test]
fn overlapping_grid_reuses_shared_points() {
    let a = spec();
    let cache = ResultCache::new();
    run_campaign(&a, &config(1), &cache);
    let misses_before = cache.stats().misses();

    // Extend the grid by one new point: only the new point (plus nothing
    // else) may miss per scenario.
    let mut b = a.clone();
    b.grid.deltas_ns.push(60_000.0);
    b.canonicalize();
    let (result, summary) = run_campaign(&b, &config(1), &cache);
    assert!(result.scenarios.iter().all(|s| s.outcome.is_ok()));
    let new_misses = cache.stats().misses() - misses_before;
    assert_eq!(
        new_misses, 8,
        "exactly one new grid point per scenario should miss"
    );
    assert!(summary.hit_rate() > 0.7, "hit rate {}", summary.hit_rate());
}

#[test]
fn cache_persistence_round_trips_through_disk() {
    let spec = spec();
    let cache = ResultCache::new();
    let (r1, _) = run_campaign(&spec, &config(1), &cache);

    let dir = std::env::temp_dir().join(format!("llamp-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    cache.save(&path).unwrap();

    let reloaded = ResultCache::load(&path).unwrap();
    assert_eq!(reloaded.len(), cache.len());
    let (r2, s2) = run_campaign(&spec, &config(1), &reloaded);
    assert_eq!(s2.cache_misses, 0);
    assert_eq!(r1.to_json(), r2.to_json());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_count_does_not_change_results() {
    let spec = spec();
    // Fresh caches so both runs compute everything.
    let (r1, s1) = run_campaign(&spec, &config(1), &ResultCache::new());
    let (r2, s2) = run_campaign(&spec, &config(2), &ResultCache::new());
    assert_eq!(s1.jobs_executed, s2.jobs_executed);
    assert_eq!(
        r1, r2,
        "2-thread campaign must equal 1-thread campaign result-for-result"
    );
    assert_eq!(r1.to_json(), r2.to_json());
}

#[test]
fn lp_backends_are_byte_identical() {
    // `lp-dense`, `lp-parametric` and `lp-dual` are aliases of
    // `lp-sparse`: a spec listing all four answers one LP scenario per
    // workload, and its results file is byte-identical to the spec that
    // names only `lp-sparse`.
    let parse = |backends: &str| {
        CampaignSpec::parse(
            &format!(
                r#"
name = "lp-identity"
backends = [{backends}]

[grid]
window = {{ lo = 0.0, hi = 80000.0, points = 5 }}
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1

[[workloads]]
app = "milc"
ranks = 4
iters = 1
"#
            ),
            "ident.toml",
        )
        .unwrap()
    };
    let all = parse(r#""lp-dense", "lp-sparse", "lp-parametric", "lp-dual""#);
    let one = parse(r#""lp-sparse""#);
    assert_eq!(all.backends, one.backends);
    assert_eq!(all.fingerprint(), one.fingerprint());
    let (r_all, _) = run_campaign(&all, &config(2), &ResultCache::new());
    let (r_one, _) = run_campaign(&one, &config(2), &ResultCache::new());
    assert_eq!(r_all.scenarios.len(), 2, "2 workloads x 1 LP backend");
    assert!(r_all.scenarios.iter().all(|s| s.outcome.is_ok()));
    assert_eq!(r_all.to_json(), r_one.to_json());
}

#[test]
fn every_lp_alias_parses_to_lp_sparse() {
    for alias in [
        "lp",
        "simplex",
        "lp-sparse",
        "lp-dense",
        "lp-parametric",
        "lp-dual",
        "LP-Dense",
    ] {
        let backend = parse_backend(alias).unwrap();
        assert_eq!(backend, Backend::Lp(LpSolver::Sparse), "{alias}");
        assert_eq!(backend.name(), "lp-sparse", "{alias}");
    }
    assert!(parse_backend("lp-gurobi").is_err());
    // Two aliases in one spec canonicalise to a single scenario.
    let spec = CampaignSpec::parse(
        "name = \"a\"\nbackends = [\"lp-parametric\", \"lp-dual\"]\n[grid]\ndeltas_ns = [0.0]\n[[workloads]]\napp = \"milc\"\n",
        "a.toml",
    )
    .unwrap();
    assert_eq!(spec.backends, vec![Backend::Lp(LpSolver::Sparse)]);
    assert_eq!(llamp_engine::expand(&spec).len(), 1);
}

#[test]
fn example_campaign_lp_points_are_crash_started() {
    // Every LP query starts from its own longest-path crash basis, which
    // the simplex certifies without a single pivot: the example
    // campaign's LP answers (anchors, grid points, zone flips) take no
    // pivots and no phase-1 iterations.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/campaign.toml");
    let mut spec = CampaignSpec::parse(&std::fs::read_to_string(path).unwrap(), path).unwrap();
    spec.backends = vec![parse_backend("lp-sparse").unwrap()];
    spec.canonicalize();
    let (result, summary) = run_campaign(&spec, &config(2), &ResultCache::new());
    assert!(result.scenarios.iter().all(|s| s.outcome.is_ok()));
    assert!(summary.solver.iterations > 0, "{:?}", summary.solver);
    assert_eq!(summary.solver.pivots, 0, "{:?}", summary.solver);
    assert_eq!(summary.solver.phase1_iterations, 0, "{:?}", summary.solver);
}

#[test]
fn crash_point_parallelism_is_thread_deterministic() {
    // One scenario + many threads is the shape that lends idle workers to
    // the sweep loop (point_threads > 1): the sharded run must reproduce
    // the single-threaded bytes exactly, and a warm-cache rerun must
    // assemble the same file again.
    let one = r#"
name = "crash-shard"
backends = ["lp-sparse"]

[grid]
window = { lo = 0.0, hi = 100000.0, points = 12 }
search_hi_ns = 1000000.0

[[workloads]]
app = "milc"
ranks = 4
iters = 1
"#;
    let spec = CampaignSpec::parse(one, "shard.toml").unwrap();
    let (r1, _) = run_campaign(&spec, &config(1), &ResultCache::new());
    let cache = ResultCache::new();
    let (r4, _) = run_campaign(&spec, &config(4), &cache);
    assert_eq!(
        r1.to_json(),
        r4.to_json(),
        "sharded crash-start sweep must be byte-identical to serial"
    );
    let (r4b, s4b) = run_campaign(&spec, &config(4), &cache);
    assert_eq!(s4b.cache_misses, 0);
    assert_eq!(r1.to_json(), r4b.to_json());
}

#[test]
fn lp_points_are_cache_state_independent() {
    // Each LP grid point starts from its own crash basis, never from a
    // neighbouring point — so computing a *subset* of the grid (because
    // the rest was cached) must produce the same bytes as computing the
    // whole grid fresh.
    let parse = |deltas: &str| {
        CampaignSpec::parse(
            &format!(
                r#"
name = "cache-independence"
backends = ["lp-sparse"]
[grid]
deltas_ns = [{deltas}]
search_hi_ns = 1000000.0
[[workloads]]
app = "milc"
ranks = 4
iters = 1
"#
            ),
            "x.toml",
        )
        .unwrap()
    };
    // Warm a cache with a 2-point grid, then run the 3-point superset
    // against it: only the middle point computes.
    let cache = ResultCache::new();
    run_campaign(&parse("0.0, 40000.0"), &config(1), &cache);
    let (with_cache, s1) = run_campaign(&parse("0.0, 20000.0, 40000.0"), &config(1), &cache);
    assert!(s1.cache_hits > 0, "the superset run must reuse points");
    // The same superset computed entirely fresh.
    let (fresh, _) = run_campaign(
        &parse("0.0, 20000.0, 40000.0"),
        &config(1),
        &ResultCache::new(),
    );
    assert_eq!(
        with_cache.to_json(),
        fresh.to_json(),
        "cached-subset and fresh runs must be byte-identical"
    );
}

#[test]
fn cli_rejects_removed_flags_with_usage_exit_code() {
    // `--solver-stats` (run and report) and `--sweep-start` (run) are
    // gone: like any unknown flag they are usage errors, exit code 2.
    let dir = std::env::temp_dir().join(format!("llamp-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec_path = dir.join("spec.toml");
    std::fs::write(
        &spec_path,
        "name = \"cli\"\nbackends = [\"lp-sparse\"]\n[grid]\ndeltas_ns = [0.0, 20000.0]\nsearch_hi_ns = 500000.0\n[[workloads]]\napp = \"milc\"\nranks = 4\niters = 1\n",
    )
    .unwrap();
    let out_path = dir.join("out.json");
    let llamp = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_llamp"))
            .args(args)
            .output()
            .unwrap()
    };
    let spec_arg = spec_path.to_str().unwrap();
    let out_arg = out_path.to_str().unwrap();
    let ok = llamp(&["run", spec_arg, "--out", out_arg, "--quiet"]);
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    for args in [
        vec!["run", spec_arg, "--solver-stats"],
        vec!["run", spec_arg, "--sweep-start", "crash"],
        vec!["report", out_arg, "--solver-stats"],
    ] {
        let bad = llamp(&args);
        assert_eq!(bad.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_scenarios_are_deduplicated() {
    let mut dup = spec();
    let w = dup.workloads[0].clone();
    dup.workloads.push(w);
    let (_, summary) = run_campaign(&dup, &config(1), &ResultCache::new());
    assert_eq!(summary.jobs_requested, 12, "3 workload entries x 2 x 2");
    assert_eq!(
        summary.jobs_unique, 8,
        "duplicate workload must not add jobs"
    );
}

#[test]
fn timed_out_jobs_leave_no_cache_entries() {
    let spec = spec();
    let cache = ResultCache::new();
    let zero_budget = ExecutorConfig {
        threads: 1,
        job_timeout: Some(std::time::Duration::ZERO),
        ..Default::default()
    };
    let (result, summary) = run_campaign(&spec, &zero_budget, &cache);
    assert!(
        summary
            .provenance
            .iter()
            .all(|p| *p == Provenance::TimedOut),
        "a zero budget must time every job out"
    );
    assert!(result.scenarios.iter().all(|s| s.outcome.is_err()));
    // Timed-out work must not be published: a rerun must recompute, not
    // silently flip to full-cache-hit success.
    assert!(cache.is_empty(), "cache has {} leaked entries", cache.len());
    let (r2, s2) = run_campaign(&spec, &config(1), &cache);
    assert!(s2.provenance.iter().all(|p| *p == Provenance::Computed));
    assert!(r2.scenarios.iter().all(|s| s.outcome.is_ok()));
}

const AXES_SPEC: &str = r#"
name = "axes-itest"
backends = ["lp-sparse", "lp-parametric"]
search_hi_ns = 1000000.0

[[axes]]
param = "L"
deltas_ns = [0.0, 20000.0, 40000.0]

[[axes]]
param = "G"
deltas = [0.0, 0.05]

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

fn axes_spec() -> CampaignSpec {
    CampaignSpec::parse(AXES_SPEC, "axes.toml").unwrap()
}

#[test]
fn two_axis_campaign_end_to_end() {
    let spec = axes_spec();
    assert_eq!(spec.axes.len(), 2);
    assert!(spec.grid.deltas_ns.is_empty());
    let cache = ResultCache::new();
    let (r1, s1) = run_campaign(&spec, &config(2), &cache);
    assert!(r1.scenarios.iter().all(|s| s.outcome.is_ok()));
    for s in &r1.scenarios {
        let outcome = s.outcome.as_ref().unwrap();
        assert_eq!(outcome.points.len(), 6, "3 L x 2 G points");
        assert!(outcome.sweep.is_empty(), "axes campaigns have no 1-D sweep");
        // The cartesian product is in lexicographic order, L outermost.
        let tuples: Vec<&[f64]> = outcome.points.iter().map(|p| p.deltas.as_slice()).collect();
        assert_eq!(tuples[0], [0.0, 0.0]);
        assert_eq!(tuples[1], [0.0, 0.05]);
        assert_eq!(tuples[2], [20_000.0, 0.0]);
        // Runtime grows along both axes; λ_G > 0 once G matters.
        let v0 = &outcome.points[0].value;
        let v1 = &outcome.points[1].value;
        assert!(v1.runtime_ns >= v0.runtime_ns);
        assert!(v0.lambda_l >= 0.0 && v0.lambda_g >= 0.0 && v0.lambda_o >= 0.0);
        assert!(outcome.zones.baseline_runtime_ns > 0.0);
    }
    // Second run: pure cache assembly, byte-identical.
    let (r2, s2) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s2.cache_misses, 0);
    assert!(s2.provenance.iter().all(|p| *p == Provenance::FullCacheHit));
    assert_eq!(r1.to_json(), r2.to_json());
    assert!(s1.cache_misses > 0);
}

#[test]
fn two_axis_lp_backends_are_byte_identical_across_cache_states() {
    // lp-sparse and its alias lp-parametric answer one scenario on the
    // 2-D grid, and a run that computes only the set difference against
    // a warm cache must reproduce the fresh bytes exactly.
    let spec = axes_spec();
    let (fresh, _) = run_campaign(&spec, &config(2), &ResultCache::new());
    assert_eq!(fresh.scenarios.len(), 1, "aliases are one LP backend");

    // Warm a cache with a 1-D L slice (G axis pinned to its base), then
    // run the full 2-D grid: the shared (∆L, 0) points hit, the rest
    // compute — and the bytes must equal the all-fresh run.
    let slice = CampaignSpec::parse(
        r#"
name = "axes-slice"
backends = ["lp-sparse", "lp-parametric"]
search_hi_ns = 1000000.0
[[axes]]
param = "L"
deltas_ns = [0.0, 20000.0, 40000.0]
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
        "slice.toml",
    )
    .unwrap();
    let cache = ResultCache::new();
    run_campaign(&slice, &config(1), &cache);
    let (warm, sw) = run_campaign(&spec, &config(1), &cache);
    assert!(sw.cache_hits > 0, "1-D slice points must be reused in 2-D");
    assert_eq!(warm.to_json(), fresh.to_json());
}

#[test]
fn axes_zone_flips_are_pivot_free_and_cross_sections_warm() {
    // The anchor, every grid point and every zone flip start from their
    // own crash basis. Zone flips take no pivots at all, so a
    // single-point campaign (the anchor, its own point and the 3 flips)
    // pivots nowhere. The 5 extra points of the 2-D grid must together
    // cost less than one cold solve of the same LP from the historic
    // topological crash — only possible if their crash starts hold.
    let one_point = CampaignSpec::parse(
        r#"
name = "anchor-only"
backends = ["lp-sparse"]
search_hi_ns = 1000000.0
[[axes]]
param = "L"
deltas_ns = [0.0]
[[axes]]
param = "G"
deltas = [0.0]
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
        "one.toml",
    )
    .unwrap();
    let mut grid = axes_spec();
    grid.backends = vec![llamp_engine::parse_backend("lp-sparse").unwrap()];
    grid.canonicalize();
    let (_, s_anchor) = run_campaign(&one_point, &config(1), &ResultCache::new());
    let (_, s_grid) = run_campaign(&grid, &config(1), &ResultCache::new());
    assert_eq!(s_anchor.solver.pivots, 0, "{:?}", s_anchor.solver);
    assert_eq!(
        s_anchor.solver.phase1_iterations, 0,
        "{:?}",
        s_anchor.solver
    );

    let sc = &llamp_engine::expand(&one_point)[0];
    let analyzer = sc.build_analyzer().unwrap();
    let mut cold = analyzer.multi_lp();
    cold.set_crash_kind(llamp_core::CrashKind::Topological);
    let cold_iters = cold.predict(analyzer.base_point()).unwrap().iterations;
    let extra_points = s_grid.solver.iterations - s_anchor.solver.iterations;
    assert!(
        extra_points < cold_iters,
        "5 extra grid points ({extra_points} iters) must stay warm relative to a cold solve ({cold_iters} iters)"
    );
}

#[test]
fn axes_spec_round_trip_and_canonical_order() {
    let a = axes_spec();
    // JSON re-encoding parses back identically.
    let b = CampaignSpec::parse(&a.to_value().to_json(), "x.json").unwrap();
    assert_eq!(a, b);
    assert_eq!(a.fingerprint(), b.fingerprint());
    // Axis order in the file does not matter: G-before-L canonicalises to
    // L-before-G and hashes identically.
    let swapped = r#"
name = "swapped"
backends = ["lp-parametric", "lp-sparse"]
search_hi_ns = 1000000.0
[[axes]]
param = "G"
deltas = [0.05, 0.0]
[[axes]]
param = "L"
deltas_ns = [40000.0, 0.0, 20000.0]
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;
    let c = CampaignSpec::parse(swapped, "y.toml").unwrap();
    assert_eq!(a.fingerprint(), c.fingerprint());
    // A different sweep hashes differently.
    let mut d = a.clone();
    d.axes[1].deltas.push(0.1);
    assert_ne!(a.fingerprint(), d.fingerprint());
}

#[test]
fn solver_stats_surface_in_run_summary() {
    // LP scenarios report their solver effort through the RunSummary side
    // channel (never the deterministic results file): a computed run has
    // iterations, a fully cached rerun has none — while the results stay
    // byte-identical across the two.
    let spec = CampaignSpec::parse(
        r#"
name = "stats"
backends = ["lp-sparse"]
[grid]
deltas_ns = [0.0, 40000.0]
search_hi_ns = 500000.0
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
        "stats.toml",
    )
    .unwrap();
    let cache = ResultCache::new();
    let (r1, s1) = run_campaign(&spec, &config(1), &cache);
    // Crash-started solves pivot nowhere (no FTRANs), but every one
    // prices the whole model to certify its basis.
    assert!(
        s1.solver.iterations > 0 && s1.solver.pricing_full_scans > 0,
        "computed LP run must report solver effort: {:?}",
        s1.solver
    );
    let (r2, s2) = run_campaign(&spec, &config(1), &cache);
    assert_eq!(s2.solver.iterations, 0, "cached rerun solves nothing");
    assert_eq!(r1.to_json(), r2.to_json(), "stats never leak into results");
}

#[test]
fn reduced_and_unreduced_runs_never_share_cache_entries() {
    // Same sweep with reduction on and off: different spec fingerprints,
    // different cache keys (so the shared cache never cross-substitutes),
    // and answers that agree to tolerance but need not be bitwise equal.
    let on = spec();
    let mut off = spec();
    off.reduce = false;
    assert!(on.reduce);
    assert_ne!(on.fingerprint(), off.fingerprint());

    let cache = ResultCache::new();
    let (r_on, s_on) = run_campaign(&on, &config(2), &cache);
    let entries_after_on = cache.len();
    let (r_off, s_off) = run_campaign(&off, &config(2), &cache);
    // The second run found nothing reusable: every piece recomputed.
    assert_eq!(
        s_off.full_cache_hits, 0,
        "raw run must not hit reduced entries"
    );
    assert_eq!(cache.len(), 2 * entries_after_on);
    // Reduction ran only in the first campaign.
    assert!(!s_on.reduction.is_empty());
    assert!(s_on.reduction.rows_after < s_on.reduction.rows_before);
    // The raw run reports no reduction activity at all (so `llamp run
    // --no-reduce` never prints a reduction-totals block).
    assert!(s_off.reduction.is_empty());

    // Semantically identical answers (numerical tolerance).
    for (a, b) in r_on.scenarios.iter().zip(&r_off.scenarios) {
        let (oa, ob) = (a.outcome.as_ref().unwrap(), b.outcome.as_ref().unwrap());
        for (pa, pb) in oa.sweep.iter().zip(&ob.sweep) {
            assert!(
                (pa.runtime_ns - pb.runtime_ns).abs() <= 1e-9 * (1.0 + pa.runtime_ns),
                "reduced {} vs raw {}",
                pa.runtime_ns,
                pb.runtime_ns
            );
            assert!((pa.lambda - pb.lambda).abs() <= 1e-9);
        }
    }

    // And a reduced re-run against the shared cache is a pure hit.
    let (r_on2, s_on2) = run_campaign(&on, &config(1), &cache);
    assert_eq!(s_on2.full_cache_hits, s_on2.jobs_unique);
    assert_eq!(r_on.to_json(), r_on2.to_json());
}

#[test]
fn reduction_keeps_double_run_byte_identity() {
    // The determinism contract with reduction on (the default): two runs
    // from cold caches at different thread counts are byte-identical.
    let s = spec();
    let (r1, _) = run_campaign(&s, &config(1), &ResultCache::new());
    let (r2, _) = run_campaign(&s, &config(4), &ResultCache::new());
    assert_eq!(r1.to_json(), r2.to_json());
}
