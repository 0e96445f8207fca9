//! Cache-level telemetry (ISSUE 6, satellite 3): the per-kind obs
//! counters `cache.{pt,apt,zones,mzones}.{hit,miss,put}` must match the
//! cache behaviour actually observed — cold run, warm run, and a disk
//! round-trip — for both cache-key families (grid campaigns use
//! `pt`/`zones`, axes campaigns use `apt`/`mzones`).

use llamp_engine::{run_campaign, CampaignSpec, ExecutorConfig, ResultCache};
use std::collections::BTreeMap;

const GRID_SPEC: &str = r#"
name = "cache-obs-grid"
backends = ["parametric"]

[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

const AXES_SPEC: &str = r#"
name = "cache-obs-axes"
backends = ["lp-parametric"]
search_hi_ns = 1000000.0

[[axes]]
param = "L"
deltas_ns = [0.0, 20000.0]

[[axes]]
param = "G"
deltas = [0.0, 0.05]

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

fn config() -> ExecutorConfig {
    ExecutorConfig {
        threads: 1,
        ..Default::default()
    }
}

/// Run one campaign under a fresh obs session; return its counters.
fn counters_of(spec: &CampaignSpec, cache: &ResultCache) -> BTreeMap<String, u64> {
    llamp_obs::enable();
    let (result, _) = run_campaign(spec, &config(), cache);
    assert!(result.scenarios.iter().all(|s| s.outcome.is_ok()));
    let snapshot = llamp_obs::take();
    llamp_obs::disable();
    snapshot.counters
}

fn get(c: &BTreeMap<String, u64>, k: &str) -> u64 {
    c.get(k).copied().unwrap_or(0)
}

#[test]
fn grid_campaign_counts_pt_and_zones_kinds() {
    let spec = CampaignSpec::parse(GRID_SPEC, "grid.toml").unwrap();
    let cache = ResultCache::new();

    // Cold: every point and the zones triple miss once, then publish.
    let cold = counters_of(&spec, &cache);
    assert_eq!(get(&cold, "cache.pt.miss"), 3);
    assert_eq!(get(&cold, "cache.pt.put"), 3);
    assert_eq!(get(&cold, "cache.zones.miss"), 1);
    assert_eq!(get(&cold, "cache.zones.put"), 1);
    assert_eq!(get(&cold, "cache.pt.hit"), 0);
    assert_eq!(get(&cold, "cache.zones.hit"), 0);

    // Warm: the full-cache-hit probe replays every lookup as a hit; no
    // misses, no new entries.
    let warm = counters_of(&spec, &cache);
    assert_eq!(get(&warm, "cache.pt.hit"), 3);
    assert_eq!(get(&warm, "cache.zones.hit"), 1);
    assert_eq!(get(&warm, "cache.pt.miss"), 0);
    assert_eq!(get(&warm, "cache.pt.put"), 0);
    assert_eq!(get(&warm, "cache.zones.miss"), 0);

    // Disk round-trip: loading admits every saved entry back through
    // `put` (counted per kind), after which the run is all hits again.
    let dir = std::env::temp_dir().join(format!("llamp-obs-cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");
    cache.save(&path).unwrap();

    llamp_obs::enable();
    let reloaded = ResultCache::load(&path).unwrap();
    let load_counters = llamp_obs::take().counters;
    llamp_obs::disable();
    assert_eq!(get(&load_counters, "cache.pt.put"), 3);
    assert_eq!(get(&load_counters, "cache.zones.put"), 1);

    let replayed = counters_of(&spec, &reloaded);
    assert_eq!(get(&replayed, "cache.pt.hit"), 3);
    assert_eq!(get(&replayed, "cache.zones.hit"), 1);
    assert_eq!(get(&replayed, "cache.pt.miss"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn axes_campaign_counts_apt_and_mzones_kinds() {
    let spec = CampaignSpec::parse(AXES_SPEC, "axes.toml").unwrap();
    let cache = ResultCache::new();

    // 2×2 axis grid → 4 apt entries plus one mzones triple; the grid
    // kinds must not appear at all.
    let cold = counters_of(&spec, &cache);
    assert_eq!(get(&cold, "cache.apt.miss"), 4);
    assert_eq!(get(&cold, "cache.apt.put"), 4);
    assert_eq!(get(&cold, "cache.mzones.miss"), 1);
    assert_eq!(get(&cold, "cache.mzones.put"), 1);
    assert_eq!(get(&cold, "cache.pt.miss"), 0);
    assert_eq!(get(&cold, "cache.zones.miss"), 0);

    let warm = counters_of(&spec, &cache);
    assert_eq!(get(&warm, "cache.apt.hit"), 4);
    assert_eq!(get(&warm, "cache.mzones.hit"), 1);
    assert_eq!(get(&warm, "cache.apt.miss"), 0);
    assert_eq!(get(&warm, "cache.apt.put"), 0);
}
