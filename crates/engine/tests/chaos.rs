//! Chaos integration suite (ISSUE 8): end-to-end fault injection across
//! the trace → solve → campaign pipeline.
//!
//! The resilience contract under test:
//!
//! 1. **Recovered runs are byte-identical.** When every injected fault is
//!    absorbed by a recovery mechanism (solver fallback ladder, executor
//!    retry, cache quarantine-and-recompute), the results JSON is exactly
//!    the bytes a fault-free run produces.
//! 2. **Unrecovered faults are typed errors.** Past the recovery budget,
//!    failures surface as [`ScenarioError`] / [`CampaignError`] values
//!    with partial results retained — never a panic, never a corrupt file.
//!
//! Each test arms faults and records telemetry on its own thread, and
//! the executor's workers inherit both; the last two tests check that.

use llamp_engine::{
    run_campaign, run_campaign_checked, CampaignSpec, ExecutorConfig, ResultCache, ScenarioError,
};
use llamp_faults::Faults;
use std::collections::BTreeSet;

fn arm(spec: &str) -> Faults {
    Faults::parse(spec, 0).unwrap()
}

/// Arm `spec`, record, run `f`, and return its value with the handle's
/// fired count and the recording.
fn armed_run<T>(spec: &str, f: impl FnOnce() -> T) -> (T, u64, llamp_obs::Snapshot) {
    let faults = arm(spec);
    let armed = faults.install();
    llamp_obs::enable();
    let out = f();
    let snap = llamp_obs::take();
    llamp_obs::disable();
    drop(armed);
    (out, faults.fired_total(), snap)
}

const SPEC: &str = r#"
name = "chaos-itest"
backends = ["parametric", "lp-sparse"]

[grid]
deltas_ns = [0.0, 20000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC, "chaos.toml").unwrap()
}

fn config(max_retries: u32) -> ExecutorConfig {
    // 1 worker thread: fault hit-order is then a pure function of the
    // (deterministic) scenario order, so count arms land reproducibly.
    ExecutorConfig {
        threads: 1,
        job_timeout: None,
        max_retries,
    }
}

fn run_bytes(max_retries: u32) -> String {
    let cache = ResultCache::new();
    let (result, _) = run_campaign(&spec(), &config(max_retries), &cache);
    result.to_json()
}

#[test]
fn solver_stall_recovery_is_byte_identical() {
    let clean = run_bytes(0);
    let (faulted, fired, snap) = armed_run("solve.stall:1", || run_bytes(0));
    assert!(fired >= 1, "fault never fired");
    assert_eq!(
        clean, faulted,
        "solver fallback ladder must reproduce the fault-free bytes"
    );
    // The crash-seeded cold re-solve is the rung that answers, and no
    // other rung exists to take over.
    assert_eq!(snap.counters.get("solve.fallback.cold").copied(), Some(1));
    let rungs: Vec<&String> = snap
        .counters
        .keys()
        .filter(|k| k.starts_with("solve.fallback."))
        .collect();
    assert_eq!(rungs, ["solve.fallback.cold"], "unexpected rung counters");
}

#[test]
fn executor_panic_recovery_is_byte_identical_and_counted() {
    let clean = run_bytes(1);
    let (faulted, _, snap) = armed_run("exec.job.panic:1", || run_bytes(1));
    assert_eq!(
        clean, faulted,
        "a retried panic must reproduce the fault-free bytes"
    );
    assert!(
        snap.counters.get("exec.retry").copied().unwrap_or(0) >= 1,
        "retry must be visible as exec.retry"
    );
    assert!(
        snap.counters.get("fault.injected").copied().unwrap_or(0) >= 1,
        "injection must be visible as fault.injected"
    );
}

#[test]
fn torn_cache_write_quarantines_and_recomputes_identically() {
    let dir = std::env::temp_dir().join(format!("llamp-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.json");

    let cache = ResultCache::new();
    let (result, _) = run_campaign(&spec(), &config(0), &cache);
    let clean = result.to_json();

    // Tear the write mid-file, as a crash or full disk would.
    let armed = arm("cache.save.torn:1").install();
    cache.save(&path).unwrap();
    drop(armed);

    // Reload: the damage is detected, the file quarantined, and the run
    // recomputes from scratch to the exact same bytes.
    let reloaded = ResultCache::load(&path).unwrap();
    assert!(!path.exists(), "torn file should have been quarantined");
    let (again, summary) = run_campaign(&spec(), &config(0), &reloaded);
    assert_eq!(clean, again.to_json());
    assert_eq!(summary.cache_hits, 0, "nothing salvageable should hit");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unrecovered_faults_are_typed_errors_with_partial_results() {
    // Every job panics and retries are off: nothing can recover.
    let armed = arm("exec.job.panic:0.999999").install();
    let err = run_campaign_checked(&spec(), &config(0), &ResultCache::new(), 0)
        .expect_err("a blown fault budget must be an error");
    drop(armed);
    assert!(!err.failures.is_empty());
    for (key, cause) in &err.failures {
        assert!(!key.is_empty());
        assert!(
            matches!(cause, ScenarioError::Panicked(m) if m.contains("injected")),
            "expected an injected panic, got {cause:?}"
        );
    }
    // The partial result still carries every scenario slot, typed.
    assert_eq!(err.result.scenarios.len(), err.summary.jobs_unique);
    let rendered = err.to_string();
    assert!(rendered.contains("fault budget"));
}

#[test]
fn fault_budget_tolerates_bounded_failures() {
    // Exactly one job panics (count arm), retries off. It is the job that
    // builds the spec's one graph, so both of its scenarios fail: the
    // budget counts failed scenarios, not jobs.
    let armed = arm("exec.job.panic:1").install();
    let (result, _) = run_campaign_checked(&spec(), &config(0), &ResultCache::new(), 2)
        .expect("two failures within a budget of two must pass");
    drop(armed);
    let failed = result
        .scenarios
        .iter()
        .filter(|s| s.outcome.is_err())
        .count();
    assert_eq!(failed, 2, "the failed slots stay typed errors");

    // The same failure with a budget of one is a campaign error.
    let armed = arm("exec.job.panic:1").install();
    let err = run_campaign_checked(&spec(), &config(0), &ResultCache::new(), 1)
        .expect_err("budget 1 tolerates one failed scenario");
    drop(armed);
    assert_eq!(err.failures.len(), 2);
    assert_eq!(err.fault_budget, 1);
}

#[test]
fn a_panicked_build_fails_its_key_and_nothing_else() {
    // Two workloads, so two graph keys. With one worker and no retries
    // the first job to run is the first key's build, and the count arm
    // panics it: every scenario of that key carries the same typed error,
    // and every other scenario is the clean run's, byte for byte.
    let two_keys = format!("{SPEC}\n[[workloads]]\napp = \"milc\"\nranks = 4\niters = 1\n");
    let spec = CampaignSpec::parse(&two_keys, "keys.toml").unwrap();
    let run = || run_campaign(&spec, &config(0), &ResultCache::new()).0;
    let clean = run();
    let (faulted, fired, _) = armed_run("exec.job.panic:1", run);
    assert_eq!(fired, 1);

    let first_key = clean.scenarios[0].scenario.graph_key();
    let mut expected = clean.clone();
    let mut fanned_out = 0;
    for sr in &mut expected.scenarios {
        if sr.scenario.graph_key() == first_key {
            sr.outcome = Err(ScenarioError::Panicked(
                "injected fault: exec.job.panic".into(),
            ));
            fanned_out += 1;
        }
    }
    assert_eq!(fanned_out, 2, "both backends of the first workload");
    assert!(expected.scenarios.len() > fanned_out);
    assert!(faulted
        .to_json()
        .contains("panic: injected fault: exec.job.panic"));
    assert_eq!(expected.to_json(), faulted.to_json());
}

#[test]
fn concurrent_threads_see_only_their_own_faults_and_counters() {
    let clean = run_bytes(0);
    let both = std::sync::Barrier::new(2);
    let (solver, parser) = std::thread::scope(|s| {
        let solver = s.spawn(|| {
            armed_run("solve.stall:1", || {
                both.wait();
                run_bytes(0)
            })
        });
        let parser = s.spawn(|| {
            armed_run("trace.parse.corrupt:1", || {
                both.wait();
                llamp_trace::text::parse_trace("").unwrap_err().message
            })
        });
        (solver.join().unwrap(), parser.join().unwrap())
    });
    for (fired, snap, own, other) in [
        (solver.1, &solver.2, "solve.stall", "trace.parse.corrupt"),
        (parser.1, &parser.2, "trace.parse.corrupt", "solve.stall"),
    ] {
        let count = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        assert_eq!(fired, 1, "{own}");
        assert_eq!(count("fault.injected"), 1, "{own}");
        assert_eq!(count(&format!("fault.injected.{own}")), 1);
        assert_eq!(count(&format!("fault.injected.{other}")), 0);
    }
    assert_eq!(solver.0, clean);
    assert!(parser.0.contains("injected fault"), "{}", parser.0);
    assert!(parser.2.events.is_empty(), "no campaign spans leak in");
}

#[test]
fn campaign_workers_fire_and_record_for_the_arming_thread() {
    // One lp-sparse scenario on two threads: the panic fires on the
    // executor worker, and the retried job shards its grid points across
    // nested workers, which inherit the handle and recorder again.
    let spec = CampaignSpec::parse(&SPEC.replace("\"parametric\", ", ""), "lp.toml").unwrap();
    let config = ExecutorConfig {
        threads: 2,
        ..ExecutorConfig::default()
    };
    let run = || run_campaign(&spec, &config, &ResultCache::new()).0;
    let clean = run().to_json();
    let (faulted, fired, snap) = armed_run("exec.job.panic:1", run);
    assert_eq!(clean, faulted.to_json(), "a retried panic changes no byte");
    assert_eq!(fired, 1, "the fault fires on a worker");
    assert_eq!(snap.counters.get("fault.injected.exec.job.panic"), Some(&1));
    let lanes = |name: &str| {
        let spans = snap.events.iter().filter(|e| e.name == name);
        spans.map(|e| e.tid).collect::<BTreeSet<u32>>()
    };
    // The main thread runs the campaign; the executor worker and the
    // point-shard workers nested in it run exec.job on lanes of their own.
    let (campaign, jobs) = (lanes("campaign"), lanes("exec.job"));
    assert_eq!(campaign.len(), 1);
    assert!(jobs.len() >= 2, "exec.job lanes: {jobs:?}");
    assert!(jobs.is_disjoint(&campaign), "exec.job runs on worker lanes");
}
