//! The observability determinism contract (ISSUE 6): results JSON must
//! be byte-identical with telemetry on or off, across thread counts and
//! backends — the recorder lives strictly beside the result channel.

use llamp_engine::value::parse_json;
use llamp_engine::{run_campaign, CampaignSpec, ExecutorConfig, ResultCache};

const SPEC: &str = r#"
name = "obs-itest"
backends = ["parametric", "eval", "lp-sparse", "lp-parametric"]

[grid]
deltas_ns = [0.0, 20000.0, 40000.0]
search_hi_ns = 1000000.0

[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#;

fn spec() -> CampaignSpec {
    CampaignSpec::parse(SPEC, "obs.toml").unwrap()
}

fn config(threads: usize) -> ExecutorConfig {
    ExecutorConfig {
        threads,
        ..Default::default()
    }
}

#[test]
fn results_are_byte_identical_with_tracing_on_and_off() {
    let off = run_campaign(&spec(), &config(1), &ResultCache::new())
        .0
        .to_json();

    llamp_obs::enable();
    let on_1 = run_campaign(&spec(), &config(1), &ResultCache::new())
        .0
        .to_json();
    let on_3 = run_campaign(&spec(), &config(3), &ResultCache::new())
        .0
        .to_json();
    let snapshot = llamp_obs::take();
    llamp_obs::disable();

    assert_eq!(off, on_1, "telemetry must never leak into results JSON");
    assert_eq!(off, on_3, "telemetry must stay out-of-band across threads");

    // The recorder actually saw the runs: spans from every layer.
    let summary = snapshot.summary();
    for path in [
        "campaign",
        "exec.job",
        "exec.job/scenario",
        "exec.job/scenario/scenario.build",
        "exec.job/scenario/scenario.build/reduce",
        "exec.job/scenario/scenario.build/schedgen.build",
        "exec.job/scenario/scenario.build/trace.ingest",
        "exec.job/scenario/lp.solve",
    ] {
        assert!(
            summary.spans.iter().any(|s| s.path == path),
            "span path {path:?} missing from {:?}",
            summary
                .spans
                .iter()
                .map(|s| s.path.as_str())
                .collect::<Vec<_>>()
        );
    }
    assert!(
        summary.hists.iter().any(|(k, _)| k == "lp.point_ns"),
        "per-point LP solve histogram missing"
    );
}

#[test]
fn chrome_trace_export_is_valid_json() {
    llamp_obs::enable();
    run_campaign(&spec(), &config(2), &ResultCache::new());
    let snapshot = llamp_obs::take();
    llamp_obs::disable();

    assert!(!snapshot.events.is_empty());
    let trace = snapshot.chrome_trace_json();
    let doc = parse_json(&trace).expect("chrome trace must parse as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert_eq!(events.len(), snapshot.events.len());
    for e in events {
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(e.get("dur").and_then(|v| v.as_f64()).is_some());
    }
}
