//! The metrics sidecar: one encoding and **one rendering path** for run
//! telemetry.
//!
//! `llamp run --metrics` builds a [`Value`] document with
//! [`metrics_value`] (run statistics + aggregate solver/reduction
//! counters + the obs span/counter/histogram summary), renders it with
//! [`render_metrics`], and optionally writes it to a sidecar file
//! (`--metrics-out`). `llamp report --metrics FILE` parses that sidecar
//! and calls the *same* [`render_metrics`] — there is no second
//! formatter to drift out of sync.
//!
//! The sidecar exists because telemetry is cache-state and wall-clock
//! dependent: embedding it in the results file would break the
//! byte-identity contract (results JSON is a pure function of the
//! canonical spec). Keeping it in a separate document keeps both
//! properties: deterministic results, inspectable telemetry.

use crate::campaign::RunSummary;
use crate::value::Value;
use llamp_core::{ReductionStats, SolveStats};
use llamp_obs::{HistogramSummary, SpanAgg, Summary};

/// Encode a run's full telemetry as one JSON-able document.
pub fn metrics_value(summary: &RunSummary, obs: &Summary) -> Value {
    let int = |v: u64| Value::Int(v as i64);
    let mut pairs = vec![
        ("version".into(), Value::Int(1)),
        (
            "run".into(),
            Value::Table(vec![
                ("jobs_requested".into(), int(summary.jobs_requested as u64)),
                ("jobs_unique".into(), int(summary.jobs_unique as u64)),
                (
                    "full_cache_hits".into(),
                    int(summary.full_cache_hits as u64),
                ),
                ("jobs_executed".into(), int(summary.jobs_executed as u64)),
                ("cache_hits".into(), int(summary.cache_hits)),
                ("cache_misses".into(), int(summary.cache_misses)),
                ("threads".into(), int(summary.threads as u64)),
                (
                    "elapsed_s".into(),
                    Value::Float(summary.elapsed.as_secs_f64()),
                ),
            ]),
        ),
    ];
    if summary.solver.iterations > 0 {
        pairs.push(("solver".into(), solver_stats_value(&summary.solver)));
    }
    if !summary.reduction.is_empty() {
        pairs.push((
            "reduction".into(),
            reduction_stats_value(&summary.reduction),
        ));
    }
    if !obs.is_empty() {
        pairs.push(("obs".into(), obs_summary_value(obs)));
    }
    Value::Table(pairs)
}

/// Encode the aggregate LP solver counters.
pub fn solver_stats_value(s: &SolveStats) -> Value {
    let int = |v: u64| Value::Int(v as i64);
    Value::Table(vec![
        ("iterations".into(), int(s.iterations)),
        ("phase1_iterations".into(), int(s.phase1_iterations)),
        ("pivots".into(), int(s.pivots)),
        ("bound_flips".into(), int(s.bound_flips)),
        ("refactorizations".into(), int(s.refactorizations)),
        ("devex_resets".into(), int(s.devex_resets)),
        ("ftran_calls".into(), int(s.ftran_calls)),
        ("ftran_density".into(), Value::Float(s.ftran_density())),
        ("btran_calls".into(), int(s.btran_calls)),
        ("btran_density".into(), Value::Float(s.btran_density())),
        ("pricing_full_scans".into(), int(s.pricing_full_scans)),
        (
            "pricing_candidate_scans".into(),
            int(s.pricing_candidate_scans),
        ),
        ("max_resync_drift".into(), Value::Float(s.max_resync_drift)),
    ])
}

/// Encode the aggregate graph-reduction counters.
pub fn reduction_stats_value(s: &ReductionStats) -> Value {
    let int = |v: u64| Value::Int(v as i64);
    Value::Table(vec![
        ("vertices_before".into(), int(s.vertices_before)),
        ("vertices_after".into(), int(s.vertices_after)),
        ("edges_before".into(), int(s.edges_before)),
        ("edges_after".into(), int(s.edges_after)),
        ("rows_before".into(), int(s.rows_before)),
        ("rows_after".into(), int(s.rows_after)),
        ("chain_merges".into(), int(s.chain_merges)),
        ("folds".into(), int(s.folds)),
        ("redundant_removed".into(), int(s.redundant_removed)),
        ("rounds".into(), int(s.rounds)),
    ])
}

/// Encode an obs [`Summary`] (spans/counters/histograms).
fn obs_summary_value(obs: &Summary) -> Value {
    let int = |v: u64| Value::Int(v as i64);
    Value::Table(vec![
        (
            "spans".into(),
            Value::Array(
                obs.spans
                    .iter()
                    .map(|s| {
                        let mut pairs = vec![
                            ("path".into(), Value::Str(s.path.clone())),
                            ("count".into(), int(s.count)),
                            ("total_ns".into(), int(s.total_ns)),
                            ("min_ns".into(), int(s.min_ns)),
                            ("max_ns".into(), int(s.max_ns)),
                        ];
                        if !s.fields.is_empty() {
                            pairs.push((
                                "fields".into(),
                                Value::Table(
                                    s.fields
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Value::Float(*v)))
                                        .collect(),
                                ),
                            ));
                        }
                        if !s.labels.is_empty() {
                            pairs.push((
                                "labels".into(),
                                Value::Table(
                                    s.labels
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                                        .collect(),
                                ),
                            ));
                        }
                        Value::Table(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "counters".into(),
            Value::Table(
                obs.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), int(*v)))
                    .collect(),
            ),
        ),
        (
            "hists".into(),
            Value::Table(
                obs.hists
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            Value::Table(vec![
                                ("count".into(), int(h.count)),
                                ("sum".into(), int(h.sum)),
                                ("min".into(), int(h.min)),
                                ("max".into(), int(h.max)),
                                ("p50".into(), int(h.p50)),
                                ("p90".into(), int(h.p90)),
                                ("p99".into(), int(h.p99)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decode the `obs` section back into an obs [`Summary`] (inverse of the
/// encoder above; unknown or malformed rows are skipped).
fn obs_summary_from_value(v: &Value) -> Summary {
    let u = |x: Option<&Value>| x.and_then(Value::as_i64).unwrap_or(0).max(0) as u64;
    let mut out = Summary::default();
    if let Some(spans) = v.get("spans").and_then(Value::as_array) {
        for s in spans {
            let Some(path) = s.get("path").and_then(Value::as_str) else {
                continue;
            };
            let mut agg = SpanAgg {
                path: path.to_string(),
                depth: path.matches('/').count(),
                count: u(s.get("count")),
                total_ns: u(s.get("total_ns")),
                min_ns: u(s.get("min_ns")),
                max_ns: u(s.get("max_ns")),
                fields: Vec::new(),
                labels: Vec::new(),
            };
            if let Some(Value::Table(fields)) = s.get("fields") {
                for (k, fv) in fields {
                    if let Some(x) = fv.as_f64() {
                        agg.fields.push((k.clone(), x));
                    }
                }
            }
            if let Some(Value::Table(labels)) = s.get("labels") {
                for (k, lv) in labels {
                    if let Some(x) = lv.as_str() {
                        agg.labels.push((k.clone(), x.to_string()));
                    }
                }
            }
            out.spans.push(agg);
        }
    }
    if let Some(Value::Table(counters)) = v.get("counters") {
        for (k, cv) in counters {
            out.counters.push((k.clone(), u(Some(cv))));
        }
    }
    if let Some(Value::Table(hists)) = v.get("hists") {
        for (k, hv) in hists {
            out.hists.push((
                k.clone(),
                HistogramSummary {
                    count: u(hv.get("count")),
                    sum: u(hv.get("sum")),
                    min: u(hv.get("min")),
                    max: u(hv.get("max")),
                    p50: u(hv.get("p50")),
                    p90: u(hv.get("p90")),
                    p99: u(hv.get("p99")),
                },
            ));
        }
    }
    out
}

/// Render a metrics document. This is THE metrics formatter: both
/// `llamp run --metrics` (fresh document) and `llamp report --metrics`
/// (sidecar file) call it, so the two can never disagree.
pub fn render_metrics(doc: &Value) -> String {
    let mut out = String::new();
    if let Some(run) = doc.get("run") {
        let u = |k: &str| run.get(k).and_then(Value::as_i64).unwrap_or(0);
        let hits = u("cache_hits");
        let misses = u("cache_misses");
        let rate = if hits + misses > 0 {
            100.0 * hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "scenarios: {} requested, {} unique, {} full cache hits, {} executed\n\
             cache: {hits} hits, {misses} misses ({rate:.1}% hit rate)\n\
             threads: {}, elapsed: {:.3}s\n",
            u("jobs_requested"),
            u("jobs_unique"),
            u("full_cache_hits"),
            u("jobs_executed"),
            u("threads"),
            run.get("elapsed_s").and_then(Value::as_f64).unwrap_or(0.0),
        ));
    }
    let block = |out: &mut String, key: &str, title: &str| {
        if let Some(Value::Table(pairs)) = doc.get(key) {
            out.push_str(&format!("\n{title}\n"));
            for (k, v) in pairs {
                let rendered = match v {
                    Value::Int(i) => i.to_string(),
                    Value::Float(f) => format!("{f:.3e}"),
                    other => other.to_json(),
                };
                out.push_str(&format!("{k:<24} {rendered}\n"));
            }
        }
    };
    block(&mut out, "solver", "lp solver totals");
    block(&mut out, "reduction", "graph reduction totals");
    if let Some(obs) = doc.get("obs") {
        let rendered = obs_summary_from_value(obs).render();
        if !rendered.is_empty() {
            out.push('\n');
            out.push_str(&rendered);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Provenance;
    use std::time::Duration;

    fn summary() -> RunSummary {
        RunSummary {
            jobs_requested: 4,
            jobs_unique: 3,
            full_cache_hits: 1,
            jobs_executed: 2,
            cache_hits: 5,
            cache_misses: 15,
            threads: 2,
            elapsed: Duration::from_millis(1500),
            provenance: vec![Provenance::Computed; 3],
            solver: SolveStats {
                iterations: 10,
                ..Default::default()
            },
            reduction: ReductionStats::default(),
        }
    }

    #[test]
    fn sidecar_round_trips_through_the_single_renderer() {
        let mut obs = Summary::default();
        obs.spans.push(SpanAgg {
            path: "campaign".into(),
            depth: 0,
            count: 1,
            total_ns: 2_000_000,
            min_ns: 2_000_000,
            max_ns: 2_000_000,
            fields: vec![("jobs_unique".into(), 3.0)],
            labels: vec![("name".into(), "unit".into())],
        });
        obs.counters.push(("cache.pt.hit".into(), 5));
        obs.hists.push((
            "lp.point_ns".into(),
            HistogramSummary {
                count: 7,
                sum: 700,
                min: 50,
                max: 200,
                p50: 96,
                p90: 192,
                p99: 192,
            },
        ));
        let doc = metrics_value(&summary(), &obs);
        let live = render_metrics(&doc);
        // The sidecar replay must render byte-identically to the live run.
        let replayed = crate::value::parse_json(&doc.to_json_pretty()).unwrap();
        assert_eq!(live, render_metrics(&replayed));
        assert!(live.contains("scenarios: 4 requested"));
        assert!(live.contains("lp solver totals"));
        assert!(live.contains("cache.pt.hit"));
        assert!(live.contains("lp.point_ns"));
        assert!(live.contains("name=unit"));
    }

    #[test]
    fn empty_sections_are_omitted() {
        let mut s = summary();
        s.solver = SolveStats::default();
        let doc = metrics_value(&s, &Summary::default());
        assert!(doc.get("solver").is_none());
        assert!(doc.get("reduction").is_none());
        assert!(doc.get("obs").is_none());
        let rendered = render_metrics(&doc);
        assert!(rendered.contains("cache: 5 hits, 15 misses"));
        assert!(!rendered.contains("lp solver totals"));
    }
}
