//! The Rust half of the perfbench benchmark (see `perfbench/README.md`).
//!
//! It calls the public functions of each LLAMP layer from outside, with
//! its own spans and counters, so the library stays uninstrumented:
//!
//! ```text
//! probe setup SPEC --seconds S [--reference OUT]
//!     Time `Scenario::build_analyzer` once per unique model of the
//!     canonical spec, summed, repeated for about S seconds (at least
//!     once). Prints `{"setup_s": [...]}`. With `--reference`,
//!     also writes the envelope (`parametric`) answers for the spec's
//!     grid as a results file, for the cross-engine check.
//! probe trace SPEC --seconds S --out DIR
//!     Run the traced pass (every layer call, in pipeline order, for
//!     every scenario) repeatedly for about S seconds (at least once).
//!     Writes DIR/spans.json and DIR/results.json and prints the
//!     per-layer metrics as one JSON line.
//! ```

use llamp_core::{
    Analyzer, GraphLp, GraphMultiLp, ParamPoint, ReduceConfig, SolveStats, SweepParam,
};
use llamp_engine::cache::{axis_point_key, point_key, zones_key, zones_key_multi};
use llamp_engine::spec::{AxisSpec, GridSpec};
use llamp_engine::{
    expand, AxisPointResult, Backend, CachedEntry, CampaignResult, CampaignSpec, ResultCache,
    Scenario, ScenarioError, ScenarioOutcome, ScenarioResult, SweepStart, TopologySpec,
    WorkloadSpec,
};
use llamp_schedgen::{graph_of_programs, GraphConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Per-point layer calls are timed on at most this many grid points per
/// scenario (evenly strided); the engine-level calls answer every point.
const SAMPLED_POINTS: usize = 32;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("probe: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let (cmd, spec_path) = match args {
        [cmd, spec, ..] => (cmd.as_str(), spec.as_str()),
        _ => return Err("usage: probe (setup|trace) SPEC [--seconds S] [...]".into()),
    };
    let opt = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seconds: f64 = opt("--seconds")
        .unwrap_or_else(|| "10".into())
        .parse()
        .map_err(|e| format!("bad --seconds: {e}"))?;
    let source = std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?;
    let mut spec = CampaignSpec::parse(&source, spec_path).map_err(|e| e.to_string())?;
    spec.canonicalize();
    match cmd {
        "setup" => setup(&spec, seconds, opt("--reference").as_deref()),
        "trace" => {
            let out = PathBuf::from(opt("--out").ok_or("trace needs --out DIR")?);
            trace(&spec, seconds, &out)
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// The identity of the model a scenario analyses: everything
/// `build_analyzer` reads, i.e. the scenario key without the backend.
fn model_key(sc: &Scenario) -> String {
    format!(
        "{}|{}|{}|r{}",
        sc.workload.canonical(),
        sc.topology.canonical(),
        sc.params.canonical(),
        u8::from(sc.reduce)
    )
}

/// One scenario per unique model, in canonical order.
fn unique_models(spec: &CampaignSpec) -> Vec<Scenario> {
    let mut out: Vec<Scenario> = expand(spec);
    out.dedup_by(|a, b| model_key(a) == model_key(b));
    out
}

fn setup(spec: &CampaignSpec, seconds: f64, reference: Option<&str>) -> Result<(), String> {
    let models = unique_models(spec);
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.is_empty() || fits(started, reps.len(), seconds) {
        let mut total = 0.0;
        for sc in &models {
            let t = Instant::now();
            let analyzer = sc.build_analyzer()?;
            total += t.elapsed().as_secs_f64();
            drop(analyzer);
        }
        reps.push(total);
    }
    if let Some(path) = reference {
        // The envelope's answers on the spec's own grid, through the
        // engine's `parametric` path (`Analyzer::profile`).
        let mut envelope_spec = spec.clone();
        envelope_spec.backends = vec![Backend::Parametric];
        let scenarios = expand(&envelope_spec)
            .into_iter()
            .map(|sc| {
                let outcome = sc.build_analyzer().and_then(|a| {
                    let (sweep, zones, _) = sc.compute_with(&a, &sc.grid.deltas_ns, true, 1)?;
                    Ok(ScenarioOutcome {
                        zones: zones.ok_or("no zones")?,
                        sweep,
                        points: Vec::new(),
                    })
                });
                ScenarioResult {
                    scenario: sc,
                    outcome: outcome.map_err(ScenarioError::Failed),
                }
            })
            .collect();
        let result = CampaignResult {
            name: envelope_spec.name.clone(),
            spec_fingerprint: envelope_spec.fingerprint(),
            scenarios,
        };
        std::fs::write(path, result.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{{\"setup_s\": {}}}", json_list(&reps));
    Ok(())
}

// ---------------------------------------------------------------------
// Spans

/// One timed region: name, start, end (seconds since the tracer's
/// epoch), the span that encloses it, and the counts recorded at its
/// boundary.
struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
    fields: Vec<(&'static str, f64)>,
}

/// In-memory span recorder, written out once the benchmark ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn open(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.stack.last().copied(),
            start: 0.0,
            end: 0.0,
            fields: Vec::new(),
        });
        self.stack.push(id);
        // Stamp last, so the bookkeeping above is not inside the span.
        self.spans[id].start = self.now();
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = end;
    }

    /// Time `f` as a leaf span; returns the value and the span id (for
    /// attaching counts).
    fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, usize) {
        let id = self.open(name);
        let out = std::hint::black_box(f());
        self.close(id);
        (out, id)
    }

    fn field(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].fields.push((key, value));
    }

    fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Ids of the spans below `root` (inclusive), in creation order.
    fn subtree(&self, root: usize) -> Vec<usize> {
        let mut inside = vec![false; self.spans.len()];
        let mut out = Vec::new();
        for id in root..self.spans.len() {
            let within = id == root || self.spans[id].parent.is_some_and(|p| inside[p]);
            if within {
                inside[id] = true;
                out.push(id);
            }
        }
        out
    }

    /// Self time per span name within `root`'s subtree: each span's
    /// duration minus the part its children cover.
    fn self_times(&self, root: usize) -> BTreeMap<String, f64> {
        let ids = self.subtree(root);
        let mut child_time: BTreeMap<usize, f64> = BTreeMap::new();
        for &id in &ids {
            if let Some(p) = self.spans[id].parent {
                *child_time.entry(p).or_default() += self.duration(id);
            }
        }
        let mut out = BTreeMap::new();
        for &id in &ids {
            let own = self.duration(id) - child_time.get(&id).copied().unwrap_or(0.0);
            *out.entry(self.spans[id].name.clone()).or_default() += own;
        }
        out
    }

    fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "  {{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"start\": {}, \"end\": {}",
                json_str(&sp.name),
                sp.start,
                sp.end
            );
            for (k, v) in &sp.fields {
                let _ = write!(s, ", {}: {}", json_str(k), json_num(*v));
            }
            s.push_str(if i + 1 == self.spans.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        s.push_str("]\n");
        s
    }
}

// ---------------------------------------------------------------------
// Per-layer metrics, derived from the spans of one part of one pass.

/// How a metric aggregates the spans of one name.
#[derive(Clone, Copy)]
enum Agg {
    /// Summed duration (s).
    Time,
    /// Median duration of one call (s).
    MedianTime,
    /// Summed count field.
    Sum(&'static str),
    /// Count field summed, divided by the number of spans.
    PerSpan(&'static str),
}

/// Every per-layer metric: (metric name, span name, aggregation).
/// Metrics without an `_s` suffix are exact counts, which must repeat
/// across passes and runs.
const METRICS: &[(&str, &str, Agg)] = &[
    ("workloads.gen_s", "workloads.gen", Agg::Time),
    ("workloads.records", "workloads.gen", Agg::Sum("records")),
    ("schedgen.build_s", "schedgen.build", Agg::Time),
    ("schedgen.vertices", "schedgen.build", Agg::Sum("vertices")),
    ("schedgen.edges", "schedgen.build", Agg::Sum("edges")),
    ("reduce_s", "reduce", Agg::Time),
    ("reduce.rows_raw", "reduce", Agg::Sum("rows_raw")),
    ("reduce.rows_reduced", "reduce", Agg::Sum("rows_reduced")),
    ("envelope.profile_s", "envelope.profile", Agg::Time),
    (
        "envelope.breakpoints",
        "envelope.profile",
        Agg::Sum("breakpoints"),
    ),
    ("envelope.zones_s", "envelope.zones", Agg::Time),
    ("eval.point_s", "eval.point", Agg::MedianTime),
    ("eval.multi_point_s", "eval.multi_point", Agg::MedianTime),
    ("lp.build_s", "lp.build", Agg::Time),
    ("lp.rows", "lp.build", Agg::Sum("rows")),
    ("lp.anchor_s", "lp.anchor", Agg::Time),
    ("lp.anchor_pivots", "lp.anchor", Agg::Sum("pivots")),
    ("lp.zone_s", "lp.zone", Agg::Time),
    ("lp.zone_pivots", "lp.zone", Agg::Sum("pivots")),
    ("lp.crash_point_s", "lp.crash_point", Agg::MedianTime),
    (
        "lp.crash_pivots_per_point",
        "lp.crash_point",
        Agg::PerSpan("pivots"),
    ),
    ("lp.lu_per_point", "lp.crash_point", Agg::PerSpan("lu")),
    ("lp.warm_point_s", "lp.warm_point", Agg::MedianTime),
    (
        "lp.warm_pivots_per_point",
        "lp.warm_point",
        Agg::PerSpan("pivots"),
    ),
    ("mlp.point_s", "mlp.point", Agg::MedianTime),
    ("mlp.pivots_per_point", "mlp.point", Agg::PerSpan("pivots")),
    (
        "answer.parametric.sweep_s",
        "answer.parametric.sweep",
        Agg::Time,
    ),
    (
        "answer.parametric.zones_s",
        "answer.parametric.zones",
        Agg::Time,
    ),
    ("answer.eval.sweep_s", "answer.eval.sweep", Agg::Time),
    ("answer.eval.zones_s", "answer.eval.zones", Agg::Time),
    ("answer.lp.sweep_s", "answer.lp.sweep", Agg::Time),
    ("answer.lp.sweep_t1_s", "answer.lp.sweep_t1", Agg::Time),
    ("answer.lp.zones_s", "answer.lp.zones", Agg::Time),
    ("cache.save_s", "cache.save", Agg::Time),
    ("cache.load_s", "cache.load", Agg::Time),
    ("cache.entries", "cache.save", Agg::Sum("entries")),
    ("cache.bytes", "cache.save", Agg::Sum("bytes")),
    ("results.to_json_s", "results.to_json", Agg::Time),
    ("results.bytes", "results.to_json", Agg::Sum("bytes")),
];

/// Metric values of `root`'s subtree; metrics with no span there are
/// absent.
fn metrics_of(tr: &Tracer, root: usize) -> BTreeMap<&'static str, f64> {
    let ids = tr.subtree(root);
    let mut out = BTreeMap::new();
    for &(metric, span, agg) in METRICS {
        let spans: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| tr.spans[id].name == span)
            .collect();
        if spans.is_empty() {
            continue;
        }
        let field_sum = |key: &str| -> f64 {
            spans
                .iter()
                .flat_map(|&id| &tr.spans[id].fields)
                .filter(|(k, _)| *k == key)
                .map(|(_, v)| v)
                .sum()
        };
        let value = match agg {
            Agg::Time => spans.iter().map(|&id| tr.duration(id)).sum(),
            Agg::MedianTime => median(spans.iter().map(|&id| tr.duration(id)).collect()),
            Agg::Sum(key) => field_sum(key),
            Agg::PerSpan(key) => field_sum(key) / spans.len() as f64,
        };
        out.insert(metric, value);
    }
    out
}

fn is_count(metric: &str) -> bool {
    !metric.ends_with("_s")
}

// ---------------------------------------------------------------------
// The traced pass

/// The fixed control campaign: per-layer metrics that a workload's own
/// scenarios do not produce are timed here, so every traced run reports
/// every metric. LULESH 8 ranks × 4 iterations, uniform latency.
fn control_specs(spec: &CampaignSpec) -> Vec<CampaignSpec> {
    let mut base = spec.clone();
    base.name = "control".into();
    base.workloads = vec![WorkloadSpec {
        app: llamp_engine::spec::parse_app("lulesh").expect("lulesh is a workload"),
        ranks: 8,
        iters: 4,
        o_ns: None,
    }];
    base.topologies = vec![TopologySpec::Uniform];
    let step = 100_000.0 / 16.0;
    let window: Vec<f64> = (0..17).map(|i| i as f64 * step).collect();
    let mut grid = base.clone();
    grid.sweep_start = SweepStart::Crash;
    grid.backends = ["parametric", "eval", "lp-sparse"]
        .iter()
        .map(|b| llamp_engine::parse_backend(b).expect("known backend"))
        .collect();
    grid.axes = Vec::new();
    grid.grid = GridSpec {
        deltas_ns: window.clone(),
        ..spec.grid.clone()
    };
    let mut axes = base;
    axes.backends = ["lp-parametric", "eval"]
        .iter()
        .map(|b| llamp_engine::parse_backend(b).expect("known backend"))
        .collect();
    axes.grid.deltas_ns = Vec::new();
    axes.axes = vec![
        AxisSpec {
            param: SweepParam::L,
            deltas: window,
        },
        AxisSpec {
            param: SweepParam::G,
            deltas: vec![0.0, 0.5],
        },
    ];
    let mut out = vec![grid, axes];
    for s in &mut out {
        s.canonicalize();
    }
    out
}

fn trace(spec: &CampaignSpec, seconds: f64, out_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let controls = control_specs(spec);
    let mut tr = Tracer::new();
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut from_control: Vec<&'static str> = Vec::new();
    let mut walls = Vec::new();
    let mut results_json: Option<String> = None;
    let mut first_root = 0;
    let started = Instant::now();
    while per_pass.is_empty() || fits(started, per_pass.len(), seconds) {
        let pass = tr.open("pass");
        let own = tr.open("workload");
        let json = traced_campaign(&mut tr, spec, out_dir, false)?;
        tr.close(own);
        let mut metrics = metrics_of(&tr, own);
        let control = tr.open("control");
        for c in &controls {
            traced_campaign(&mut tr, c, out_dir, true)?;
        }
        tr.close(control);
        let control_metrics = metrics_of(&tr, control);
        from_control.clear();
        for &(metric, _, _) in METRICS {
            if !metrics.contains_key(metric) {
                let v = *control_metrics
                    .get(metric)
                    .ok_or_else(|| format!("no span produced {metric}"))?;
                metrics.insert(metric, v);
                from_control.push(metric);
            }
        }
        tr.close(pass);
        walls.push(tr.duration(own));
        match &results_json {
            None => {
                results_json = Some(json);
                first_root = pass;
            }
            Some(first) if *first != json => {
                return Err("traced results differ between passes".into());
            }
            Some(_) => {}
        }
        if let Some(prev) = per_pass.first() {
            for (m, v) in &metrics {
                if is_count(m) && prev.get(m) != Some(v) {
                    return Err(format!("count {m} differs between passes"));
                }
            }
        }
        per_pass.push(metrics);
    }

    std::fs::write(
        out_dir.join("results.json"),
        results_json.unwrap_or_default(),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(out_dir.join("spans.json"), tr.to_json()).map_err(|e| e.to_string())?;

    let mut line = String::from("{\"metrics\": {");
    for (i, &(metric, _, _)) in METRICS.iter().enumerate() {
        let value = median(per_pass.iter().map(|m| m[metric]).collect());
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}{}: {}", json_str(metric), json_num(value));
    }
    let _ = write!(line, ", \"trace.wall_s\": {}}}", json_num(median(walls)));
    let _ = write!(
        line,
        ", \"passes\": {}, \"from_control\": [{}]",
        per_pass.len(),
        from_control
            .iter()
            .map(|m| json_str(m))
            .collect::<Vec<_>>()
            .join(", ")
    );
    line.push_str(", \"self_s\": {");
    let selfs = tr.self_times(first_root);
    let body: Vec<String> = selfs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect();
    line.push_str(&body.join(", "));
    line.push_str("}}");
    println!("{line}");
    Ok(())
}

/// Trace one campaign: every model's set-up layers, every scenario's
/// layer calls and engine calls, then the cache and the results file.
/// Returns the results JSON, which must equal what `llamp run` writes.
/// `control` marks the control campaign, whose LP scenarios time both
/// sweep starts.
fn traced_campaign(
    tr: &mut Tracer,
    spec: &CampaignSpec,
    out_dir: &Path,
    control: bool,
) -> Result<String, String> {
    let scenarios = expand(spec);
    let cache = ResultCache::new();
    let mut results = Vec::with_capacity(scenarios.len());
    let mut current: Option<(String, Result<Analyzer, String>)> = None;
    let mut model_span = None;
    for sc in scenarios {
        let key = model_key(&sc);
        if current.as_ref().map(|(k, _)| k) != Some(&key) {
            if let Some(id) = model_span.take() {
                tr.close(id);
            }
            // Release the previous model before building the next.
            drop(current.take());
            model_span = Some(tr.open("model"));
            current = Some((key, traced_setup(tr, &sc)));
        }
        let analyzer = &current.as_ref().expect("model just set").1;
        let sc_span = tr.open("scenario");
        let outcome = match analyzer {
            Ok(a) => traced_scenario(tr, &sc, a, control),
            Err(e) => Err(e.clone()),
        };
        tr.close(sc_span);
        if let Ok(o) = &outcome {
            fill_cache(&cache, &sc, o);
        }
        results.push(ScenarioResult {
            scenario: sc,
            outcome: outcome.map_err(ScenarioError::Failed),
        });
    }
    if let Some(id) = model_span {
        tr.close(id);
    }
    drop(current);

    let path = out_dir.join(format!("{}-cache.json", spec.name));
    let (saved, id) = tr.leaf("cache.save", || cache.save(&path));
    saved.map_err(|e| format!("{}: {e}", path.display()))?;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    tr.field(id, "entries", cache.len() as f64);
    tr.field(id, "bytes", bytes as f64);
    let (loaded, _) = tr.leaf("cache.load", || ResultCache::load(&path));
    let loaded = loaded.map_err(|e| format!("{}: {e}", path.display()))?;
    if loaded.len() != cache.len() {
        return Err(format!(
            "cache reload kept {} of {} entries",
            loaded.len(),
            cache.len()
        ));
    }

    let result = CampaignResult {
        name: spec.name.clone(),
        spec_fingerprint: spec.fingerprint(),
        scenarios: results,
    };
    let (json, id) = tr.leaf("results.to_json", || result.to_json());
    tr.field(id, "bytes", json.len() as f64);
    Ok(json)
}

/// The set-up layers of one model, each through its public call, then
/// the analyzer the answers use, through `Scenario::build_analyzer`.
fn traced_setup(tr: &mut Tracer, sc: &Scenario) -> Result<Analyzer, String> {
    let (set, id) = tr.leaf("workloads.gen", || {
        sc.workload
            .app
            .programs(sc.workload.ranks, sc.workload.iters as usize)
    });
    tr.field(id, "records", set.num_records() as f64);
    let (graph, id) = tr.leaf("schedgen.build", || {
        graph_of_programs(&set, &GraphConfig::paper())
    });
    let graph = graph.map_err(|e| format!("graph build failed: {e}"))?;
    drop(set);
    tr.field(id, "vertices", graph.num_vertices() as f64);
    tr.field(id, "edges", graph.num_edges() as f64);
    let cfg = if sc.reduce {
        ReduceConfig::default()
    } else {
        ReduceConfig::none()
    };
    let (reduced, id) = tr.leaf("reduce", || graph.reduced(&cfg));
    let stats = *reduced.stats();
    tr.field(id, "rows_raw", stats.rows_before as f64);
    tr.field(id, "rows_reduced", stats.rows_after as f64);
    drop(reduced);
    drop(graph);
    tr.leaf("setup", || sc.build_analyzer()).0
}

/// One scenario: the layer calls its backend exercises, timed one by
/// one, then the engine's own answer calls. Returns the engine's answer.
fn traced_scenario(
    tr: &mut Tracer,
    sc: &Scenario,
    a: &Analyzer,
    control: bool,
) -> Result<ScenarioOutcome, String> {
    let base = a.base_l();
    let hi = base + sc.grid.search_hi_ns;
    let axes = !sc.axes.is_empty();
    let mut crash_sweep = false;
    match (sc.backend, axes) {
        (Backend::Parametric, _) => {
            let (profile, id) = tr.leaf("envelope.profile", || a.profile(base, hi));
            tr.field(id, "breakpoints", profile.critical_latencies().len() as f64);
            tr.leaf("envelope.zones", || a.tolerance_zones(hi));
        }
        (Backend::Eval, false) => {
            for d in sampled(&sc.grid.deltas_ns) {
                tr.leaf("eval.point", || a.evaluate(base + d));
            }
        }
        (Backend::Eval, true) => {
            for t in sampled(&sc.axis_points()) {
                let p = point_at(sc, a.base_point(), &t);
                tr.leaf("eval.multi_point", || a.evaluate_multi(p));
            }
        }
        (Backend::Lp(solver), false) => {
            let (lp, id) = tr.leaf("lp.build", || a.lp_named(solver.solver_name()));
            let mut lp = lp.ok_or("unknown LP solver")?;
            let rows = lp.model().num_constraints();
            tr.field(id, "rows", rows as f64);
            let stats = GraphLp::solver_stats;
            let anchor = solver_step(tr, "lp.anchor", &mut lp, stats, |lp| lp.predict(base))?;
            let basis = lp.warm_basis().ok_or("anchor left no basis")?;
            for pct in [1.0, 2.0, 5.0] {
                let cap = anchor.runtime * (1.0 + pct / 100.0);
                lp.seed_backend(&basis);
                solver_step(tr, "lp.zone", &mut lp, stats, |lp| lp.tolerance(base, cap))?;
            }
            // Points start where the engine starts them for a model of
            // this size; the control times both starts.
            crash_sweep = sc.sweep_start.resolve(rows) == SweepStart::Crash;
            for d in sampled(&sc.grid.deltas_ns) {
                if crash_sweep || control {
                    lp.reset_backend();
                    solver_step(tr, "lp.crash_point", &mut lp, stats, |lp| {
                        lp.predict(base + d)
                    })?;
                }
                if !crash_sweep || control {
                    lp.seed_backend(&basis);
                    solver_step(tr, "lp.warm_point", &mut lp, stats, |lp| {
                        lp.predict(base + d)
                    })?;
                }
            }
        }
        (Backend::Lp(solver), true) => {
            let (lp, id) = tr.leaf("lp.build", || a.multi_lp_named(solver.solver_name()));
            let mut lp = lp.ok_or("unknown LP solver")?;
            tr.field(id, "rows", lp.model().num_constraints() as f64);
            let stats = GraphMultiLp::solver_stats;
            let bp = a.base_point();
            let anchor = solver_step(tr, "lp.anchor", &mut lp, stats, |lp| lp.predict(bp))?;
            let basis = lp.warm_basis().ok_or("anchor left no basis")?;
            for pct in [1.0, 2.0, 5.0] {
                let cap = anchor.runtime * (1.0 + pct / 100.0);
                lp.seed_backend(&basis);
                solver_step(tr, "lp.zone", &mut lp, stats, |lp| {
                    lp.tolerance(SweepParam::L, bp, cap)
                })?;
            }
            for t in sampled(&sc.axis_points()) {
                let p = point_at(sc, bp, &t);
                lp.seed_backend(&basis);
                solver_step(tr, "mlp.point", &mut lp, stats, |lp| lp.predict(p))?;
            }
        }
    }

    // The engine's answer calls, split as a cache-warm run splits them:
    // the sweep points alone, then the zones alone.
    let fam = family(sc.backend);
    if axes {
        let points = sc.axis_points();
        let (values, _) = tr.leaf(&format!("answer.{fam}.sweep"), || {
            sc.compute_axes(a, &points, false)
        });
        let (values, _, _) = values?;
        let (zones, _) = tr.leaf(&format!("answer.{fam}.zones"), || {
            sc.compute_axes(a, &[], true)
        });
        let (_, zones, _) = zones?;
        Ok(ScenarioOutcome {
            zones: zones.ok_or("backend returned no zones")?,
            sweep: Vec::new(),
            points: points
                .into_iter()
                .zip(values)
                .map(|(deltas, value)| AxisPointResult { deltas, value })
                .collect(),
        })
    } else {
        let deltas = &sc.grid.deltas_ns;
        let (sweep, _) = tr.leaf(&format!("answer.{fam}.sweep"), || {
            sc.compute_with(a, deltas, false, 2)
        });
        let (sweep, _, _) = sweep?;
        // Point sharding only engages on crash-started sweeps; that is
        // where one point thread is worth timing against two.
        if crash_sweep {
            let (t1, _) = tr.leaf("answer.lp.sweep_t1", || {
                sc.compute_with(a, deltas, false, 1)
            });
            if t1?.0 != sweep {
                return Err("sweep answers differ between 1 and 2 point threads".into());
            }
        }
        let (zones, _) = tr.leaf(&format!("answer.{fam}.zones"), || {
            sc.compute_with(a, &[], true, 1)
        });
        let (_, zones, _) = zones?;
        Ok(ScenarioOutcome {
            zones: zones.ok_or("backend returned no zones")?,
            sweep,
            points: Vec::new(),
        })
    }
}

/// Time one solver call as a leaf span and record the pivots and LU
/// factorisations it spent (from the solver's cumulative counters).
fn solver_step<L, T, E: std::fmt::Debug>(
    tr: &mut Tracer,
    name: &str,
    lp: &mut L,
    stats: fn(&L) -> SolveStats,
    f: impl FnOnce(&mut L) -> Result<T, E>,
) -> Result<T, String> {
    let before = stats(lp);
    let (out, id) = tr.leaf(name, || f(lp));
    let after = stats(lp);
    tr.field(id, "pivots", (after.pivots - before.pivots) as f64);
    tr.field(
        id,
        "lu",
        (after.refactorizations - before.refactorizations) as f64,
    );
    out.map_err(|e| format!("{name}: {e:?}"))
}

/// The absolute `(L, G, o)` point of an axis-aligned delta tuple.
fn point_at(sc: &Scenario, base: ParamPoint, deltas: &[f64]) -> ParamPoint {
    let [dl, dg, d_o] = sc.param_deltas(deltas);
    ParamPoint {
        l: base.l + dl,
        g: base.g + dg,
        o: base.o + d_o,
    }
}

/// Every grid point when there are few, else an even stride of them.
fn sampled<T: Clone>(points: &[T]) -> Vec<T> {
    let stride = points.len().div_ceil(SAMPLED_POINTS).max(1);
    points.iter().step_by(stride).cloned().collect()
}

/// The answer-engine family a backend belongs to (all `lp-*` variants
/// are one family).
fn family(backend: Backend) -> &'static str {
    match backend {
        Backend::Parametric => "parametric",
        Backend::Eval => "eval",
        Backend::Lp(_) => "lp",
    }
}

/// Put a scenario's answers into the cache under the keys `llamp run`
/// uses, so the saved file matches the one a run writes.
fn fill_cache(cache: &ResultCache, sc: &Scenario, outcome: &ScenarioOutcome) {
    let base = sc.base_canonical();
    if sc.axes.is_empty() {
        for p in &outcome.sweep {
            cache.put(point_key(&base, p.delta_l_ns), CachedEntry::Point(*p));
        }
        let key = zones_key(&base, sc.grid.search_hi_ns);
        cache.put(key, CachedEntry::Zones(outcome.zones));
    } else {
        for p in &outcome.points {
            let key = axis_point_key(&base, sc.param_deltas(&p.deltas));
            cache.put(key, CachedEntry::AxisPoint(p.value));
        }
        let key = zones_key_multi(&base, sc.grid.search_hi_ns);
        cache.put(key, CachedEntry::Zones(outcome.zones));
    }
}

/// Whether one more repetition, at the mean pace of the `done` so far,
/// still ends within `seconds` of `started`.
fn fits(started: Instant, done: usize, seconds: f64) -> bool {
    let spent = started.elapsed().as_secs_f64();
    spent + spent / done as f64 <= seconds
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| json_num(*x)).collect();
    format!("[{}]", items.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
