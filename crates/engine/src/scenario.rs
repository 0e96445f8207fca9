//! A [`Scenario`] is one cell of a campaign's cartesian product: one
//! workload on one topology under one parameter set, answered by one
//! backend over the campaign's latency grid. Scenarios are the engine's
//! unit of scheduling, caching and reporting.

use crate::executor::{run_jobs, ExecutorConfig};
use crate::spec::{
    axes_canonical, fnv1a, grid_canonical, AxisSpec, Backend, CampaignSpec, GridSpec, ParamsPreset,
    ParamsSpec, SweepStart, TopologySpec, WorkloadSpec,
};
use crate::value::Value;
use llamp_core::{Analyzer, Binding, GraphLp, ParamPoint, ReduceConfig, SolveStats, SweepParam};
use llamp_model::LogGPSParams;
use llamp_schedgen::{graph_of_programs, GraphConfig};
use llamp_topo::{Dragonfly, FatTree};

/// One job: the atomic unit of campaign execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Workload under analysis.
    pub workload: WorkloadSpec,
    /// Network topology (or uniform latency).
    pub topology: TopologySpec,
    /// LogGPS parameter set.
    pub params: ParamsSpec,
    /// Backend answering the questions.
    pub backend: Backend,
    /// Latency grid (added latency above the scenario's base value).
    /// `grid.deltas_ns` is empty when `axes` is non-empty.
    pub grid: GridSpec,
    /// Multi-parameter sweep axes (empty for classic latency grids).
    pub axes: Vec<AxisSpec>,
    /// Whether the graph reduction pipeline runs before lowering. Part
    /// of the base canonical key: reduced and unreduced answers agree
    /// only to numerical tolerance and must never share cache entries.
    pub reduce: bool,
    /// Where LP queries start (always [`SweepStart::Crash`]). Excluded
    /// from canonical keys, fingerprints and result files.
    pub sweep_start: SweepStart,
}

/// One sweep sample of a scenario result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointResult {
    /// Added latency `∆L` above the base value (ns).
    pub delta_l_ns: f64,
    /// Predicted runtime (ns).
    pub runtime_ns: f64,
    /// Latency sensitivity `λ_L`.
    pub lambda: f64,
    /// Latency ratio `ρ_L`.
    pub rho: f64,
}

/// The answer at one multi-parameter grid point, independent of which
/// axes layout produced it (this is the cached record: campaigns whose
/// axes merely *overlap* in absolute `(∆L, ∆G, ∆o)` offsets share these
/// regardless of their axis ordering or dimensionality).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisPointValue {
    /// Predicted runtime (ns).
    pub runtime_ns: f64,
    /// Latency sensitivity `λ_L = ∂T/∂L`.
    pub lambda_l: f64,
    /// Bandwidth sensitivity `λ_G = ∂T/∂G`.
    pub lambda_g: f64,
    /// Overhead sensitivity `λ_o = ∂T/∂o`.
    pub lambda_o: f64,
    /// Latency ratio `ρ_L = λ_L·L/T` at the point.
    pub rho_l: f64,
    /// Bandwidth ratio `ρ_G = λ_G·G/T` at the point.
    pub rho_g: f64,
    /// Overhead ratio `ρ_o = λ_o·o/T` at the point.
    pub rho_o: f64,
}

/// One sample of a multi-parameter sweep: the axis-aligned delta tuple
/// (in the scenario's axes order) plus the answer.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisPointResult {
    /// Per-axis deltas above the scenario's base values, aligned with
    /// [`Scenario::axes`].
    pub deltas: Vec<f64>,
    /// The answer at the point.
    pub value: AxisPointValue,
}

/// The 1/2/5% tolerance zones plus the baseline they are relative to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZonesResult {
    /// Runtime at the base latency (ns).
    pub baseline_runtime_ns: f64,
    /// Max added latency before >1% slowdown (ns; infinite = never within
    /// the search window).
    pub pct1_ns: f64,
    /// Max added latency before >2% slowdown (ns).
    pub pct2_ns: f64,
    /// Max added latency before >5% slowdown (ns).
    pub pct5_ns: f64,
}

/// A fully answered scenario. Exactly one of `sweep` (latency-grid
/// campaigns) and `points` (multi-parameter axes campaigns) is populated.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Tolerance zones (always latency-based, at the base values of the
    /// other parameters).
    pub zones: ZonesResult,
    /// Sweep samples, in grid order (latency-grid campaigns).
    pub sweep: Vec<PointResult>,
    /// Multi-parameter samples, in cartesian-product order with the last
    /// axis varying fastest (axes campaigns).
    pub points: Vec<AxisPointResult>,
}

impl Scenario {
    /// Canonical identity of the full job (cache key for whole-scenario
    /// lookups; sweep included).
    pub fn canonical(&self) -> String {
        if self.axes.is_empty() {
            format!("{}|{}", self.base_canonical(), grid_canonical(&self.grid))
        } else {
            format!(
                "{}|{}",
                self.base_canonical(),
                axes_canonical(&self.axes, self.grid.search_hi_ns)
            )
        }
    }

    /// The cartesian product of the axis delta lists, in deterministic
    /// order: first axis outermost, last axis varying fastest — so
    /// consecutive points form warm 1-D cross-sections along the last
    /// axis. Empty for latency-grid scenarios.
    pub fn axis_points(&self) -> Vec<Vec<f64>> {
        if self.axes.is_empty() {
            return Vec::new();
        }
        let total: usize = self.axes.iter().map(|a| a.deltas.len()).product();
        let mut out = Vec::with_capacity(total);
        let mut idx = vec![0usize; self.axes.len()];
        loop {
            out.push(
                idx.iter()
                    .zip(&self.axes)
                    .map(|(&i, a)| a.deltas[i])
                    .collect(),
            );
            // Odometer increment, last axis fastest.
            let mut k = self.axes.len();
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < self.axes[k].deltas.len() {
                    break;
                }
                idx[k] = 0;
            }
        }
    }

    /// Map an axis-aligned delta tuple onto the absolute per-parameter
    /// deltas `(∆L, ∆G, ∆o)` — the layout-independent identity of a grid
    /// point (missing axes contribute zero).
    pub fn param_deltas(&self, deltas: &[f64]) -> [f64; 3] {
        let mut out = [0.0; 3];
        for (a, &d) in self.axes.iter().zip(deltas) {
            match a.param {
                SweepParam::L => out[0] = d,
                SweepParam::G => out[1] = d,
                SweepParam::O => out[2] = d,
            }
        }
        out
    }

    /// Canonical identity *excluding* the grid: the key space for
    /// per-point cache entries, so campaigns with overlapping grids share
    /// solved points. The reduction state is part of the key (`r1`/`r0`),
    /// so reduced and unreduced points never collide — and every key
    /// differs from the pre-reduction engine's, invalidating stale
    /// caches wholesale rather than silently reusing them.
    pub fn base_canonical(&self) -> String {
        format!(
            "{}|{}|{}|{}|r{}",
            self.workload.canonical(),
            self.topology.canonical(),
            self.params.canonical(),
            self.backend.name(),
            u8::from(self.reduce)
        )
    }

    /// Content hash of [`Scenario::canonical`].
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical().as_bytes())
    }

    /// Effective LogGPS parameters: preset → workload `o` default →
    /// explicit overrides.
    pub fn effective_params(&self) -> LogGPSParams {
        let mut p = match self.params.preset {
            ParamsPreset::Cscs => LogGPSParams::cscs_testbed(self.workload.ranks),
            ParamsPreset::PizDaint => LogGPSParams::piz_daint(self.workload.ranks),
            ParamsPreset::Didactic => {
                let mut d = LogGPSParams::didactic();
                d.p = self.workload.ranks;
                d
            }
        };
        p.o = self
            .params
            .o_ns
            .or(self.workload.o_ns)
            .unwrap_or_else(|| self.workload.app.paper_o());
        if let Some(l) = self.params.l_ns {
            p.l = l;
        }
        if let Some(s) = self.params.s_bytes {
            p.s = s;
        }
        p
    }

    /// Build the analyzer (graph construction + binding + the reduction
    /// pipeline when `reduce` is on). This is the expensive part of a
    /// job; the campaign runner skips it entirely when every grid point
    /// is already cached.
    pub fn build_analyzer(&self) -> Result<Analyzer, String> {
        let g = llamp_obs::span("scenario.build");
        if llamp_obs::is_enabled() {
            g.field_str("workload", &self.workload.canonical());
            g.field_str("backend", self.backend.name());
        }
        let set = self
            .workload
            .app
            .programs(self.workload.ranks, self.workload.iters as usize);
        let graph = graph_of_programs(&set, &GraphConfig::paper())
            .map_err(|e| format!("graph build failed: {e}"))?;
        let params = self.effective_params();
        let placement: Vec<u32> = (0..self.workload.ranks).collect();
        let cfg = if self.reduce {
            ReduceConfig::default()
        } else {
            ReduceConfig::none()
        };
        Ok(match &self.topology {
            TopologySpec::Uniform => Analyzer::new_with_config(&graph, &params, &cfg),
            TopologySpec::FatTree {
                k,
                l_wire_ns,
                d_switch_ns,
            } => Analyzer::with_binding_config(
                &graph,
                Binding::wire(&params, &FatTree::new(*k), &placement, *d_switch_ns),
                *l_wire_ns,
                &cfg,
            ),
            TopologySpec::Dragonfly {
                groups,
                routers,
                hosts,
                l_wire_ns,
                d_switch_ns,
            } => Analyzer::with_binding_config(
                &graph,
                Binding::wire(
                    &params,
                    &Dragonfly::new(*groups, *routers, *hosts),
                    &placement,
                    *d_switch_ns,
                ),
                *l_wire_ns,
                &cfg,
            ),
        })
    }

    /// Answer the scenario's missing pieces with its backend.
    ///
    /// `need_deltas` selects which grid points to compute (the campaign
    /// runner passes only cache misses); `need_zones` likewise. Returned
    /// points follow `need_deltas` order. The third element reports the
    /// LP solver's effort counters (zeroed for the non-LP backends);
    /// being wall-clock-free but cache-dependent, they belong in
    /// [`crate::RunSummary`], never in the deterministic results file.
    pub fn compute(
        &self,
        analyzer: &Analyzer,
        need_deltas: &[f64],
        need_zones: bool,
    ) -> Result<(Vec<PointResult>, Option<ZonesResult>, SolveStats), String> {
        self.compute_with(analyzer, need_deltas, need_zones, 1)
    }

    /// [`Scenario::compute`] with an explicit intra-scenario thread
    /// budget. LP points are crash-started and so independent by
    /// construction: `point_threads > 1` shards the grid across the
    /// work-stealing executor with one solver per chunk; results merge in
    /// input order, so the answer is byte-identical at any thread count.
    pub fn compute_with(
        &self,
        analyzer: &Analyzer,
        need_deltas: &[f64],
        need_zones: bool,
        point_threads: usize,
    ) -> Result<(Vec<PointResult>, Option<ZonesResult>, SolveStats), String> {
        let base = analyzer.base_l();
        let hi = base + self.grid.search_hi_ns;
        match self.backend {
            Backend::Parametric => {
                let points = analyzer
                    .sweep(need_deltas)
                    .into_iter()
                    .map(|p| PointResult {
                        delta_l_ns: p.delta_l,
                        runtime_ns: p.runtime,
                        lambda: p.lambda,
                        rho: p.rho,
                    })
                    .collect();
                let zones = need_zones.then(|| {
                    let z = analyzer.tolerance_zones(hi);
                    ZonesResult {
                        baseline_runtime_ns: z.baseline_runtime,
                        pct1_ns: z.pct1,
                        pct2_ns: z.pct2,
                        pct5_ns: z.pct5,
                    }
                });
                Ok((points, zones, SolveStats::default()))
            }
            Backend::Eval => {
                let points = need_deltas
                    .iter()
                    .map(|&d| {
                        let e = llamp_obs::time("eval.point_ns", || analyzer.evaluate(base + d));
                        PointResult {
                            delta_l_ns: d,
                            runtime_ns: e.runtime,
                            lambda: e.lambda,
                            rho: e.rho(base + d),
                        }
                    })
                    .collect();
                let zones = need_zones.then(|| eval_zones(analyzer, base, hi));
                Ok((points, zones, SolveStats::default()))
            }
            Backend::Lp(_) => {
                // The anchor solve at the base latency gives the zones'
                // baseline runtime.
                let mut lp = analyzer.lp();
                let anchor = lp
                    .predict(base)
                    .map_err(|e| format!("LP baseline solve failed: {e:?}"))?;
                // Every point starts from its own longest-path crash
                // (`predict` arms it on a reset solver), so each answer
                // is a pure function of (scenario, point): independent of
                // which points were cache misses, and of the thread count.
                let solve_points = |lp: &mut GraphLp, deltas: &[f64]| {
                    let mut pts = Vec::with_capacity(deltas.len());
                    for &d in deltas {
                        lp.reset_backend();
                        let p = llamp_obs::time("lp.point_ns", || lp.predict(base + d))
                            .map_err(|e| format!("LP solve failed at ∆L={d}: {e:?}"))?;
                        pts.push(PointResult {
                            delta_l_ns: d,
                            runtime_ns: p.runtime,
                            lambda: p.lambda,
                            rho: p.rho(base + d),
                        });
                    }
                    Ok::<_, String>(pts)
                };
                let mut extra_stats = SolveStats::default();
                let threads = point_threads.clamp(1, need_deltas.len().max(1));
                let points = if threads <= 1 {
                    solve_points(&mut lp, need_deltas)?
                } else {
                    // Shard the grid into contiguous chunks, one solver
                    // per chunk, and merge in input order.
                    let chunk_len = need_deltas.len().div_ceil(threads);
                    let chunks: Vec<&[f64]> = need_deltas.chunks(chunk_len).collect();
                    let cfg = ExecutorConfig {
                        threads,
                        job_timeout: None,
                        max_retries: 0,
                    };
                    let outs = run_jobs(&cfg, chunks, |chunk: &&[f64]| {
                        let mut lp = analyzer.lp();
                        let pts = solve_points(&mut lp, chunk)?;
                        Ok::<_, String>((pts, lp.solver_stats()))
                    });
                    let mut points = Vec::with_capacity(need_deltas.len());
                    for status in outs {
                        let (pts, st) = status
                            .ok()
                            .ok_or_else(|| "sweep point worker failed".to_string())??;
                        points.extend(pts);
                        extra_stats.merge(&st);
                    }
                    points
                };
                let zones = if need_zones {
                    // Zones start cold: `tolerance` then seeds the flipped
                    // crash, the longest-path basis at the answer L*
                    // itself, which the simplex certifies without
                    // pivoting.
                    let t0 = anchor.runtime;
                    let mut zone = |pct: f64| -> Result<f64, String> {
                        let cap = t0 * (1.0 + pct / 100.0);
                        lp.reset_backend();
                        let l = llamp_obs::time("lp.zone_ns", || lp.tolerance(base, cap))
                            .map_err(|e| format!("LP tolerance solve failed: {e:?}"))?;
                        Ok(if l - base >= self.grid.search_hi_ns {
                            f64::INFINITY
                        } else {
                            l - base
                        })
                    };
                    Some(ZonesResult {
                        baseline_runtime_ns: t0,
                        pct1_ns: zone(1.0)?,
                        pct2_ns: zone(2.0)?,
                        pct5_ns: zone(5.0)?,
                    })
                } else {
                    None
                };
                let mut stats = lp.solver_stats();
                stats.merge(&extra_stats);
                Ok((points, zones, stats))
            }
        }
    }

    /// Answer an axes scenario's missing grid points (and zones) with its
    /// backend. `need_points` holds axis-aligned delta tuples (the
    /// campaign runner passes only cache misses); returned values follow
    /// its order.
    ///
    /// The LP path follows [`Scenario::compute`]: one anchor solve at the
    /// scenario's base `(L, G, o)` point for the zones' baseline, every
    /// grid point from its own longest-path crash, and zones from the
    /// flipped crash along `L`. Every answer is a pure function of
    /// (scenario, point), so results are byte-identical across cache
    /// states.
    pub fn compute_axes(
        &self,
        analyzer: &Analyzer,
        need_points: &[Vec<f64>],
        need_zones: bool,
    ) -> Result<(Vec<AxisPointValue>, Option<ZonesResult>, SolveStats), String> {
        let base = analyzer.base_point();
        let hi = base.l + self.grid.search_hi_ns;
        let at = |deltas: &[f64]| -> ParamPoint {
            let [dl, dg, d_o] = self.param_deltas(deltas);
            ParamPoint {
                l: base.l + dl,
                g: base.g + dg,
                o: base.o + d_o,
            }
        };
        let value_of = |runtime: f64, lam: [f64; 3], p: ParamPoint| -> AxisPointValue {
            let rho = |lambda: f64, v: f64| {
                if runtime <= 0.0 {
                    0.0
                } else {
                    lambda * v / runtime
                }
            };
            AxisPointValue {
                runtime_ns: runtime,
                lambda_l: lam[0],
                lambda_g: lam[1],
                lambda_o: lam[2],
                rho_l: rho(lam[0], p.l),
                rho_g: rho(lam[1], p.g),
                rho_o: rho(lam[2], p.o),
            }
        };
        match self.backend {
            Backend::Parametric | Backend::Eval => {
                let points = need_points
                    .iter()
                    .map(|deltas| {
                        let p = at(deltas);
                        let e = llamp_obs::time("eval.point_ns", || analyzer.evaluate_multi(p));
                        value_of(e.runtime, [e.lambda_l, e.lambda_g, e.lambda_o], p)
                    })
                    .collect();
                let zones = need_zones.then(|| match self.backend {
                    // The envelope backend answers zones exactly from the
                    // T(L) profile (G, o at base); eval bisects.
                    Backend::Parametric => {
                        let z = analyzer.tolerance_zones(hi);
                        ZonesResult {
                            baseline_runtime_ns: z.baseline_runtime,
                            pct1_ns: z.pct1,
                            pct2_ns: z.pct2,
                            pct5_ns: z.pct5,
                        }
                    }
                    _ => eval_zones(analyzer, base.l, hi),
                });
                Ok((points, zones, SolveStats::default()))
            }
            Backend::Lp(_) => {
                let mut lp = analyzer.multi_lp();
                let anchor = lp
                    .predict(base)
                    .map_err(|e| format!("LP baseline solve failed: {e:?}"))?;
                let mut points = Vec::with_capacity(need_points.len());
                for deltas in need_points {
                    let p = at(deltas);
                    lp.reset_backend();
                    let pred = llamp_obs::time("lp.point_ns", || lp.predict(p))
                        .map_err(|e| format!("LP solve failed at {deltas:?}: {e:?}"))?;
                    points.push(value_of(
                        pred.runtime,
                        [pred.lambda_l, pred.lambda_g, pred.lambda_o],
                        p,
                    ));
                }
                let zones = if need_zones {
                    // Cold, from the flipped crash (see `compute_with`).
                    let t0 = anchor.runtime;
                    let mut zone = |pct: f64| -> Result<f64, String> {
                        let cap = t0 * (1.0 + pct / 100.0);
                        lp.reset_backend();
                        let l = llamp_obs::time("lp.zone_ns", || {
                            lp.tolerance(SweepParam::L, base, cap)
                        })
                        .map_err(|e| format!("LP tolerance solve failed: {e:?}"))?;
                        Ok(if l - base.l >= self.grid.search_hi_ns {
                            f64::INFINITY
                        } else {
                            l - base.l
                        })
                    };
                    Some(ZonesResult {
                        baseline_runtime_ns: t0,
                        pct1_ns: zone(1.0)?,
                        pct2_ns: zone(2.0)?,
                        pct5_ns: zone(5.0)?,
                    })
                } else {
                    None
                };
                Ok((points, zones, lp.solver_stats()))
            }
        }
    }

    /// Re-encode for result files (canonical order; round-trips through
    /// the spec decoders).
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("workload".into(), Value::Str(self.workload.canonical())),
            ("topology".into(), Value::Str(self.topology.canonical())),
            ("params".into(), Value::Str(self.params.canonical())),
            ("backend".into(), Value::Str(self.backend.name().into())),
            ("reduce".into(), Value::Bool(self.reduce)),
        ];
        if !self.axes.is_empty() {
            pairs.push((
                "axes".into(),
                Value::Array(
                    self.axes
                        .iter()
                        .map(|a| Value::Str(a.param.name().into()))
                        .collect(),
                ),
            ));
        }
        Value::Table(pairs)
    }
}

/// Tolerance zones via monotone bisection on direct evaluation — the
/// backend-honest way to answer zones without an envelope.
fn eval_zones(analyzer: &Analyzer, base: f64, hi: f64) -> ZonesResult {
    let t0 = analyzer.evaluate(base).runtime;
    let t_hi = analyzer.evaluate(hi).runtime;
    let zone = |pct: f64| -> f64 {
        let cap = t0 * (1.0 + pct / 100.0);
        if t_hi <= cap {
            return f64::INFINITY;
        }
        if t0 > cap {
            return 0.0;
        }
        let (mut lo, mut up) = (base, hi);
        // 64 bisection steps: below f64 resolution on any realistic span.
        for _ in 0..64 {
            let mid = 0.5 * (lo + up);
            if analyzer.evaluate(mid).runtime <= cap {
                lo = mid;
            } else {
                up = mid;
            }
        }
        lo - base
    };
    ZonesResult {
        baseline_runtime_ns: t0,
        pct1_ns: zone(1.0),
        pct2_ns: zone(2.0),
        pct5_ns: zone(5.0),
    }
}

/// Expand a canonical spec into its scenario set, sorted by canonical key
/// and deduplicated — the deterministic job list of a campaign.
pub fn expand(spec: &CampaignSpec) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(
        spec.workloads.len() * spec.topologies.len() * spec.params.len() * spec.backends.len(),
    );
    for w in &spec.workloads {
        for t in &spec.topologies {
            for p in &spec.params {
                for b in &spec.backends {
                    out.push(Scenario {
                        workload: w.clone(),
                        topology: t.clone(),
                        params: p.clone(),
                        backend: *b,
                        grid: spec.grid.clone(),
                        axes: spec.axes.clone(),
                        reduce: spec.reduce,
                        sweep_start: spec.sweep_start,
                    });
                }
            }
        }
    }
    out.sort_by_key(Scenario::canonical);
    out.dedup_by(|a, b| a.canonical() == b.canonical());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CampaignSpec;

    fn small_spec() -> CampaignSpec {
        CampaignSpec::parse(
            r#"
name = "unit"
backends = ["parametric", "eval", "lp"]
[grid]
deltas_ns = [0.0, 50000.0]
search_hi_ns = 500000.0
[[workloads]]
app = "cloverleaf"
ranks = 4
iters = 1
"#,
            "x.toml",
        )
        .unwrap()
    }

    #[test]
    fn expansion_is_sorted_and_complete() {
        let spec = small_spec();
        let jobs = expand(&spec);
        assert_eq!(jobs.len(), 3);
        let keys: Vec<String> = jobs.iter().map(Scenario::canonical).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn backends_agree_on_sweep_points() {
        let spec = small_spec();
        let jobs = expand(&spec);
        let mut results = Vec::new();
        for job in &jobs {
            let a = job.build_analyzer().unwrap();
            let (points, zones, _) = job.compute(&a, &job.grid.deltas_ns, true).unwrap();
            results.push((job.backend, points, zones.unwrap()));
        }
        // All three backends answer the same questions; runtimes must agree
        // to numerical tolerance at every grid point.
        for w in results.windows(2) {
            let (_, pa, za) = &w[0];
            let (_, pb, zb) = &w[1];
            for (x, y) in pa.iter().zip(pb) {
                assert!(
                    (x.runtime_ns - y.runtime_ns).abs() <= 1e-6 * (1.0 + x.runtime_ns),
                    "runtime mismatch: {x:?} vs {y:?}"
                );
            }
            let tol = 1e-3 * (1.0 + za.baseline_runtime_ns);
            assert!((za.baseline_runtime_ns - zb.baseline_runtime_ns).abs() <= tol);
        }
    }

    #[test]
    fn fingerprint_distinguishes_backends_but_not_grid_for_base() {
        let spec = small_spec();
        let jobs = expand(&spec);
        assert_ne!(jobs[0].fingerprint(), jobs[1].fingerprint());
        let mut other = jobs[0].clone();
        other.grid.deltas_ns.push(123.0);
        assert_eq!(jobs[0].base_canonical(), other.base_canonical());
        assert_ne!(jobs[0].canonical(), other.canonical());
    }
}
