//! High-level analysis facade.
//!
//! [`Analyzer`] bundles the pieces a user of the toolchain actually wants:
//! build once from an execution graph and a network parameter set, then ask
//! for runtime predictions, sensitivity/ratio curves, critical latencies
//! and the x% latency-tolerance figures of Fig. 1 / Fig. 9 — without
//! touching LPs or envelopes directly.

use crate::binding::Binding;
use crate::eval::{evaluate, Evaluation};
use crate::lp_build::GraphLp;
use crate::parametric::ParametricProfile;
use llamp_model::LogGPSParams;
use llamp_schedgen::{ExecGraph, ReduceConfig, ReducedGraph, ReductionStats};

/// The x% latency-tolerance triple the paper highlights (green / orange /
/// red zones of Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ToleranceZones {
    /// Baseline runtime `T₀` at the base latency (ns).
    pub baseline_runtime: f64,
    /// Max added latency `∆L` before >1% slowdown (ns).
    pub pct1: f64,
    /// Max added latency before >2% slowdown (ns).
    pub pct2: f64,
    /// Max added latency before >5% slowdown (ns).
    pub pct5: f64,
}

/// One sample of a latency sweep (a row of the Fig. 9 curves).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Added latency `∆L` (ns).
    pub delta_l: f64,
    /// Predicted runtime (ns).
    pub runtime: f64,
    /// Latency sensitivity `λ_L`.
    pub lambda: f64,
    /// Latency ratio `ρ_L`.
    pub rho: f64,
}

/// The name [`Analyzer::lp_named`] and [`Analyzer::multi_lp_named`]
/// accept: the sparse simplex, the one LP solver.
pub const SOLVER_NAME: &str = "sparse";

/// Analysis driver for one execution graph under one network binding.
#[derive(Debug, Clone)]
pub struct Analyzer {
    graph: ReducedGraph,
    binding: Binding,
    base_l: f64,
}

impl Analyzer {
    /// Build from a graph and LogGPS parameters (uniform latency model).
    /// The graph runs through the full makespan-preserving reduction
    /// pipeline — the analysis-level presolve — so construction cost is
    /// paid once; results are provenance-mapped back to the original
    /// graph (see [`Analyzer::lift_path`]).
    pub fn new(graph: &ExecGraph, params: &LogGPSParams) -> Self {
        Self::new_with_config(graph, params, &ReduceConfig::default())
    }

    /// [`Analyzer::new`] with an explicit reduction configuration
    /// ([`ReduceConfig::none`] analyses the raw graph).
    pub fn new_with_config(graph: &ExecGraph, params: &LogGPSParams, cfg: &ReduceConfig) -> Self {
        Self::with_binding_config(graph, Binding::uniform(params), params.l, cfg)
    }

    /// Build with an explicit binding (topology / per-class / HLogGP
    /// analyses). `base_l` is the reference value of the analysis variable
    /// (e.g. the baseline wire latency).
    pub fn with_binding(graph: &ExecGraph, binding: Binding, base_l: f64) -> Self {
        Self::with_binding_config(graph, binding, base_l, &ReduceConfig::default())
    }

    /// [`Analyzer::with_binding`] with an explicit reduction
    /// configuration.
    pub fn with_binding_config(
        graph: &ExecGraph,
        binding: Binding,
        base_l: f64,
        cfg: &ReduceConfig,
    ) -> Self {
        Self {
            graph: graph.reduced(cfg),
            binding,
            base_l,
        }
    }

    /// The reduced graph under analysis.
    pub fn graph(&self) -> &ExecGraph {
        self.graph.graph()
    }

    /// The reduction IR, including the provenance map and pass stats.
    pub fn reduction(&self) -> &ReducedGraph {
        &self.graph
    }

    /// What the reduction pipeline did to this analyzer's graph.
    pub fn reduction_stats(&self) -> &ReductionStats {
        self.graph.stats()
    }

    /// Lift a critical path reported against the reduced graph (e.g.
    /// [`Evaluation::critical_path`]) back to original-graph vertex ids.
    pub fn lift_path(&self, path: &[u32]) -> Vec<u32> {
        self.graph.lift_path(path)
    }

    /// The active binding.
    pub fn binding(&self) -> &Binding {
        &self.binding
    }

    /// Base value of the analysis variable (network latency `L` for the
    /// uniform model).
    pub fn base_l(&self) -> f64 {
        self.base_l
    }

    /// Fast runtime/λ/critical-path evaluation at one latency value.
    pub fn evaluate(&self, l: f64) -> Evaluation {
        evaluate(&self.graph, &self.binding, l)
    }

    /// Predicted runtime at the base latency.
    pub fn baseline_runtime(&self) -> f64 {
        self.evaluate(self.base_l).runtime
    }

    /// Build the LP form (Algorithm 1) for solver-based queries.
    pub fn lp(&self) -> GraphLp {
        GraphLp::build(&self.graph, &self.binding)
    }

    /// [`Analyzer::lp`] for callers that carry a solver name: `"sparse"`
    /// is the only one, anything else gives `None`. Kept because the
    /// perfbench probe builds its LPs through it.
    pub fn lp_named(&self, solver: &str) -> Option<GraphLp> {
        (solver == SOLVER_NAME).then(|| self.lp())
    }

    /// Base value of one sweep parameter: the point the campaign's delta
    /// axes are relative to (`L` from the analyzer, `G`/`o` from the
    /// binding).
    pub fn base_param(&self, p: crate::binding::SweepParam) -> f64 {
        self.binding.base_value(p, self.base_l)
    }

    /// The full base query point `(L, G, o)`.
    pub fn base_point(&self) -> crate::multi_lp::ParamPoint {
        use crate::binding::SweepParam;
        crate::multi_lp::ParamPoint {
            l: self.base_param(SweepParam::L),
            g: self.base_param(SweepParam::G),
            o: self.base_param(SweepParam::O),
        }
    }

    /// Build the multi-parameter LP (symbolic `L`, `G`, `o`; see
    /// [`crate::multi_lp::GraphMultiLp`]).
    pub fn multi_lp(&self) -> crate::multi_lp::GraphMultiLp {
        crate::multi_lp::GraphMultiLp::build(&self.graph, &self.binding)
    }

    /// [`Analyzer::multi_lp`] by solver name, as [`Analyzer::lp_named`].
    pub fn multi_lp_named(&self, solver: &str) -> Option<crate::multi_lp::GraphMultiLp> {
        (solver == SOLVER_NAME).then(|| self.multi_lp())
    }

    /// Direct evaluation at an arbitrary `(L, G, o)` point, with the full
    /// sensitivity gradient (see [`crate::eval::evaluate_multi`]).
    pub fn evaluate_multi(&self, at: crate::multi_lp::ParamPoint) -> crate::eval::MultiEvaluation {
        crate::eval::evaluate_multi(&self.graph, &self.binding, at.l, at.g, at.o)
    }

    /// Exact `T(L)` profile over `[l_min, l_max]`.
    pub fn profile(&self, l_min: f64, l_max: f64) -> ParametricProfile {
        ParametricProfile::compute(&self.graph, &self.binding, (l_min, l_max))
    }

    /// The x% tolerance (§II-D2) as *added* latency `∆L` above the base
    /// latency, computed exactly from the parametric profile.
    /// `f64::INFINITY` means the cap is never exceeded within `search_hi`.
    pub fn tolerance_pct(&self, pct: f64, search_hi: f64) -> f64 {
        let t0 = self.baseline_runtime();
        let cap = t0 * (1.0 + pct / 100.0);
        let prof = self.profile(self.base_l, search_hi);
        match prof.tolerance(cap) {
            None => 0.0,
            Some(x) if x >= search_hi => f64::INFINITY,
            Some(x) => x - self.base_l,
        }
    }

    /// The 1/2/5% tolerance zones of Fig. 1.
    pub fn tolerance_zones(&self, search_hi: f64) -> ToleranceZones {
        let t0 = self.baseline_runtime();
        let prof = self.profile(self.base_l, search_hi);
        let zone = |pct: f64| -> f64 {
            let cap = t0 * (1.0 + pct / 100.0);
            match prof.tolerance(cap) {
                None => 0.0,
                Some(x) if x >= search_hi => f64::INFINITY,
                Some(x) => x - self.base_l,
            }
        };
        ToleranceZones {
            baseline_runtime: t0,
            pct1: zone(1.0),
            pct2: zone(2.0),
            pct5: zone(5.0),
        }
    }

    /// Sweep `∆L` over `deltas` (the Fig. 9 x-axis), producing runtime,
    /// `λ_L` and `ρ_L` per point from the exact profile.
    pub fn sweep(&self, deltas: &[f64]) -> Vec<SweepPoint> {
        let hi = self.base_l + deltas.iter().copied().fold(0.0f64, f64::max);
        let prof = self.profile(self.base_l.min(hi), hi.max(self.base_l) + 1.0);
        deltas
            .iter()
            .map(|&d| {
                let l = self.base_l + d;
                SweepPoint {
                    delta_l: d,
                    runtime: prof.runtime(l),
                    lambda: prof.lambda(l),
                    rho: prof.rho(l),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamp_schedgen::{build_graph, GraphConfig};
    use llamp_trace::{ProgramSet, TracerConfig};
    use llamp_util::time::us;

    /// A bulk-synchronous job: per-iteration compute then allreduce — a
    /// miniature of the paper's applications.
    fn bsp_graph(ranks: u32, iters: usize, comp_us: f64) -> ExecGraph {
        let set = ProgramSet::spmd(ranks, |_, b| {
            for _ in 0..iters {
                b.comp(us(comp_us));
                b.allreduce(64);
            }
        });
        build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager()).unwrap()
    }

    #[test]
    fn zones_are_ordered() {
        let g = bsp_graph(8, 10, 50.0);
        let params = LogGPSParams::cscs_testbed(8).with_o(us(2.0));
        let a = Analyzer::new(&g, &params);
        let z = a.tolerance_zones(us(2_000.0));
        assert!(z.pct1 > 0.0);
        assert!(z.pct1 <= z.pct2);
        assert!(z.pct2 <= z.pct5);
    }

    #[test]
    fn zone_caps_are_respected() {
        let g = bsp_graph(4, 5, 100.0);
        let params = LogGPSParams::cscs_testbed(4).with_o(us(2.0));
        let a = Analyzer::new(&g, &params);
        let z = a.tolerance_zones(us(5_000.0));
        let t0 = z.baseline_runtime;
        // Runtime exactly at the 1% tolerance equals 1.01 T0.
        let at = a.evaluate(params.l + z.pct1).runtime;
        assert!(
            (at - 1.01 * t0).abs() < 1e-6 * t0,
            "runtime at pct1 {} vs cap {}",
            at,
            1.01 * t0
        );
        // Just past it, the cap is exceeded.
        let past = a.evaluate(params.l + z.pct1 + us(1.0)).runtime;
        assert!(past > 1.01 * t0);
    }

    #[test]
    fn sweep_points_match_evaluation() {
        let g = bsp_graph(4, 8, 20.0);
        let params = LogGPSParams::cscs_testbed(4).with_o(us(1.0));
        let a = Analyzer::new(&g, &params);
        let deltas: Vec<f64> = (0..10).map(|i| us(10.0) * i as f64).collect();
        for pt in a.sweep(&deltas) {
            let e = a.evaluate(params.l + pt.delta_l);
            assert!((pt.runtime - e.runtime).abs() < 1e-6 * (1.0 + e.runtime));
            assert!((pt.lambda - e.lambda).abs() < 1e-9);
        }
    }

    #[test]
    fn more_compute_means_more_tolerance() {
        // Strong-scaling intuition (§III-C): more compute per rank hides
        // more latency.
        let params = LogGPSParams::cscs_testbed(4).with_o(us(1.0));
        let small = Analyzer::new(&bsp_graph(4, 6, 10.0), &params);
        let big = Analyzer::new(&bsp_graph(4, 6, 1_000.0), &params);
        let zs = small.tolerance_zones(us(100_000.0));
        let zb = big.tolerance_zones(us(100_000.0));
        assert!(
            zb.pct1 > zs.pct1,
            "compute-heavy {} vs light {}",
            zb.pct1,
            zs.pct1
        );
    }

    #[test]
    fn fully_synchronous_job_has_near_zero_tolerance() {
        // No compute at all: any added latency shows up ~proportionally.
        let g = bsp_graph(4, 4, 0.0);
        let params = LogGPSParams::cscs_testbed(4).with_o(100.0);
        let a = Analyzer::new(&g, &params);
        let z = a.tolerance_zones(us(1_000.0));
        // 1% of an all-communication runtime is tiny.
        assert!(z.pct1 < a.baseline_runtime() * 0.02);
    }
}
