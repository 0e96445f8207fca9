//! The multi-parameter LP: Algorithm 1 generalised so that **all three**
//! sweepable LogGPS parameters — the latency `L`, the per-byte gap `G`
//! and the per-message overhead `o` — are decision variables at once.
//!
//! The construction mirrors [`crate::lp_build::GraphLp`] exactly, except
//! that edge costs enter through [`Binding::bind_multi`]: instead of
//! baking `G` and `o` into row constants, every `≥` constraint carries
//! coefficients `(-m_L, -m_G, -m_o)` on the three parameter columns.
//! Queries pin each parameter with a *lower bound* (never an equality),
//! so the reduced cost of each column is the corresponding sensitivity —
//! `λ_L`, `λ_G` and `λ_o` all fall out of the **same dual solution** of
//! one solve, and per-parameter basis-stability windows come from the
//! same ranging machinery Algorithm 2 uses for `L`.
//!
//! As in `GraphLp`, each query without warm state starts from the
//! longest-path crash basis at its own `(L, G, o)` point, so a campaign
//! answers most grid points with zero pivots.

use crate::binding::{Binding, SweepParam};
use crate::crash::{CrashKind, CrashPlan, CrashRow, NO_BASE};
use crate::lowering::lower_walk;
use llamp_lp::{
    resolve_robust, Basis, LpModel, Objective, Relation, Solution, SolveError, SolveStats,
    SparseSimplex, VarId,
};
use llamp_schedgen::GraphView;

/// A query point in the three-parameter space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParamPoint {
    /// Network (or per-wire) latency `L` (ns).
    pub l: f64,
    /// Per-byte gap `G` (ns/byte).
    pub g: f64,
    /// Per-message overhead `o` (ns).
    pub o: f64,
}

impl ParamPoint {
    /// The value of one sweep parameter.
    pub fn get(&self, p: SweepParam) -> f64 {
        match p {
            SweepParam::L => self.l,
            SweepParam::G => self.g,
            SweepParam::O => self.o,
        }
    }

    /// Replace the value of one sweep parameter.
    pub fn with(mut self, p: SweepParam, value: f64) -> Self {
        match p {
            SweepParam::L => self.l = value,
            SweepParam::G => self.g = value,
            SweepParam::O => self.o = value,
        }
        self
    }
}

/// Affine running expression `base + c + m·(L,G,o)` for a vertex's
/// completion time while building the LP (Algorithm 1's `Tv`, with the
/// full coefficient vector kept symbolic).
#[derive(Debug, Clone, Copy)]
struct Expr {
    base: Option<VarId>,
    c: f64,
    ml: f64,
    mg: f64,
    mo: f64,
}

/// What a single multi-parameter solve reports: the runtime plus the full
/// sensitivity gradient and per-parameter basis-stability ranges.
#[derive(Debug, Clone, Copy)]
pub struct MultiPrediction {
    /// Predicted runtime `T` (ns).
    pub runtime: f64,
    /// Latency sensitivity `λ_L` (reduced cost of the `L` column).
    pub lambda_l: f64,
    /// Bandwidth sensitivity `λ_G` (reduced cost of the `G` column).
    pub lambda_g: f64,
    /// Overhead sensitivity `λ_o` (reduced cost of the `o` column).
    pub lambda_o: f64,
    /// Basis-stability range of the `L` lower bound (`SALBLow`/`SALBUp`).
    pub l_feasible: (f64, f64),
    /// Basis-stability range of the `G` lower bound.
    pub g_feasible: (f64, f64),
    /// Basis-stability range of the `o` lower bound.
    pub o_feasible: (f64, f64),
    /// Simplex iterations spent.
    pub iterations: u64,
}

impl MultiPrediction {
    /// Sensitivity of one sweep parameter.
    pub fn lambda(&self, p: SweepParam) -> f64 {
        match p {
            SweepParam::L => self.lambda_l,
            SweepParam::G => self.lambda_g,
            SweepParam::O => self.lambda_o,
        }
    }

    /// Basis-stability range of one parameter's lower bound.
    pub fn feasible(&self, p: SweepParam) -> (f64, f64) {
        match p {
            SweepParam::L => self.l_feasible,
            SweepParam::G => self.g_feasible,
            SweepParam::O => self.o_feasible,
        }
    }

    /// The ratio `ρ_X = λ_X · X / T` for one parameter at its query
    /// value: the critical-path share attributable to that parameter.
    pub fn rho(&self, p: SweepParam, value: f64) -> f64 {
        if self.runtime <= 0.0 {
            0.0
        } else {
            self.lambda(p) * value / self.runtime
        }
    }
}

/// The multi-parameter LP form of an execution graph under a binding,
/// paired with the [`SparseSimplex`] that answers its queries (same
/// crash and warm-start protocol as [`crate::lp_build::GraphLp`]).
#[derive(Debug)]
pub struct GraphMultiLp {
    model: LpModel,
    l: VarId,
    g: VarId,
    o: VarId,
    t: VarId,
    solver: SparseSimplex,
    /// Crash plan — instantiated into a crash [`Basis`] at each query's
    /// `(L, G, o)` point (see `GraphLp::build`).
    plan: CrashPlan,
    /// Which in-edge selection rule instantiates the plan.
    crash_kind: CrashKind,
}

impl GraphMultiLp {
    /// Algorithm 1 with symbolic `(L, G, o)`: one decision variable per
    /// parameter, each edge constraint carrying its full coefficient
    /// vector from [`Binding::bind_multi`]. The crash plan is recorded
    /// exactly as in the single-parameter build, with all three
    /// multipliers kept per row.
    pub fn build<V: GraphView + ?Sized>(graph: &V, binding: &Binding) -> Self {
        use llamp_lp::solution::VarStatus;

        let span = llamp_obs::span("lp.lower");
        let mut model = LpModel::new(Objective::Minimize);
        let l = model.add_var("l", 0.0, f64::INFINITY, 0.0);
        let g = model.add_var("g", 0.0, f64::INFINITY, 0.0);
        let o = model.add_var("o", 0.0, f64::INFINITY, 0.0);
        let t = model.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        let mut col_status = vec![
            VarStatus::AtLower,
            VarStatus::AtLower,
            VarStatus::AtLower,
            VarStatus::FreeZero,
        ];
        let mut rows: Vec<CrashRow> = Vec::new();
        let mut has_sink = false;

        let n = graph.num_vertices();
        let mut exprs: Vec<Expr> = vec![
            Expr {
                base: None,
                c: 0.0,
                ml: 0.0,
                mg: 0.0,
                mo: 0.0,
            };
            n
        ];

        // Append the parameter coefficients of an expression to a
        // constraint's term list (negated: y − base − m·(l,g,o) ≥ c).
        let push_coeffs = |terms: &mut Vec<(VarId, f64)>, ml: f64, mg: f64, mo: f64| {
            if ml != 0.0 {
                terms.push((l, -ml));
            }
            if mg != 0.0 {
                terms.push((g, -mg));
            }
            if mo != 0.0 {
                terms.push((o, -mo));
            }
        };

        lower_walk(graph, binding, |low| {
            let v = low.id;
            let vb = low.cost;
            let e = match low.preds.len() {
                0 => Expr {
                    base: None,
                    c: vb.constant,
                    ml: vb.l,
                    mg: vb.g,
                    mo: vb.o,
                },
                1 => {
                    let (p, eb) = low.preds[0];
                    let u = exprs[p as usize];
                    Expr {
                        base: u.base,
                        c: u.c + eb.constant + vb.constant,
                        ml: u.ml + eb.l + vb.l,
                        mg: u.mg + eb.g + vb.g,
                        mo: u.mo + eb.o + vb.o,
                    }
                }
                _ => {
                    let y = model.add_var(format!("y{v}"), f64::NEG_INFINITY, f64::INFINITY, 0.0);
                    col_status.push(VarStatus::Basic);
                    for &(p, eb) in low.preds {
                        let u = exprs[p as usize];
                        // y ≥ base_u + (c_u + ec) + (m_u + em)·(l,g,o)
                        let mut terms = vec![(y, 1.0)];
                        if let Some(b) = u.base {
                            terms.push((b, -1.0));
                        }
                        push_coeffs(&mut terms, u.ml + eb.l, u.mg + eb.g, u.mo + eb.o);
                        let rhs = u.c + eb.constant;
                        model.add_constraint(format!("in{v}_{p}"), &terms, Relation::Ge, rhs);
                        rows.push(CrashRow {
                            target: y.0,
                            base: u.base.map_or(NO_BASE, |b| b.0),
                            c: rhs,
                            ml: u.ml + eb.l,
                            mg: u.mg + eb.g,
                            mo: u.mo + eb.o,
                        });
                    }
                    Expr {
                        base: Some(y),
                        c: vb.constant,
                        ml: vb.l,
                        mg: vb.g,
                        mo: vb.o,
                    }
                }
            };
            exprs[v as usize] = e;

            // Sinks bound the makespan variable: t ≥ Tv.
            if low.is_sink {
                let ex = exprs[v as usize];
                let mut terms = vec![(t, 1.0)];
                if let Some(b) = ex.base {
                    terms.push((b, -1.0));
                }
                push_coeffs(&mut terms, ex.ml, ex.mg, ex.mo);
                model.add_constraint(format!("sink{v}"), &terms, Relation::Ge, ex.c);
                rows.push(CrashRow {
                    target: t.0,
                    base: ex.base.map_or(NO_BASE, |b| b.0),
                    c: ex.c,
                    ml: ex.ml,
                    mg: ex.mg,
                    mo: ex.mo,
                });
                has_sink = true;
            }
        });

        if has_sink {
            col_status[t.0 as usize] = VarStatus::Basic;
        }
        let plan = CrashPlan {
            col_status,
            rows,
            t_col: t.0,
        };

        let lp = Self {
            model,
            l,
            g,
            o,
            t,
            solver: SparseSimplex::default(),
            plan,
            crash_kind: CrashKind::default(),
        };
        if llamp_obs::is_enabled() {
            span.field_str("shape", "multi");
            span.field_u64("rows", lp.model.num_constraints() as u64);
            span.field_u64("cols", lp.model.num_vars() as u64);
        }
        lp
    }

    /// The underlying model (for statistics or custom solves).
    pub fn model(&self) -> &LpModel {
        &self.model
    }

    /// Drop accumulated warm state: the next query seeds the crash basis
    /// at its own `(L, G, o)` point, as a freshly built instance would.
    pub fn reset_backend(&mut self) {
        self.solver.reset();
    }

    /// The crash-basis selection rule in effect (see [`CrashKind`]).
    pub fn crash_kind(&self) -> CrashKind {
        self.crash_kind
    }

    /// Switch the crash-basis selection rule and drop warm state, so the
    /// next query cold-starts under the new rule.
    pub fn set_crash_kind(&mut self, kind: CrashKind) {
        self.crash_kind = kind;
        self.solver.reset();
    }

    /// Instantiate the crash basis at a parameter point (exposed for
    /// conformance tests and benchmarks; queries do this internally).
    pub fn crash_basis(&self, at: ParamPoint) -> Basis {
        self.plan.basis_at(self.crash_kind, at.l, at.g, at.o)
    }

    /// The crash for [`GraphMultiLp::tolerance`] along `p`: the
    /// longest-path basis at the answer itself, with `p`'s column basic
    /// and `t` at its cap (see `CrashPlan::tolerance_basis`).
    fn tolerance_crash_basis(&self, p: SweepParam, at: ParamPoint, max_runtime: f64) -> Basis {
        let axis = self.param_var(p).0 as usize;
        let flipped = match self.crash_kind {
            CrashKind::LongestPath => {
                self.plan
                    .tolerance_basis(axis, [at.l, at.g, at.o], max_runtime)
            }
            CrashKind::Topological => None,
        };
        flipped.unwrap_or_else(|| self.crash_basis(at))
    }

    /// Seed `crash` if the solver holds no warm state, and hand it back
    /// for the robust-resolve fallback ladder.
    fn arm(&mut self, crash: Basis) -> Basis {
        if self.solver.warm_basis().is_none() {
            self.solver.seed(&crash);
        }
        crash
    }

    /// Cumulative solver-effort counters across every query this instance
    /// has answered.
    pub fn solver_stats(&self) -> SolveStats {
        self.solver.stats()
    }

    /// The basis the solver would warm-start its next query from.
    pub fn warm_basis(&self) -> Option<Basis> {
        self.solver.warm_basis().cloned()
    }

    /// Re-seed the solver's warm state from an explicit basis (e.g. run
    /// every grid point from one anchor optimum).
    pub fn seed_backend(&mut self, basis: &Basis) {
        self.solver.seed(basis);
    }

    /// The decision variable of one sweep parameter.
    pub fn param_var(&self, p: SweepParam) -> VarId {
        match p {
            SweepParam::L => self.l,
            SweepParam::G => self.g,
            SweepParam::O => self.o,
        }
    }

    /// Makespan decision variable.
    pub fn t_var(&self) -> VarId {
        self.t
    }

    /// Solve `min t` with `l ≥ L`, `g ≥ G`, `o ≥ o` and report the
    /// runtime, the full sensitivity gradient and the per-parameter
    /// basis-stability ranges — all from one dual solution.
    pub fn predict(&mut self, at: ParamPoint) -> Result<MultiPrediction, SolveError> {
        self.model.set_var_lb(self.l, at.l);
        self.model.set_var_lb(self.g, at.g);
        self.model.set_var_lb(self.o, at.o);
        self.model.set_sense(Objective::Minimize);
        self.model.set_objective(&[(self.t, 1.0)]);
        let crash = self.arm(self.crash_basis(at));
        let sol = resolve_robust(&mut self.solver, &self.model, Some(&crash))?;
        Ok(MultiPrediction {
            runtime: sol.objective(),
            lambda_l: sol.reduced_cost(self.l),
            lambda_g: sol.reduced_cost(self.g),
            lambda_o: sol.reduced_cost(self.o),
            l_feasible: sol.lb_range(self.l),
            g_feasible: sol.lb_range(self.g),
            o_feasible: sol.lb_range(self.o),
            iterations: sol.iterations(),
        })
    }

    /// Solve and hand back the raw solution (tight-constraint /
    /// critical-path inspection).
    pub fn solve_raw(&mut self, at: ParamPoint) -> Result<Solution, SolveError> {
        self.model.set_var_lb(self.l, at.l);
        self.model.set_var_lb(self.g, at.g);
        self.model.set_var_lb(self.o, at.o);
        self.model.set_sense(Objective::Minimize);
        self.model.set_objective(&[(self.t, 1.0)]);
        let crash = self.arm(self.crash_basis(at));
        resolve_robust(&mut self.solver, &self.model, Some(&crash))
    }

    /// Tolerance along one parameter (§II-D2 generalised): maximise that
    /// parameter subject to `t ≤ max_runtime`, the other two pinned at
    /// `at`'s values. Returns `f64::INFINITY` when the runtime never
    /// exceeds the cap and an `Err` when even the floor violates it.
    ///
    /// Without warm state the solve starts from the longest-path basis
    /// at the answer itself, as in [`crate::lp_build::GraphLp::tolerance`].
    pub fn tolerance(
        &mut self,
        p: SweepParam,
        at: ParamPoint,
        max_runtime: f64,
    ) -> Result<f64, SolveError> {
        self.model.set_var_lb(self.l, at.l);
        self.model.set_var_lb(self.g, at.g);
        self.model.set_var_lb(self.o, at.o);
        let var = self.param_var(p);
        self.model.set_var_ub(self.t, max_runtime);
        self.model.set_sense(Objective::Maximize);
        self.model.set_objective(&[(var, 1.0)]);
        let crash = self.arm(self.tolerance_crash_basis(p, at, max_runtime));
        let out = match resolve_robust(&mut self.solver, &self.model, Some(&crash)) {
            Ok(sol) => Ok(sol.value(var)),
            Err(SolveError::Unbounded) => Ok(f64::INFINITY),
            Err(e) => Err(e),
        };
        // Restore the prediction shape.
        self.model.set_var_ub(self.t, f64::INFINITY);
        self.model.set_sense(Objective::Minimize);
        self.model.set_objective(&[(self.t, 1.0)]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
    use crate::eval::evaluate_multi;
    use crate::lp_build::GraphLp;
    use llamp_model::LogGPSParams;
    use llamp_schedgen::{build_graph, ExecGraph, GraphConfig};
    use llamp_trace::{ProgramSet, TracerConfig};
    use llamp_util::time::us;

    fn running_example(c0_us: f64) -> ExecGraph {
        let set = ProgramSet::spmd(2, |rank, b| {
            if rank == 0 {
                b.comp(us(c0_us));
                b.send(1, 4, 0);
                b.comp(us(1.0));
            } else {
                b.comp(us(0.5));
                b.recv(0, 4, 0);
                b.comp(us(1.0));
            }
        });
        build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted()
    }

    fn didactic() -> (Binding, ParamPoint) {
        let p = LogGPSParams::didactic();
        (
            Binding::uniform(&p),
            ParamPoint {
                l: p.l,
                g: p.big_g,
                o: p.o,
            },
        )
    }

    #[test]
    fn matches_single_parameter_lp_at_base_point() {
        let g = running_example(0.1);
        let (binding, base) = didactic();
        let mut multi = GraphMultiLp::build(&g, &binding);
        let mut single = GraphLp::build(&g, &binding);
        for l in [0.0, 200.0, 385.0, 500.0, 2_000.0] {
            let a = multi.predict(base.with(SweepParam::L, l)).unwrap();
            let b = single.predict(l).unwrap();
            assert!(
                (a.runtime - b.runtime).abs() < 1e-9 * (1.0 + b.runtime),
                "L={l}: {} vs {}",
                a.runtime,
                b.runtime
            );
            assert!((a.lambda_l - b.lambda).abs() < 1e-9, "L={l}");
        }
    }

    #[test]
    fn gradient_matches_direct_evaluation() {
        let set = ProgramSet::spmd(4, |rank, b| {
            b.comp(us(3.0) * (rank + 1) as f64);
            b.allreduce(512);
            b.comp(us(1.0));
            b.barrier();
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted();
        let params = LogGPSParams::cscs_testbed(4).with_o(us(1.0));
        let binding = Binding::uniform(&params);
        let mut lp = GraphMultiLp::build(&g, &binding);
        for (l, gap, o) in [
            (0.0, 0.018, 1_000.0),
            (3_000.0, 0.018, 1_000.0),
            (50_000.0, 0.5, 2_000.0),
            (3_000.0, 2.0, 500.0),
        ] {
            let p = lp.predict(ParamPoint { l, g: gap, o }).unwrap();
            let e = evaluate_multi(&g, &binding, l, gap, o);
            assert!(
                (p.runtime - e.runtime).abs() < 1e-6 * (1.0 + e.runtime),
                "({l},{gap},{o}): lp {} vs eval {}",
                p.runtime,
                e.runtime
            );
            assert!(
                (p.lambda_l - e.lambda_l).abs() < 1e-6,
                "λ_L at ({l},{gap},{o})"
            );
            assert!(
                (p.lambda_g - e.lambda_g).abs() < 1e-6,
                "λ_G at ({l},{gap},{o})"
            );
            assert!(
                (p.lambda_o - e.lambda_o).abs() < 1e-6,
                "λ_o at ({l},{gap},{o})"
            );
        }
    }

    #[test]
    fn stability_window_step_is_exactly_linear() {
        // Inside the reported per-parameter stability window the basis is
        // unchanged, so T moves exactly linearly with slope λ — the dual
        // certificate for λ_G and λ_o.
        let g = running_example(0.1);
        let (binding, base) = didactic();
        let mut lp = GraphMultiLp::build(&g, &binding);
        let at = base.with(SweepParam::L, 500.0);
        let p0 = lp.predict(at).unwrap();
        for param in SweepParam::ALL {
            let (lo, hi) = p0.feasible(param);
            let x0 = at.get(param);
            // Step halfway to the window edge (bounded to stay finite).
            let step_up = if hi.is_finite() { (hi - x0) / 2.0 } else { 1.0 };
            if step_up > 0.0 {
                let p1 = lp.predict(at.with(param, x0 + step_up)).unwrap();
                let want = p0.runtime + p0.lambda(param) * step_up;
                assert!(
                    (p1.runtime - want).abs() < 1e-7 * (1.0 + want.abs()),
                    "{param}: {} vs {}",
                    p1.runtime,
                    want
                );
            }
            let _ = lo;
            let p_back = lp.predict(at).unwrap();
            assert!((p_back.runtime - p0.runtime).abs() < 1e-9);
        }
    }

    #[test]
    fn tolerance_along_each_parameter() {
        let g = running_example(0.1);
        let (binding, base) = didactic();
        let mut lp = GraphMultiLp::build(&g, &binding);
        let at = base.with(SweepParam::L, 0.0);
        // Fig. 6: max L s.t. T ≤ 2 µs is 0.885 µs (G, o at base).
        let tol_l = lp.tolerance(SweepParam::L, at, 2_000.0).unwrap();
        assert!((tol_l - 885.0).abs() < 1e-6, "{tol_l}");
        // The prediction shape is restored afterwards.
        let p = lp.predict(at).unwrap();
        assert!((p.runtime - 1_500.0).abs() < 1e-6);
        // G tolerance: a cap above the G-free runtime admits a positive
        // per-byte gap; the runtime at the tolerance hits the cap.
        let tol_g = lp.tolerance(SweepParam::G, at, 2_000.0).unwrap();
        assert!(tol_g > 0.0);
        if tol_g.is_finite() {
            let e = evaluate_multi(&g, &binding, at.l, tol_g, at.o);
            assert!((e.runtime - 2_000.0).abs() < 1e-6 * 2_000.0);
        }
    }

    #[test]
    fn all_backends_agree_bitwise() {
        // The solver's answer and a dense-inverse solve of the same
        // model are bit-identical.
        let g = running_example(0.1);
        let (binding, base) = didactic();
        let mut lp = GraphMultiLp::build(&g, &binding);
        let p = lp
            .predict(base.with(SweepParam::L, 500.0).with(SweepParam::G, 5.0))
            .unwrap();
        let opts = llamp_lp::simplex::SimplexOptions::default();
        let dense = llamp_lp::simplex::solve_dense(lp.model(), &opts, None).unwrap();
        assert_eq!(p.runtime.to_bits(), dense.objective().to_bits());
        for (param, lambda) in [
            (SweepParam::L, p.lambda_l),
            (SweepParam::G, p.lambda_g),
            (SweepParam::O, p.lambda_o),
        ] {
            let d = dense.reduced_cost(lp.param_var(param));
            assert_eq!(lambda.to_bits(), d.to_bits(), "{param:?}");
        }
    }
}
