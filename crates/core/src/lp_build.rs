//! Execution graph → linear program (Algorithm 1) and the LP-powered
//! analyses: runtime prediction, latency sensitivity via reduced costs,
//! latency tolerance via the flipped objective (§II-D2), and the
//! critical-latency search of Algorithm 2.
//!
//! The construction follows the paper exactly: traversing the graph in
//! topological order, a vertex with one predecessor extends its
//! predecessor's affine expression, while a vertex with several
//! predecessors introduces a decision variable `y_v` and one `≥` constraint
//! per incoming edge. The network latency appears as the decision variable
//! `l`; queries pin it with a lower bound (`l ≥ L`) — never an equality —
//! which is what makes the reduced cost of `l` equal `∂T/∂L ≥ 0`.

use crate::binding::Binding;
use crate::crash::{CrashKind, CrashPlan, CrashRow, NO_BASE};
use crate::lowering::lower_walk;
use llamp_lp::{
    resolve_robust, Basis, LpModel, Objective, Relation, Solution, SolveError, SolveStats,
    SparseSimplex, VarId,
};
use llamp_schedgen::GraphView;

/// Affine running expression `base + c + m·l` for a vertex's completion
/// time while building the LP (Algorithm 1's `Tv`).
#[derive(Debug, Clone, Copy)]
struct Expr {
    base: Option<VarId>,
    c: f64,
    m: f64,
}

/// The LP form of an execution graph under a binding, paired with the
/// [`SparseSimplex`] that answers its queries. A query without warm
/// state starts from the longest-path crash basis at its own latency
/// point, which the simplex certifies without pivoting; a query after
/// another re-solves warm from the previous optimal basis.
#[derive(Debug)]
pub struct GraphLp {
    model: LpModel,
    l: VarId,
    t: VarId,
    solver: SparseSimplex,
    /// Crash *plan* (see [`GraphLp::build`]): the per-row
    /// longest-path recursion records, instantiated into a concrete
    /// crash [`Basis`] at each query's latency point.
    plan: CrashPlan,
    /// Which in-edge selection rule instantiates the plan.
    crash_kind: CrashKind,
}

/// What a single `predict` solve reports (the quantities LLAMP reads from
/// the solver).
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Predicted runtime `T` (ns).
    pub runtime: f64,
    /// Latency sensitivity `λ_L` (reduced cost of `l`).
    pub lambda: f64,
    /// Range of feasibility of the latency lower bound: within
    /// `[l_low, l_high]` the optimal basis — and hence the critical path
    /// and `λ_L` — stay unchanged (`SALBLow`/`SALBUp`).
    pub l_feasible: (f64, f64),
    /// Simplex iterations spent.
    pub iterations: u64,
}

impl Prediction {
    /// The latency ratio `ρ_L` at the given latency.
    pub fn rho(&self, l: f64) -> f64 {
        if self.runtime <= 0.0 {
            0.0
        } else {
            self.lambda * l / self.runtime
        }
    }
}

impl GraphLp {
    /// Algorithm 1: build the LP for `graph` under `binding` (raw or
    /// reduced graphs alike). The latency variable starts with bound
    /// `l ≥ 0`.
    ///
    /// Alongside the model this records a `CrashPlan`: one record per
    /// row of the longest-path recursion the LP encodes. Each query
    /// instantiates the plan *at its latency point* — by default
    /// ([`CrashKind::LongestPath`]) running the exact forward DAG
    /// longest-path pass, so every merge variable `y_v` (and the makespan
    /// `t`) is made basic on the row that defines its max at that point
    /// while all other rows keep their logical basic. By the graph's
    /// topological order that submatrix is unit lower triangular —
    /// trivially nonsingular — and evaluated at the query point the basis
    /// is primal feasible *and* dual feasible, i.e. optimal up to
    /// degeneracy: a cold solve seeded from it needs no pivots at all,
    /// only the LU factorisation and the optimality pricing pass.
    pub fn build<V: GraphView + ?Sized>(graph: &V, binding: &Binding) -> Self {
        use llamp_lp::solution::VarStatus;

        let span = llamp_obs::span("lp.lower");
        let mut model = LpModel::new(Objective::Minimize);
        let l = model.add_var("l", 0.0, f64::INFINITY, 0.0);
        let t = model.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        // Crash-plan skeleton, filled in as variables and rows appear.
        let mut col_status = vec![VarStatus::AtLower, VarStatus::FreeZero];
        let mut rows: Vec<CrashRow> = Vec::new();
        let mut has_sink = false;

        let n = graph.num_vertices();
        let mut exprs: Vec<Expr> = vec![
            Expr {
                base: None,
                c: 0.0,
                m: 0.0
            };
            n
        ];

        lower_walk(graph, binding, |low| {
            let v = low.id;
            let (vc, vm) = binding.project(low.cost);
            let e = match low.preds.len() {
                0 => Expr {
                    base: None,
                    c: vc,
                    m: vm,
                },
                1 => {
                    let (p, eb) = low.preds[0];
                    let (ec, em) = binding.project(eb);
                    let u = exprs[p as usize];
                    Expr {
                        base: u.base,
                        c: u.c + ec + vc,
                        m: u.m + em + vm,
                    }
                }
                _ => {
                    let y = model.add_var(format!("y{v}"), f64::NEG_INFINITY, f64::INFINITY, 0.0);
                    col_status.push(VarStatus::Basic);
                    for &(p, eb) in low.preds {
                        let (ec, em) = binding.project(eb);
                        let u = exprs[p as usize];
                        // y ≥ base_u + (c_u + ec) + (m_u + em)·l
                        let mut terms = vec![(y, 1.0)];
                        if let Some(b) = u.base {
                            terms.push((b, -1.0));
                        }
                        let m = u.m + em;
                        if m != 0.0 {
                            terms.push((l, -m));
                        }
                        let rhs = u.c + ec;
                        model.add_constraint(format!("in{v}_{p}"), &terms, Relation::Ge, rhs);
                        rows.push(CrashRow {
                            target: y.0,
                            base: u.base.map_or(NO_BASE, |b| b.0),
                            c: rhs,
                            ml: m,
                            mg: 0.0,
                            mo: 0.0,
                        });
                    }
                    Expr {
                        base: Some(y),
                        c: vc,
                        m: vm,
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
                if ex.m != 0.0 {
                    terms.push((l, -ex.m));
                }
                model.add_constraint(format!("sink{v}"), &terms, Relation::Ge, ex.c);
                rows.push(CrashRow {
                    target: t.0,
                    base: ex.base.map_or(NO_BASE, |b| b.0),
                    c: ex.c,
                    ml: ex.m,
                    mg: 0.0,
                    mo: 0.0,
                });
                has_sink = true;
            }
        });

        // `t` is basic on its defining sink row (a sink always exists in a
        // nonempty DAG; stay free-at-zero otherwise).
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
            t,
            solver: SparseSimplex::default(),
            plan,
            crash_kind: CrashKind::default(),
        };
        if llamp_obs::is_enabled() {
            span.field_str("shape", "single");
            span.field_u64("rows", lp.model.num_constraints() as u64);
            span.field_u64("cols", lp.model.num_vars() as u64);
        }
        lp
    }

    /// The underlying model (for statistics or custom solves).
    pub fn model(&self) -> &LpModel {
        &self.model
    }

    /// Drop the warm state accumulated from previous queries: the next
    /// query seeds the crash basis at its own latency point, exactly as a
    /// freshly built `GraphLp` would.
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

    /// Instantiate the crash basis at a latency point (exposed for
    /// conformance tests and benchmarks; queries do this internally).
    pub fn crash_basis(&self, l_value: f64) -> Basis {
        self.plan.basis_at(self.crash_kind, l_value, 0.0, 0.0)
    }

    /// The crash for [`GraphLp::tolerance`]: the longest-path basis at
    /// the answer `L*` itself, with `l` basic and `t` at its cap (see
    /// `CrashPlan::tolerance_basis`). Falls back to the `min t` crash at
    /// the floor where the flipped LP has no finite optimum, and under
    /// [`CrashKind::Topological`], which does not model the flip.
    fn tolerance_crash_basis(&self, l_floor: f64, max_runtime: f64) -> Basis {
        let flipped = match self.crash_kind {
            CrashKind::LongestPath => {
                self.plan
                    .tolerance_basis(0, [l_floor, 0.0, 0.0], max_runtime)
            }
            CrashKind::Topological => None,
        };
        flipped.unwrap_or_else(|| self.crash_basis(l_floor))
    }

    /// Seed `crash` if the solver holds no warm state (fresh build or
    /// after [`GraphLp::reset_backend`]), and hand it back for the
    /// robust-resolve fallback ladder.
    fn arm(&mut self, crash: Basis) -> Basis {
        if self.solver.warm_basis().is_none() {
            self.solver.seed(&crash);
        }
        crash
    }

    /// Cumulative solver-effort counters across every query this instance
    /// has answered (see [`SolveStats`]).
    pub fn solver_stats(&self) -> SolveStats {
        self.solver.stats()
    }

    /// The basis the solver would warm-start its next query from.
    pub fn warm_basis(&self) -> Option<Basis> {
        self.solver.warm_basis().cloned()
    }

    /// Re-seed the solver's warm state from an explicit basis (e.g. run
    /// several related queries from one reference optimum instead of
    /// chaining them).
    pub fn seed_backend(&mut self, basis: &Basis) {
        self.solver.seed(basis);
    }

    /// Latency decision variable.
    pub fn l_var(&self) -> VarId {
        self.l
    }

    /// Makespan decision variable.
    pub fn t_var(&self) -> VarId {
        self.t
    }

    /// Solve `min t` with `l ≥ l_value` and report runtime, `λ_L` and the
    /// basis-stability range of `L`.
    pub fn predict(&mut self, l_value: f64) -> Result<Prediction, SolveError> {
        self.model.set_var_lb(self.l, l_value);
        self.model.set_sense(Objective::Minimize);
        self.model.set_objective(&[(self.t, 1.0)]);
        let crash = self.arm(self.crash_basis(l_value));
        let sol = resolve_robust(&mut self.solver, &self.model, Some(&crash))?;
        Ok(Prediction {
            runtime: sol.objective(),
            lambda: sol.reduced_cost(self.l),
            l_feasible: sol.lb_range(self.l),
            iterations: sol.iterations(),
        })
    }

    /// Solve `min t` and hand back the raw solution (for tight-constraint /
    /// critical-path inspection).
    pub fn solve_raw(&mut self, l_value: f64) -> Result<Solution, SolveError> {
        self.model.set_var_lb(self.l, l_value);
        self.model.set_sense(Objective::Minimize);
        self.model.set_objective(&[(self.t, 1.0)]);
        let crash = self.arm(self.crash_basis(l_value));
        resolve_robust(&mut self.solver, &self.model, Some(&crash))
    }

    /// Latency tolerance (§II-D2): maximise `l` subject to
    /// `t ≤ max_runtime`. Returns `f64::INFINITY` when the runtime never
    /// exceeds the cap (fully latency-hiding program) and an `Err` when
    /// even `l = l_floor` violates it.
    ///
    /// Without warm state the solve starts from the longest-path basis
    /// at the answer itself (`CrashPlan::tolerance_basis`), which is
    /// optimal up to ties, so the simplex only certifies it.
    pub fn tolerance(&mut self, l_floor: f64, max_runtime: f64) -> Result<f64, SolveError> {
        self.model.set_var_lb(self.l, l_floor);
        self.model.set_var_ub(self.t, max_runtime);
        self.model.set_sense(Objective::Maximize);
        self.model.set_objective(&[(self.l, 1.0)]);
        let crash = self.arm(self.tolerance_crash_basis(l_floor, max_runtime));
        let out = match resolve_robust(&mut self.solver, &self.model, Some(&crash)) {
            Ok(sol) => Ok(sol.value(self.l)),
            Err(SolveError::Unbounded) => Ok(f64::INFINITY),
            Err(e) => Err(e),
        };
        // Restore the prediction shape.
        self.model.set_var_ub(self.t, f64::INFINITY);
        self.model.set_sense(Objective::Minimize);
        self.model.set_objective(&[(self.t, 1.0)]);
        out
    }

    /// Algorithm 2: critical latencies within `[l_min, l_max]`, walking
    /// basis-stability ranges from the top of the interval downward. `step`
    /// caps the per-iteration progress (resolution), `eps` nudges the bound
    /// strictly past a discovered breakpoint.
    pub fn critical_latencies(
        &mut self,
        l_min: f64,
        l_max: f64,
        step: f64,
        eps: f64,
    ) -> Result<Vec<f64>, SolveError> {
        assert!(l_min <= l_max && step > 0.0 && eps > 0.0);
        let mut lcs: Vec<f64> = Vec::new();
        let mut l = l_max;
        let mut lambda: Option<f64> = None;
        loop {
            let pred = self.predict(l)?;
            let l_fl = pred.l_feasible.0;
            match lambda {
                Some(prev) if (pred.lambda - prev).abs() <= 1e-9 => {}
                _ => {
                    // λ changed (or first solve): the low end of the new
                    // basis-stability region is a critical latency.
                    if l_fl.is_finite() && l_fl >= l_min && l_fl <= l_max {
                        lcs.push(l_fl);
                    }
                    lambda = Some(pred.lambda);
                }
            }
            if l_fl < l_min || l_fl == f64::NEG_INFINITY {
                break;
            }
            let next = (l - step).min(l_fl - eps);
            if next < l_min {
                break;
            }
            l = next;
        }
        lcs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        lcs.dedup_by(|a, b| (*a - *b).abs() < eps);
        Ok(lcs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::Binding;
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
        build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager()).unwrap()
    }

    fn didactic() -> Binding {
        Binding::uniform(&LogGPSParams::didactic())
    }

    #[test]
    fn fig5_predict_at_half_microsecond() {
        // Fig. 5: l ≥ 0.5 µs ⇒ t = 1.615 µs, λ_L = 1, basis stable down to
        // the critical latency 0.385 µs.
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let p = lp.predict(500.0).unwrap();
        assert!((p.runtime - 1_615.0).abs() < 1e-6, "{}", p.runtime);
        assert!((p.lambda - 1.0).abs() < 1e-9);
        assert!((p.l_feasible.0 - 385.0).abs() < 1e-6, "{:?}", p.l_feasible);
    }

    #[test]
    fn below_critical_latency_lambda_zero() {
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let p = lp.predict(200.0).unwrap();
        assert!((p.runtime - 1_500.0).abs() < 1e-6);
        assert!(p.lambda.abs() < 1e-9);
    }

    #[test]
    fn fig6_tolerance() {
        // Fig. 6: max l s.t. t ≤ 2 µs ⇒ 0.885 µs.
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let tol = lp.tolerance(0.0, 2_000.0).unwrap();
        assert!((tol - 885.0).abs() < 1e-6, "{tol}");
    }

    #[test]
    fn fresh_tolerance_certifies_the_flipped_crash() {
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let tol = lp.tolerance(0.0, 2_000.0).unwrap();
        assert!((tol - 885.0).abs() < 1e-6, "{tol}");
        let st = lp.solver_stats();
        assert_eq!((st.phase1_iterations, st.pivots), (0, 0), "{st:?}");
    }

    #[test]
    fn latency_free_tolerance_is_infinite() {
        let set = ProgramSet::spmd(2, |_, b| {
            b.comp(us(1.0));
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted();
        let mut lp = GraphLp::build(&g, &didactic());
        assert_eq!(lp.tolerance(0.0, 2_000.0).unwrap(), f64::INFINITY);
    }

    #[test]
    fn tolerance_cap_at_a_breakpoint_is_exact() {
        // T = 1.5 µs up to the critical latency 0.385 µs, then rises
        // with slope 1: a cap of exactly 1.5 µs ties at the breakpoint.
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let tol = lp.tolerance(0.0, 1_500.0).unwrap();
        assert!((tol - 385.0).abs() < 1e-9 * 385.0, "{tol}");
    }

    #[test]
    fn tolerance_restores_prediction_state() {
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let before = lp.predict(500.0).unwrap();
        let _ = lp.tolerance(0.0, 2_000.0).unwrap();
        let after = lp.predict(500.0).unwrap();
        assert!((before.runtime - after.runtime).abs() < 1e-9);
        assert!((before.lambda - after.lambda).abs() < 1e-9);
    }

    #[test]
    fn infeasible_tolerance_reported() {
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        // Cap below the zero-latency runtime 1.5 µs.
        assert!(lp.tolerance(0.0, 1_000.0).is_err());
    }

    #[test]
    fn fig16_critical_latency_search() {
        // Algorithm 2 on the running example over [0.2, 0.5] µs finds the
        // single critical latency 0.385 µs.
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let lcs = lp.critical_latencies(200.0, 500.0, 100.0, 0.01).unwrap();
        assert_eq!(lcs.len(), 1, "{lcs:?}");
        assert!((lcs[0] - 385.0).abs() < 1e-6);
    }

    #[test]
    fn all_backends_agree_on_fig5() {
        // The solver's answer and a dense-inverse solve of the same
        // model are bit-identical.
        let g = running_example(0.1);
        let mut lp = GraphLp::build(&g.contracted(), &didactic());
        let p = lp.predict(500.0).unwrap();
        assert!((p.runtime - 1_615.0).abs() < 1e-6, "{}", p.runtime);
        assert!((p.lambda - 1.0).abs() < 1e-9);
        let opts = llamp_lp::simplex::SimplexOptions::default();
        let dense = llamp_lp::simplex::solve_dense(lp.model(), &opts, None).unwrap();
        assert_eq!(p.runtime.to_bits(), dense.objective().to_bits());
        assert_eq!(p.lambda.to_bits(), dense.reduced_cost(lp.l_var()).to_bits());
    }

    #[test]
    fn warm_sweep_matches_cold_solves_bitwise() {
        // A descending latency sweep chained through one instance must
        // report exactly what independent crash-started solves do.
        let g = running_example(0.1).contracted();
        let mut warm = GraphLp::build(&g, &didactic());
        for i in (0..=20).rev() {
            let l = 50.0 * i as f64;
            let p = warm.predict(l).unwrap();
            let mut cold = GraphLp::build(&g, &didactic());
            let q = cold.predict(l).unwrap();
            assert_eq!(p.runtime.to_bits(), q.runtime.to_bits(), "L={l}");
            assert_eq!(p.lambda.to_bits(), q.lambda.to_bits(), "L={l}");
        }
    }

    #[test]
    fn lp_agrees_with_graph_evaluation() {
        let set = ProgramSet::spmd(4, |rank, b| {
            b.comp(us(3.0) * (rank + 1) as f64);
            b.allreduce(512);
            b.comp(us(1.0));
            b.barrier();
            if rank == 0 {
                b.send(3, 2048, 9);
            } else if rank == 3 {
                b.recv(0, 2048, 9);
            }
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::eager())
            .unwrap()
            .contracted();
        let params = LogGPSParams::cscs_testbed(4).with_o(us(1.0));
        let binding = Binding::uniform(&params);
        let mut lp = GraphLp::build(&g, &binding);
        for l in [0.0, us(1.0), us(10.0), us(100.0)] {
            let p = lp.predict(l).unwrap();
            let e = crate::eval::evaluate(&g, &binding, l);
            assert!(
                (p.runtime - e.runtime).abs() < 1e-6 * (1.0 + e.runtime),
                "L={l}: lp {} vs eval {}",
                p.runtime,
                e.runtime
            );
            assert!(
                (p.lambda - e.lambda).abs() < 1e-6,
                "L={l}: λ lp {} vs eval {}",
                p.lambda,
                e.lambda
            );
        }
    }

    #[test]
    fn rendezvous_lp_matches_eval() {
        let bytes = 300 * 1024u64;
        let set = ProgramSet::spmd(2, |rank, b| {
            if rank == 0 {
                b.comp(us(2.0));
                b.send(1, bytes, 0);
            } else {
                b.recv(0, bytes, 0);
                b.comp(us(1.0));
            }
        });
        let g = build_graph(&set.trace(&TracerConfig::default()), &GraphConfig::paper())
            .unwrap()
            .contracted();
        let params = LogGPSParams::cscs_testbed(2).with_o(us(1.0));
        let binding = Binding::uniform(&params);
        let mut lp = GraphLp::build(&g, &binding);
        for l in [0.0, us(5.0), us(50.0)] {
            let p = lp.predict(l).unwrap();
            let e = crate::eval::evaluate(&g, &binding, l);
            assert!(
                (p.runtime - e.runtime).abs() < 1e-6 * (1.0 + e.runtime),
                "L={l}: {} vs {}",
                p.runtime,
                e.runtime
            );
            // Rendezvous: 4 latency traversals on the critical path (REQ +
            // 3 in the completion edge).
            assert!((p.lambda - e.lambda).abs() < 1e-6);
        }
    }
}
