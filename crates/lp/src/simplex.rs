//! Bounded-variable primal simplex, generic over the basis factorisation,
//! built around a *hypersparse* hot loop.
//!
//! Design notes (what a reader needs to audit the implementation):
//!
//! * **Computational form.** The model's `m` range rows `lb ≤ aᵀx ≤ ub` are
//!   rewritten as equalities `aᵀx − s = 0` with one *logical* (slack)
//!   variable `s ∈ [lb, ub]` per row, so the working system is
//!   `A_ext · (x, s) = 0` with box bounds on every column. The right-hand
//!   side being identically zero makes the initial all-logical basis
//!   (`B = −I`) trivially factorised.
//! * **Phase 1 without artificials.** If the initial basis is primal
//!   infeasible we minimise the sum of bound violations of basic variables
//!   using the standard piecewise-linear phase-1 costs (−1 below the lower
//!   bound, +1 above the upper bound). Infeasible basic variables block the
//!   ratio test at the bound they are approaching, which monotonically
//!   shrinks total infeasibility.
//! * **Pricing.** The reduced-cost vector `d` is maintained
//!   *incrementally*: after each basis exchange it is updated from the
//!   pivot row (`d ← d − θ_d·α_r`, with `α_r` scattered from a sparse
//!   BTRAN of the pivot row), and in phase 1 the cost flips of basic
//!   variables crossing their bounds are folded in through one batched
//!   sparse BTRAN per iteration. Selection is candidate-list partial
//!   pricing driven by Devex reference weights (score `d²/w`): a full
//!   scan refills the list periodically (and proves optimality), cheap
//!   candidate scans serve the iterations in between. Ties (within a
//!   relative epsilon) break toward the lowest column index, so the pivot
//!   sequence — and therefore the final basis — is reproducible across
//!   the dense and sparse factorisation paths despite their different
//!   rounding. A Bland fallback (least-index, after a run of degenerate
//!   pivots) guarantees termination; the periodic resynchronisation
//!   recomputes `d` from scratch so incremental drift stays at rounding
//!   level (observable via [`SolveStats::max_resync_drift`]).
//! * **Ratio test.** Two-pass Harris over the *nonzeros* of the FTRAN
//!   result: pass 1 computes the largest step every basic variable
//!   tolerates with its bound expanded by the feasibility tolerance;
//!   pass 2 picks the largest-magnitude pivot among rows blocking within
//!   that step, breaking near-ties toward the lowest basis position.
//! * **Factorisation.** The basis is held behind the internal
//!   `BasisFactor` trait: `SparseLu` (Markowitz-ordered sparse LU +
//!   product-form eta file, the solver's path) or `DenseInv` (dense
//!   inverse + dense eta updates, the cross-validation reference and
//!   the last fallback rung). Refactoring
//!   is periodic *and* triggered early when the eta file outgrows the
//!   fresh factorisation. All hot-path linear algebra runs through
//!   caller-owned [`IndexedVec`] workspaces: the FTRAN / BTRAN / pricing
//!   path performs **no heap allocation**.
//! * **Warm starts.** A solved model exposes its final [`Basis`];
//!   [`solve_dense`]/[`solve_sparse`] accept one and start from it instead
//!   of the all-logical basis. After a bound tightening (Algorithm 2's
//!   `l ≥ L` step) the previous basis is typically a handful of pivots —
//!   often zero — from the new optimum.
//! * **Canonical extraction.** Whatever path produced the final basis, the
//!   reported [`Solution`] is recomputed from scratch off a canonical
//!   sparse LU of the basis columns in ascending column order. Solutions
//!   are therefore a pure function of `(model, final basis)`: a cold dense
//!   solve, a cold sparse solve and a warm re-solve that land on the same
//!   basis report bit-identical numbers — the property the engine's
//!   byte-identity contract (across thread counts and cache states)
//!   rests on.

// Dense linear-algebra kernels index several same-length buffers per loop;
// iterator zips would obscure the math without changing codegen.
#![allow(clippy::needless_range_loop)]

use crate::error::{Distress, SolveError};
use crate::factor::{BasisFactor, ColsView, DenseInv, SparseLu};
use crate::model::{LpModel, Objective};
use crate::solution::{Basis, Solution, SolveStats, VarStatus};
use llamp_util::IndexedVec;

const INF: f64 = f64::INFINITY;

/// Relative epsilon under which two pricing scores count as tied (ties
/// break toward the lowest column index). Wide enough to swallow the
/// rounding gap between the dense-inverse and sparse-LU factorisations —
/// mathematically tied candidates must resolve identically in both, or
/// their pivot paths (and degenerate final bases) drift apart.
const PRICE_TIE_REL: f64 = 1e-6;
/// Relative epsilon under which two ratio-test pivot magnitudes count as
/// tied (ties break toward the lowest basis position).
const RATIO_TIE_REL: f64 = 1e-6;
/// Candidate-list refill cadence: a full pricing scan at least every this
/// many iterations, so stale lists cannot starve a strongly improving
/// column for long. Keyed to the iteration counter (identical across
/// factorisation backends) to keep pivot sequences reproducible.
const PARTIAL_REFILL_EVERY: u64 = 16;
/// Devex reference-framework reset threshold: when the leaving variable's
/// new weight estimate exceeds this, the weights have degraded and the
/// framework restarts from 1.
const DEVEX_RESET: f64 = 1e8;
/// Minimum pivots between eta-growth-triggered refactorisations, so a
/// dense burst cannot thrash the factoriser.
const MIN_PIVOTS_BEFORE_ETA_REFACTOR: u64 = 16;

/// Tunable solver parameters. The defaults suit the well-scaled (±1
/// coefficient) models LLAMP generates.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Primal feasibility tolerance (absolute, on variable bounds).
    pub feas_tol: f64,
    /// Dual feasibility / optimality tolerance (on reduced costs).
    pub opt_tol: f64,
    /// Minimum magnitude accepted for a pivot element.
    pub pivot_tol: f64,
    /// Hard iteration cap; `0` selects `20_000 + 50·(m+n)`.
    pub max_iterations: u64,
    /// Refactorise the basis every this many pivots (an eta file that
    /// outgrows the fresh factorisation triggers earlier).
    pub refactor_every: u64,
    /// Switch to Bland's rule after this many consecutive degenerate pivots.
    pub bland_after: u32,
    /// Wall-clock budget in milliseconds; `0` disables. Checked every 64
    /// iterations, so overshoot is bounded by 64 iteration times. A
    /// tripped budget returns [`SolveError::TimeLimit`] — recoverable, so
    /// the fallback ladder may still answer (off by default: wall-clock
    /// aborts are inherently machine-dependent).
    pub time_limit_ms: u64,
    /// Stall budget: abort with [`SolveError::Stalled`] after this many
    /// *consecutive* degenerate (zero-step) iterations; `0` disables.
    /// Generously above `bland_after`, this only fires when even Bland's
    /// anti-cycling rule is grinding without progress.
    pub stall_iters: u64,
    /// Numerical-distress tripwire on incremental-pricing drift: when a
    /// from-scratch reduced-cost resync disagrees with the incremental
    /// values by more than this relative gap, the solve aborts with
    /// [`SolveError::Distress`] rather than risk certifying a wrong
    /// optimum. `0.0` disables. The default `1e-6` sits ~8 orders of
    /// magnitude above the drift measured on LLAMP's models (~1e-14).
    pub drift_limit: f64,
    /// Distress tripwire on repeated Bland engagements: abort when one
    /// solve has to *enter* Bland mode more than this many separate
    /// times; `0` disables (the default — degenerate-but-finite models
    /// legitimately re-engage Bland).
    pub bland_streak_limit: u32,
    /// Distress tripwire on singular refactorisations: abort after this
    /// many refactorisations come back singular within one solve; `0`
    /// disables (the default — a singular refactorisation falls back to
    /// the eta-updated factor, which is usually fine once).
    pub singular_limit: u32,
    /// Reuse a previous solve's LU factorisation when the incoming warm
    /// basis and constraint matrix are bit-identical to the one it was
    /// built for, and hand the final factorisation to the extracted
    /// solution instead of refactorising (on by default). This only
    /// skips redundant factorisations of identical matrices, so the
    /// solution bytes are unchanged; the switch exists so tests can
    /// certify that claim by diffing both paths.
    pub lu_reuse: bool,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            feas_tol: 1e-7,
            opt_tol: 1e-7,
            pivot_tol: 1e-9,
            max_iterations: 0,
            refactor_every: 256,
            bland_after: 64,
            time_limit_ms: 0,
            stall_iters: 0,
            drift_limit: 1e-6,
            bland_streak_limit: 0,
            singular_limit: 0,
            lu_reuse: true,
        }
    }
}

/// Retained basis data enabling post-solve ranging queries. Holds the
/// canonical sparse LU built at extraction, so ranging is identical no
/// matter which factorisation ran the pivots.
#[derive(Debug, Clone)]
pub struct RangingData {
    lu: SparseLu,
    /// Column sparse structure of the extended matrix (structural+logical).
    col_start: Vec<usize>,
    col_rows: Vec<u32>,
    col_vals: Vec<f64>,
    /// Basic column per row position (ascending column order).
    basis: Vec<usize>,
    /// Values of all extended columns at the optimum.
    x: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    pivot_tol: f64,
    /// Whether `lu` came from the standard-threshold factorisation (or a
    /// solver takeover of one). The min-pivot salvage path produces an LU
    /// that `refactor` would reject, which must never seed a later solve.
    strict: bool,
}

impl RangingData {
    /// Range of the lower bound of extended column `j` keeping the basis
    /// optimal (primal feasible; dual feasibility is unaffected by bound
    /// shifts).
    pub(crate) fn lb_range(&self, j: usize, status: VarStatus) -> (f64, f64) {
        match status {
            VarStatus::Basic | VarStatus::FreeZero => (f64::NEG_INFINITY, self.x[j]),
            VarStatus::AtUpper => (f64::NEG_INFINITY, self.ub[j]),
            VarStatus::AtLower => {
                let (dn, up) = self.at_lower_step_range(j);
                (self.x[j] + dn, self.x[j] + up)
            }
        }
    }

    /// Feasible step window `[t_lo, t_hi]` (containing 0) for moving the
    /// lower bound of the nonbasic-at-lower column `j` by `t`: `x_j`
    /// rides its bound and the basic variables move by `−t·B⁻¹a_j`, so
    /// the window ends where the first of them (or `x_j`'s own upper
    /// bound) is reached.
    fn at_lower_step_range(&self, j: usize) -> (f64, f64) {
        let mut dn = f64::NEG_INFINITY;
        let mut up = INF;
        if self.ub[j].is_finite() {
            up = self.ub[j] - self.x[j];
        }
        for (i, &wi) in self.ftran(j).iter().enumerate() {
            if wi.abs() <= self.pivot_tol {
                continue;
            }
            let b = self.basis[i];
            let xb = self.x[b];
            let (lbi, ubi) = (self.lb[b], self.ub[b]);
            if wi > 0.0 {
                // x_b decreases as t grows.
                if lbi.is_finite() {
                    up = up.min((xb - lbi) / wi);
                }
                if ubi.is_finite() {
                    dn = dn.max((xb - ubi) / wi);
                }
            } else {
                // x_b increases as t grows.
                if ubi.is_finite() {
                    up = up.min((xb - ubi) / wi);
                }
                if lbi.is_finite() {
                    dn = dn.max((xb - lbi) / wi);
                }
            }
        }
        (dn, up)
    }

    fn ftran(&self, j: usize) -> Vec<f64> {
        let view = ColsView {
            start: &self.col_start,
            rows: &self.col_rows,
            vals: &self.col_vals,
        };
        self.lu.ftran_col_alloc(view, j)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NbStatus {
    Basic,
    Lower,
    Upper,
    FreeZero,
}

impl NbStatus {
    fn to_var_status(self) -> VarStatus {
        match self {
            NbStatus::Basic => VarStatus::Basic,
            NbStatus::Lower => VarStatus::AtLower,
            NbStatus::Upper => VarStatus::AtUpper,
            NbStatus::FreeZero => VarStatus::FreeZero,
        }
    }
}

struct Core<F: BasisFactor> {
    m: usize,
    n_struct: usize,
    n_total: usize,
    col_start: Vec<usize>,
    col_rows: Vec<u32>,
    col_vals: Vec<f64>,
    /// Row-wise mirror of the structural columns (CSR), for scattering
    /// pivot rows: `α_j = Σ_i ρ_i A_ij` costs only the nonzeros of the
    /// rows in `supp(ρ)`. Logical columns are implicit (−1 on the
    /// diagonal).
    row_start: Vec<usize>,
    row_cols: Vec<u32>,
    row_vals: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Internal costs (always a minimisation).
    cost: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<i32>,
    status: Vec<NbStatus>,
    x: Vec<f64>,
    factor: F,
    iterations: u64,
    pivots_since_refactor: u64,
    /// Whether the requested warm basis was actually installed (a
    /// dimension mismatch or singular basis silently falls back to the
    /// cold start).
    warm_installed: bool,
    /// Whether `factor` is a pristine factorisation of the current basis
    /// (no eta updates absorbed since the last refactorisation/adoption).
    /// Only such factors may be handed to the extracted solution in place
    /// of the canonical re-factorisation.
    factor_fresh: bool,
    // --- incremental pricing state ---
    /// Reduced costs of all columns under the current phase's objective,
    /// maintained incrementally and resynchronised at refactorisations.
    d: Vec<f64>,
    /// Devex reference weights.
    devex: Vec<f64>,
    /// Candidate list (ascending column order).
    cand: Vec<u32>,
    /// Phase-1 cost of each basic position (−1/0/+1).
    cb1: Vec<f64>,
    /// Number of (scaled-tolerance) infeasible basic positions.
    infeas_count: usize,
    /// Whether the current Bland streak has already forced a resync.
    bland_active: bool,
    /// How many separate times this solve has *entered* Bland mode
    /// (feeds the `bland_streak_limit` distress tripwire).
    bland_engagements: u32,
    /// Singular refactorisations within this solve (feeds the
    /// `singular_limit` distress tripwire).
    singular_refactors: u32,
    /// Distress detected off the main loop (drift recorded inside a
    /// resync); the iteration loop aborts on it at the next check.
    distressed: Option<Distress>,
    /// Wall-clock cutoff from `SimplexOptions::time_limit_ms`.
    deadline: Option<std::time::Instant>,
    // --- solver-owned workspaces (no per-iteration allocation) ---
    w: IndexedVec,
    rho: IndexedVec,
    alpha: IndexedVec,
    delta: IndexedVec,
    cb_buf: Vec<f64>,
    y_buf: Vec<f64>,
    stats: SolveStats,
    opts: SimplexOptions,
}

/// Solve `model` with the default (sparse LU) factorisation, returning the
/// optimal [`Solution`] or the terminal [`SolveError`] explaining why
/// none exists.
pub fn solve(model: &LpModel, opts: &SimplexOptions) -> Result<Solution, SolveError> {
    solve_sparse(model, opts, None)
}

/// Solve with the dense basis inverse (the cross-validation reference
/// path). `warm` optionally seeds the starting basis.
pub fn solve_dense(
    model: &LpModel,
    opts: &SimplexOptions,
    warm: Option<&Basis>,
) -> Result<Solution, SolveError> {
    traced_solve("dense", model, warm, || {
        solve_generic::<DenseInv>(model, opts, warm, None)
    })
}

/// Solve with the sparse LU / eta-file factorisation (the at-scale path).
/// `warm` optionally seeds the starting basis.
pub fn solve_sparse(
    model: &LpModel,
    opts: &SimplexOptions,
    warm: Option<&Basis>,
) -> Result<Solution, SolveError> {
    solve_sparse_reusing(model, opts, warm, None)
}

/// [`solve_sparse`] with an optional previous solution's [`RangingData`]:
/// when the warm basis and constraint matrix are bit-identical to the
/// ones the retained LU was built for, installation adopts that LU
/// instead of refactorising. Purely a factorisation shortcut — the
/// numbers are unchanged (the adopted LU is the very factorisation a
/// fresh refactor of the same bits would produce).
pub fn solve_sparse_reusing(
    model: &LpModel,
    opts: &SimplexOptions,
    warm: Option<&Basis>,
    reuse: Option<&RangingData>,
) -> Result<Solution, SolveError> {
    traced_solve("sparse", model, warm, || {
        solve_generic::<SparseLu>(model, opts, warm, reuse)
    })
}

/// Wrap one solve in an `lp.solve` obs span, folding the per-solve
/// [`SolveStats`] into span fields at close. Telemetry stays strictly
/// out-of-band: the span neither observes nor perturbs the numerical
/// path, and with recording off this is a single relaxed atomic load
/// (no allocation — certified by `tests/alloc_count.rs`).
fn traced_solve(
    factor: &str,
    model: &LpModel,
    warm: Option<&Basis>,
    f: impl FnOnce() -> Result<Solution, SolveError>,
) -> Result<Solution, SolveError> {
    let g = llamp_obs::span("lp.solve");
    let out = f();
    if llamp_obs::is_enabled() {
        g.field_str("factor", factor);
        g.field_u64("rows", model.num_constraints() as u64);
        g.field_u64("cols", model.num_vars() as u64);
        g.field_u64("warm", u64::from(warm.is_some()));
        match &out {
            Ok(sol) => {
                let s = sol.stats();
                g.field_u64("iterations", s.iterations);
                g.field_u64("phase1_iterations", s.phase1_iterations);
                g.field_u64("pivots", s.pivots);
                g.field_u64("bound_flips", s.bound_flips);
                g.field_u64("refactorisations", s.refactorizations);
                g.field_f64("max_resync_drift", s.max_resync_drift);
            }
            Err(status) => g.field_str("status", &format!("{status:?}")),
        }
    }
    out
}

/// Build a [`Core`] (installing `warm` when it fits), drive it through
/// the primal algorithm (phase 1 if the starting basis is infeasible,
/// then phase 2) and extract the canonical solution.
fn solve_generic<F: BasisFactor>(
    model: &LpModel,
    opts: &SimplexOptions,
    warm: Option<&Basis>,
    reuse: Option<&RangingData>,
) -> Result<Solution, SolveError> {
    let mut core: Core<F> = Core::build_reusing(model, opts.clone(), warm, reuse);
    core.arm_deadline();
    let max_iters = core.iteration_cap();

    // Phase 1: restore primal feasibility if the starting basis violates
    // row bounds.
    if !core.is_primal_feasible(1.0) {
        match core.iterate(true, max_iters) {
            PhaseOutcome::Done => {
                if !core.is_primal_feasible(10.0) {
                    return Err(SolveError::Infeasible);
                }
            }
            PhaseOutcome::Unbounded => {
                // Phase-1 objective is bounded below by zero; an unbounded
                // ray here signals numerical failure, treated as infeasible.
                return Err(SolveError::Infeasible);
            }
            PhaseOutcome::Abort(e) => return Err(e),
        }
    }

    // Phase 2: optimise the true objective.
    match core.iterate(false, max_iters) {
        PhaseOutcome::Done => {}
        PhaseOutcome::Unbounded => return Err(SolveError::Unbounded),
        PhaseOutcome::Abort(e) => return Err(e),
    }
    Ok(core.extract(model))
}

/// Bound-violation tolerance, scaled by the bound's magnitude. Feasibility
/// must be relative on these models: grid latencies are nanoseconds, so
/// basic values reach `1e9` where an absolute `1e-7` sits inside the
/// factorisation's recompute noise — and a noise-triggered phase 1 in one
/// factorisation backend but not the other would break cross-backend
/// determinism.
#[inline]
fn viol_tol(bound: f64, feas: f64) -> f64 {
    feas * (1.0 + bound.abs())
}

enum PhaseOutcome {
    Done,
    Unbounded,
    /// A budget or tripwire aborted the phase with this typed error
    /// (iteration/time/stall budget, numerical distress, injected fault).
    Abort(SolveError),
}

impl<F: BasisFactor> Core<F> {
    /// Effective iteration budget (`max_iterations`, or the size-scaled
    /// default when 0).
    fn iteration_cap(&self) -> u64 {
        if self.opts.max_iterations == 0 {
            20_000 + 50 * (self.m as u64 + self.n_total as u64)
        } else {
            self.opts.max_iterations
        }
    }

    /// Start the wall clock for `SimplexOptions::time_limit_ms` (no-op
    /// when the budget is disabled).
    fn arm_deadline(&mut self) {
        self.deadline = (self.opts.time_limit_ms > 0).then(|| {
            std::time::Instant::now() + std::time::Duration::from_millis(self.opts.time_limit_ms)
        });
    }

    /// Build a solver core for `model`, optionally installing a warm
    /// basis, and optionally adopting a retained [`RangingData`]'s LU at
    /// installation (see [`solve_sparse_reusing`]).
    fn build_reusing(
        model: &LpModel,
        opts: SimplexOptions,
        warm: Option<&Basis>,
        reuse: Option<&RangingData>,
    ) -> Self {
        let m = model.rows.len();
        let n_struct = model.cols.len();
        let n_total = n_struct + m;
        let sign = match model.sense {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };

        // Column-wise extended matrix: structural columns from the rows,
        // then one logical column (+1 at its row; `aᵀx − s = 0` i.e. the
        // logical coefficient is −1, folded in here).
        let mut counts = vec![0usize; n_total];
        for row in &model.rows {
            for &(v, _) in &row.terms {
                counts[v as usize] += 1;
            }
        }
        for i in 0..m {
            counts[n_struct + i] = 1;
        }
        let mut col_start = vec![0usize; n_total + 1];
        for j in 0..n_total {
            col_start[j + 1] = col_start[j] + counts[j];
        }
        let nnz = col_start[n_total];
        let mut col_rows = vec![0u32; nnz];
        let mut col_vals = vec![0.0f64; nnz];
        let mut fill = col_start.clone();
        for (i, row) in model.rows.iter().enumerate() {
            for &(v, c) in &row.terms {
                let p = fill[v as usize];
                col_rows[p] = i as u32;
                col_vals[p] = c;
                fill[v as usize] += 1;
            }
        }
        for i in 0..m {
            let p = fill[n_struct + i];
            col_rows[p] = i as u32;
            col_vals[p] = -1.0;
            fill[n_struct + i] += 1;
        }

        // Row-wise mirror of the structural part (logicals stay implicit).
        let struct_nnz: usize = model.rows.iter().map(|r| r.terms.len()).sum();
        let mut row_start = vec![0usize; m + 1];
        for (i, row) in model.rows.iter().enumerate() {
            row_start[i + 1] = row_start[i] + row.terms.len();
        }
        let mut row_cols = vec![0u32; struct_nnz];
        let mut row_vals = vec![0.0f64; struct_nnz];
        for (i, row) in model.rows.iter().enumerate() {
            for (p, &(v, c)) in (row_start[i]..).zip(row.terms.iter()) {
                row_cols[p] = v;
                row_vals[p] = c;
            }
        }

        let mut lb = Vec::with_capacity(n_total);
        let mut ub = Vec::with_capacity(n_total);
        let mut cost = Vec::with_capacity(n_total);
        for c in &model.cols {
            lb.push(c.lb);
            ub.push(c.ub);
            cost.push(sign * c.obj);
        }
        for r in &model.rows {
            lb.push(r.lb);
            ub.push(r.ub);
            cost.push(0.0);
        }

        let mut core = Self {
            m,
            n_struct,
            n_total,
            col_start,
            col_rows,
            col_vals,
            row_start,
            row_cols,
            row_vals,
            lb,
            ub,
            cost,
            basis: Vec::new(),
            in_basis: vec![-1i32; n_total],
            status: vec![NbStatus::Lower; n_total],
            x: vec![0.0; n_total],
            factor: F::new(m),
            iterations: 0,
            pivots_since_refactor: 0,
            warm_installed: false,
            factor_fresh: false,
            d: vec![0.0; n_total],
            devex: vec![1.0; n_total],
            cand: Vec::new(),
            cb1: vec![0.0; m],
            infeas_count: 0,
            bland_active: false,
            bland_engagements: 0,
            singular_refactors: 0,
            distressed: None,
            deadline: None,
            w: IndexedVec::new(m),
            rho: IndexedVec::new(m),
            alpha: IndexedVec::new(n_total),
            delta: IndexedVec::new(m),
            cb_buf: vec![0.0; m],
            y_buf: vec![0.0; m],
            stats: SolveStats {
                rows: m as u64,
                ..SolveStats::default()
            },
            opts,
        };

        let warm_ok = warm.is_some_and(|b| core.try_install_basis(b, reuse));
        if !warm_ok {
            core.install_default_basis();
        }
        core.warm_installed = warm_ok;
        core.recompute_basics();
        core
    }

    /// Cold start: nonbasic structural variables at their bound nearest
    /// zero, logical variables forming the basis (`B = −I`).
    fn install_default_basis(&mut self) {
        let (m, n_struct) = (self.m, self.n_struct);
        for j in 0..n_struct {
            let (l, u) = (self.lb[j], self.ub[j]);
            let (st, xj) = if l.is_finite() && u.is_finite() {
                if l.abs() <= u.abs() {
                    (NbStatus::Lower, l)
                } else {
                    (NbStatus::Upper, u)
                }
            } else if l.is_finite() {
                (NbStatus::Lower, l)
            } else if u.is_finite() {
                (NbStatus::Upper, u)
            } else {
                (NbStatus::FreeZero, 0.0)
            };
            self.status[j] = st;
            self.x[j] = xj;
            self.in_basis[j] = -1;
        }
        self.basis.clear();
        for i in 0..m {
            let j = n_struct + i;
            self.basis.push(j);
            self.in_basis[j] = i as i32;
            self.status[j] = NbStatus::Basic;
        }
        let ok = self.refactorize();
        debug_assert!(ok, "the all-logical basis is always nonsingular");
    }

    /// Whether `reuse` retains an LU of exactly the basis matrix about to
    /// be installed: same basis positions, bit-identical constraint
    /// matrix, and a strict (standard-threshold) factorisation. Under
    /// those conditions the retained LU *is* what refactorisation would
    /// rebuild, so adopting it changes no bits downstream.
    fn reuse_matches(&self, reuse: &RangingData, basis: &[usize]) -> bool {
        self.opts.lu_reuse
            && reuse.strict
            && reuse.basis == basis
            && reuse.col_start == self.col_start
            && reuse.col_rows == self.col_rows
            && reuse.col_vals.len() == self.col_vals.len()
            && reuse
                .col_vals
                .iter()
                .zip(&self.col_vals)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Try to start from a previous solve's basis. Statuses are
    /// normalised against the *current* bounds (a bound that became
    /// infinite demotes the status) and the basis matrix is refactorised;
    /// any mismatch falls back to the cold start. When `reuse` retains an
    /// LU of this exact basis matrix, it is adopted in place of the
    /// refactorisation (counted on the `lp.lu_reuse` obs counter).
    fn try_install_basis(&mut self, warm: &Basis, reuse: Option<&RangingData>) -> bool {
        if warm.cols.len() != self.n_struct || warm.rows.len() != self.m {
            return false;
        }
        let mut basis = Vec::with_capacity(self.m);
        let mut status = vec![NbStatus::Lower; self.n_total];
        let mut x = vec![0.0; self.n_total];
        for j in 0..self.n_total {
            let s = if j < self.n_struct {
                warm.cols[j]
            } else {
                warm.rows[j - self.n_struct]
            };
            let (l, u) = (self.lb[j], self.ub[j]);
            let st = match s {
                VarStatus::Basic => NbStatus::Basic,
                VarStatus::AtLower if l.is_finite() => NbStatus::Lower,
                VarStatus::AtUpper if u.is_finite() => NbStatus::Upper,
                // Bound vanished (or FreeZero): rest on the nearest
                // remaining finite bound, or free at zero.
                _ => {
                    if l.is_finite() {
                        NbStatus::Lower
                    } else if u.is_finite() {
                        NbStatus::Upper
                    } else {
                        NbStatus::FreeZero
                    }
                }
            };
            status[j] = st;
            x[j] = match st {
                NbStatus::Basic => {
                    basis.push(j);
                    0.0
                }
                NbStatus::Lower => l,
                NbStatus::Upper => u,
                NbStatus::FreeZero => 0.0,
            };
        }
        if basis.len() != self.m {
            return false;
        }
        // Install tentatively; refactorisation is the singularity check.
        // A retained LU of this exact basis matrix skips it: the adopted
        // factorisation already proves nonsingularity.
        let adopted =
            reuse.is_some_and(|r| self.reuse_matches(r, &basis) && self.factor.adopt(&r.lu));
        let saved_basis = std::mem::replace(&mut self.basis, basis);
        if adopted {
            self.pivots_since_refactor = 0;
            self.factor_fresh = true;
            llamp_obs::counter("lp.lu_reuse", 1);
        } else if !self.refactorize() {
            self.basis = saved_basis;
            return false;
        }
        self.status = status;
        self.x = x;
        for v in &mut self.in_basis {
            *v = -1;
        }
        for (i, &j) in self.basis.iter().enumerate() {
            self.in_basis[j] = i as i32;
        }
        true
    }

    /// Refactorise the basis, resetting the eta counter on success.
    fn refactorize(&mut self) -> bool {
        let ok = self.factor.refactor(
            ColsView {
                start: &self.col_start,
                rows: &self.col_rows,
                vals: &self.col_vals,
            },
            &self.basis,
        );
        if ok {
            self.pivots_since_refactor = 0;
            self.factor_fresh = true;
            // The install-time factorisation of a fresh solve (iterations
            // still 0) is setup, not solver behaviour: the counter reports
            // only mid-solve (periodic / eta-growth) refactorisations, as
            // documented on `SolveStats`.
            if self.iterations > 0 {
                self.stats.refactorizations += 1;
            }
        }
        ok
    }

    /// Recompute all basic variable values from the nonbasic assignment:
    /// `x_B = B⁻¹ (0 − A_N x_N)`.
    fn recompute_basics(&mut self) {
        let m = self.m;
        let mut r = vec![0.0; m];
        for j in 0..self.n_total {
            if self.in_basis[j] >= 0 || self.x[j] == 0.0 {
                continue;
            }
            let xj = self.x[j];
            for idx in self.col_start[j]..self.col_start[j + 1] {
                r[self.col_rows[idx] as usize] -= self.col_vals[idx] * xj;
            }
        }
        let xb = self.factor.ftran_dense(&r);
        for i in 0..m {
            self.x[self.basis[i]] = xb[i];
        }
    }

    /// Whether every basic variable sits within its (magnitude-scaled,
    /// `mult`-relaxed) bounds.
    fn is_primal_feasible(&self, mult: f64) -> bool {
        let feas = self.opts.feas_tol * mult;
        self.basis.iter().all(|&b| {
            let v = self.x[b];
            v >= self.lb[b] - viol_tol(self.lb[b], feas)
                && v <= self.ub[b] + viol_tol(self.ub[b], feas)
        })
    }

    fn dot_col(
        col_start: &[usize],
        col_rows: &[u32],
        col_vals: &[f64],
        j: usize,
        y: &[f64],
    ) -> f64 {
        let mut acc = 0.0;
        for idx in col_start[j]..col_start[j + 1] {
            acc += col_vals[idx] * y[col_rows[idx] as usize];
        }
        acc
    }

    /// Phase-1 cost class of column `b` given its current value:
    /// −1 below the (scaled-tolerance) lower bound, +1 above the upper.
    #[inline]
    fn p1_class(&self, b: usize) -> f64 {
        let v = self.x[b];
        let feas = self.opts.feas_tol;
        if v < self.lb[b] - viol_tol(self.lb[b], feas) {
            -1.0
        } else if v > self.ub[b] + viol_tol(self.ub[b], feas) {
            1.0
        } else {
            0.0
        }
    }

    /// Rebuild the phase-1 basic cost vector and infeasibility count from
    /// scratch (phase entry and after every refactorisation, where all
    /// basic values move slightly). Returns whether any cost changed —
    /// when it did, the incremental reduced costs are stale *by objective
    /// change*, not by drift, so the following resync must not count the
    /// gap as incremental error.
    fn rebuild_cb1(&mut self) -> bool {
        self.infeas_count = 0;
        let mut changed = false;
        for i in 0..self.m {
            let c = self.p1_class(self.basis[i]);
            if c != self.cb1[i] {
                changed = true;
            }
            self.cb1[i] = c;
            if c != 0.0 {
                self.infeas_count += 1;
            }
        }
        changed
    }

    /// Recompute the reduced-cost vector from scratch for the given
    /// phase. When `record_drift` is set, the worst relative gap between
    /// the incremental values and the fresh ones is folded into
    /// [`SolveStats::max_resync_drift`] — the observable bound on
    /// incremental-pricing error.
    fn resync_d(&mut self, phase1: bool, record_drift: bool) {
        for i in 0..self.m {
            self.cb_buf[i] = if phase1 {
                self.cb1[i]
            } else {
                self.cost[self.basis[i]]
            };
        }
        self.factor.btran_dense_into(&self.cb_buf, &mut self.y_buf);
        let mut d = std::mem::take(&mut self.d);
        let mut drift = 0.0f64;
        for j in 0..self.n_total {
            if self.status[j] == NbStatus::Basic {
                d[j] = 0.0;
                continue;
            }
            let cj = if phase1 { 0.0 } else { self.cost[j] };
            let fresh = cj
                - Self::dot_col(
                    &self.col_start,
                    &self.col_rows,
                    &self.col_vals,
                    j,
                    &self.y_buf,
                );
            if record_drift {
                let gap = (fresh - d[j]).abs() / (1.0 + fresh.abs());
                drift = drift.max(gap);
            }
            d[j] = fresh;
        }
        self.d = d;
        if record_drift {
            self.stats.max_resync_drift = self.stats.max_resync_drift.max(drift);
            if self.opts.drift_limit > 0.0 && drift > self.opts.drift_limit {
                self.distressed = Some(Distress::ResyncDrift);
            }
        }
    }

    /// Enter a phase: build phase costs, resynchronise reduced costs,
    /// reset the Devex framework and candidate list.
    fn enter_phase(&mut self, phase1: bool) {
        if phase1 {
            self.rebuild_cb1();
        }
        self.resync_d(phase1, false);
        self.devex.iter_mut().for_each(|w| *w = 1.0);
        self.cand.clear();
        self.bland_active = false;
    }

    /// Eligibility of a nonbasic column under the current reduced costs:
    /// the entering direction, or `None`.
    #[inline]
    fn eligible(&self, j: usize) -> Option<f64> {
        let opt = self.opts.opt_tol;
        let dj = self.d[j];
        match self.status[j] {
            NbStatus::Basic => None,
            NbStatus::Lower => (dj < -opt).then_some(1.0),
            NbStatus::Upper => (dj > opt).then_some(-1.0),
            NbStatus::FreeZero => {
                if dj < -opt {
                    Some(1.0)
                } else if dj > opt {
                    Some(-1.0)
                } else {
                    None
                }
            }
        }
    }

    /// Refill the candidate list with every eligible column (ascending).
    fn refill_candidates(&mut self) {
        let mut cand = std::mem::take(&mut self.cand);
        cand.clear();
        for j in 0..self.n_total {
            if self.eligible(j).is_some() {
                cand.push(j as u32);
            }
        }
        self.cand = cand;
    }

    /// Scan the candidate list for the best Devex-scored entering column
    /// (`d²/w`, epsilon ties toward the lowest index), pruning members
    /// that became basic or ineligible.
    fn scan_candidates(&mut self) -> Option<(usize, f64)> {
        let mut cand = std::mem::take(&mut self.cand);
        let mut best: Option<(usize, f64, f64)> = None; // (col, score, dir)
        cand.retain(|&ju| {
            let j = ju as usize;
            match self.eligible(j) {
                None => false,
                Some(dir) => {
                    let score = self.d[j] * self.d[j] / self.devex[j];
                    let better = match best {
                        None => true,
                        Some((_, bs, _)) => score > bs * (1.0 + PRICE_TIE_REL),
                    };
                    if better {
                        best = Some((j, score, dir));
                    }
                    true
                }
            }
        });
        self.cand = cand;
        best.map(|(j, _, dir)| (j, dir))
    }

    /// Pick the entering column, or `None` at (phase-)optimality. Cheap
    /// candidate scans serve most iterations; a full refill runs on the
    /// [`PARTIAL_REFILL_EVERY`] cadence, when the list runs dry, and to
    /// confirm optimality (after a from-scratch reduced-cost resync, so
    /// incremental drift can never fake convergence).
    fn select_entering(&mut self, phase1: bool, use_bland: bool) -> Option<(usize, f64)> {
        if use_bland {
            // Least-index rule (termination guarantee). The reduced costs
            // were resynchronised when the Bland streak began.
            self.stats.pricing_full_scans += 1;
            for j in 0..self.n_total {
                if let Some(dir) = self.eligible(j) {
                    return Some((j, dir));
                }
            }
            return None;
        }
        let refill = self.cand.is_empty() || self.iterations.is_multiple_of(PARTIAL_REFILL_EVERY);
        if !refill {
            self.stats.pricing_candidate_scans += 1;
            if let Some(sel) = self.scan_candidates() {
                return Some(sel);
            }
        }
        self.stats.pricing_full_scans += 1;
        self.refill_candidates();
        if let Some(sel) = self.scan_candidates() {
            return Some(sel);
        }
        // Optimality claim: confirm on freshly recomputed reduced costs.
        self.resync_d(phase1, true);
        self.stats.pricing_full_scans += 1;
        self.refill_candidates();
        self.scan_candidates()
    }

    /// Scatter the pivot row `α = Aᵀρ` (column space) from a row-space
    /// BTRAN result, using the CSR mirror plus the implicit −1 logical
    /// diagonal.
    fn scatter_alpha(&mut self) {
        self.alpha.reset(self.n_total);
        for &iu in self.rho.indices() {
            let i = iu as usize;
            let ri = self.rho.get(i);
            if ri == 0.0 {
                continue;
            }
            for idx in self.row_start[i]..self.row_start[i + 1] {
                self.alpha
                    .add(self.row_cols[idx] as usize, ri * self.row_vals[idx]);
            }
            self.alpha.add(self.n_struct + i, -ri);
        }
    }

    /// Fold phase-1 basic-cost deltas (already written into `cb1`,
    /// accumulated in `self.delta` as a position-space vector) into the
    /// incremental reduced costs: `d ← d − Aᵀ B⁻ᵀ Σ δᵢeᵢ`. One batched
    /// sparse BTRAN regardless of how many basic variables crossed a
    /// bound this iteration.
    fn apply_cost_deltas(&mut self) {
        self.factor.btran_sparse(&self.delta, &mut self.rho);
        self.stats.btran_calls += 1;
        self.stats.btran_nnz += self.rho.nnz() as u64;
        self.scatter_alpha();
        for &ju in self.alpha.indices() {
            let j = ju as usize;
            if self.status[j] != NbStatus::Basic {
                self.d[j] -= self.alpha.get(j);
            }
        }
    }

    /// The bound (and whether it is the upper one) at which basic position
    /// `i` blocks a step that changes it at `rate` per unit step.
    /// Phase-aware: an infeasible basic variable blocks at the bound it is
    /// approaching and never at one behind it.
    fn blocking_bound(&self, i: usize, rate: f64, phase1: bool, feas: f64) -> Option<(f64, bool)> {
        let b = self.basis[i];
        let xb = self.x[b];
        let (lbi, ubi) = (self.lb[b], self.ub[b]);
        if rate > 0.0 {
            // x_b increases.
            if phase1 && xb < lbi - viol_tol(lbi, feas) {
                // Infeasible below: blocks when it reaches lb.
                Some((lbi, false))
            } else if phase1 && xb > ubi + viol_tol(ubi, feas) {
                // Already above ub and moving further up: no bound ahead
                // to cross (its cost is in the pricing).
                None
            } else if ubi.is_finite() {
                Some((ubi, true))
            } else {
                None
            }
        } else {
            // x_b decreases.
            if phase1 && xb > ubi + viol_tol(ubi, feas) {
                Some((ubi, true))
            } else if phase1 && xb < lbi - viol_tol(lbi, feas) {
                None
            } else if lbi.is_finite() {
                Some((lbi, false))
            } else {
                None
            }
        }
    }

    /// Run simplex iterations for one phase. `phase1` selects infeasibility
    /// costs instead of the model objective.
    fn iterate(&mut self, phase1: bool, max_iters: u64) -> PhaseOutcome {
        let feas = self.opts.feas_tol;
        let mut degenerate_streak = 0u32;
        self.enter_phase(phase1);

        loop {
            if self.iterations >= max_iters {
                return PhaseOutcome::Abort(SolveError::IterationLimit);
            }
            if llamp_faults::should_inject("solve.stall") {
                // The `solve.stall` site models a wedged solve: abort with
                // the typed injected-fault error the fallback ladder (and
                // chaos suite) expects.
                return PhaseOutcome::Abort(SolveError::Injected);
            }
            if self.opts.stall_iters > 0 && degenerate_streak as u64 >= self.opts.stall_iters {
                return PhaseOutcome::Abort(SolveError::Stalled);
            }
            if let Some(deadline) = self.deadline {
                // Amortise the clock read: one syscall per 64 iterations.
                if self.iterations & 63 == 0 && std::time::Instant::now() > deadline {
                    return PhaseOutcome::Abort(SolveError::TimeLimit);
                }
            }
            self.iterations += 1;
            if phase1 {
                self.stats.phase1_iterations += 1;
                if self.infeas_count == 0 {
                    // Every basic variable is back inside its bounds.
                    return PhaseOutcome::Done;
                }
            }

            let use_bland = degenerate_streak >= self.opts.bland_after;
            if use_bland && !self.bland_active {
                // Bland's termination argument needs trustworthy reduced
                // costs: resynchronise once per streak.
                self.resync_d(phase1, true);
                self.bland_active = true;
                self.bland_engagements += 1;
                if self.opts.bland_streak_limit > 0
                    && self.bland_engagements > self.opts.bland_streak_limit
                {
                    return PhaseOutcome::Abort(SolveError::Distress(Distress::BlandStreak));
                }
            }
            if let Some(d) = self.distressed.take() {
                // A drift-recording resync (Bland engagement or
                // refactorisation) found the incremental reduced costs
                // untrustworthy: refuse to certify anything from them.
                return PhaseOutcome::Abort(SolveError::Distress(d));
            }
            let entering = self.select_entering(phase1, use_bland);

            let Some((q, dir)) = entering else {
                // No improving column (confirmed on fresh reduced costs):
                // this phase is optimal (for phase 1 the caller checks
                // whether infeasibility reached ~zero).
                return PhaseOutcome::Done;
            };

            // FTRAN the entering column into the solver-owned workspace;
            // the sorted support drives everything downstream.
            {
                let view = ColsView {
                    start: &self.col_start,
                    rows: &self.col_rows,
                    vals: &self.col_vals,
                };
                self.factor.ftran_col(view, q, &mut self.w);
            }
            self.w.sort_indices();
            self.stats.ftran_calls += 1;
            self.stats.ftran_nnz += self.w.nnz() as u64;

            // Two-pass Harris ratio test over the nonzeros of `w`.
            // `t_room` caps the step at a full bound traversal of the
            // entering variable.
            let t_room = if self.lb[q].is_finite() && self.ub[q].is_finite() {
                self.ub[q] - self.lb[q]
            } else {
                INF
            };
            // Pass 1: the largest step under feas-expanded bounds.
            let mut t_max = t_room;
            for (i, wi) in self.w.iter() {
                let rate = -dir * wi;
                if rate.abs() <= self.opts.pivot_tol {
                    continue;
                }
                if let Some((bound, _)) = self.blocking_bound(i, rate, phase1, feas) {
                    let xb = self.x[self.basis[i]];
                    let expanded = (bound - xb) / rate + viol_tol(bound, feas) / rate.abs();
                    if expanded < t_max {
                        t_max = expanded;
                    }
                }
            }
            if t_max.is_infinite() {
                return PhaseOutcome::Unbounded;
            }
            let t_max = t_max.max(0.0);
            // Pass 2: the largest-magnitude pivot among rows blocking
            // within t_max, near-ties keeping the lowest basis position
            // (the support is sorted ascending).
            let mut leaving: Option<(usize, bool)> = None;
            let mut leave_t = 0.0f64;
            let mut leave_w = 0.0f64;
            for (i, wi) in self.w.iter() {
                let rate = -dir * wi;
                if rate.abs() <= self.opts.pivot_tol {
                    continue;
                }
                if let Some((bound, at_upper)) = self.blocking_bound(i, rate, phase1, feas) {
                    let xb = self.x[self.basis[i]];
                    let strict = ((bound - xb) / rate).max(0.0);
                    if strict <= t_max {
                        let better = match leaving {
                            None => true,
                            Some(_) => wi.abs() > leave_w * (1.0 + RATIO_TIE_REL),
                        };
                        if better {
                            leaving = Some((i, at_upper));
                            leave_t = strict;
                            leave_w = wi.abs();
                        }
                    }
                }
            }

            let t_limit = match leaving {
                // No blocking row within reach: the entering variable
                // traverses its whole box (t_room is finite here, or
                // t_max would have stayed infinite).
                None => t_room,
                Some(_) => leave_t,
            };
            if t_limit <= 1e-12 {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
                self.bland_active = false;
            }

            #[cfg(debug_assertions)]
            if std::env::var_os("LLAMP_LP_TRACE").is_some() {
                eprintln!(
                    "iter={} phase1={} q={} status={:?} dir={} t_limit={} leaving={:?} x_q={}",
                    self.iterations,
                    phase1,
                    q,
                    self.status[q],
                    dir,
                    t_limit,
                    leaving.map(|(r, up)| (r, self.basis[r], up)),
                    self.x[q]
                );
            }
            // Apply the step.
            let step = dir * t_limit;
            self.x[q] += step;
            for (i, wi) in self.w.iter() {
                if wi != 0.0 {
                    let b = self.basis[i];
                    self.x[b] -= step * wi;
                }
            }

            match leaving {
                None => {
                    // Bound flip: x_q traversed its whole box. The basis
                    // (and hence d) is unchanged; only phase-1 costs of
                    // basic variables that crossed a bound need folding.
                    self.stats.bound_flips += 1;
                    self.status[q] = match self.status[q] {
                        NbStatus::Lower => NbStatus::Upper,
                        NbStatus::Upper => NbStatus::Lower,
                        s => s,
                    };
                    if phase1 {
                        self.collect_cost_deltas(None);
                        if self.delta.nnz() > 0 {
                            self.apply_cost_deltas();
                        }
                    }
                }
                Some((r, at_upper)) => {
                    self.stats.pivots += 1;
                    let out = self.basis[r];
                    let w_r = self.w.get(r);
                    let old_r_class = if phase1 { self.cb1[r] } else { 0.0 };

                    // Pivot row (against the *current* basis) for the
                    // incremental reduced-cost and Devex updates.
                    {
                        let mut unit = std::mem::take(&mut self.delta);
                        unit.reset(self.m);
                        unit.set(r, 1.0);
                        self.factor.btran_sparse(&unit, &mut self.rho);
                        unit.clear();
                        self.delta = unit;
                    }
                    self.stats.btran_calls += 1;
                    self.stats.btran_nnz += self.rho.nnz() as u64;
                    self.scatter_alpha();

                    // d ← d − θ_d·α  (θ_d = d_q / α_q; α_q ≡ w_r).
                    let theta_d = self.d[q] / w_r;
                    let wq_ref = self.devex[q].max(1.0);
                    for &ju in self.alpha.indices() {
                        let j = ju as usize;
                        if self.status[j] == NbStatus::Basic || j == q {
                            continue;
                        }
                        let aj = self.alpha.get(j);
                        if aj == 0.0 {
                            continue;
                        }
                        self.d[j] -= theta_d * aj;
                        // Devex reference-weight update.
                        let ratio = aj / w_r;
                        let cand_w = ratio * ratio * wq_ref;
                        if cand_w > self.devex[j] {
                            self.devex[j] = cand_w;
                        }
                    }
                    self.d[q] = 0.0;
                    // The leaving variable lands exactly on its bound; its
                    // phase-1 cost contribution (if it was infeasible)
                    // leaves the basic cost vector with it.
                    self.d[out] = -theta_d - old_r_class;
                    let w_out = (wq_ref / (w_r * w_r)).max(1.0);
                    self.devex[out] = w_out;
                    if w_out > DEVEX_RESET {
                        self.devex.iter_mut().for_each(|v| *v = 1.0);
                        self.stats.devex_resets += 1;
                    }

                    // Snap the leaving variable exactly onto its bound.
                    self.x[out] = if at_upper { self.ub[out] } else { self.lb[out] };
                    self.status[out] = if at_upper {
                        NbStatus::Upper
                    } else {
                        NbStatus::Lower
                    };
                    self.in_basis[out] = -1;
                    self.basis[r] = q;
                    self.in_basis[q] = r as i32;
                    self.status[q] = NbStatus::Basic;
                    self.factor.update(&self.w, r);
                    self.factor_fresh = false;
                    if phase1 {
                        // Position r now carries the entering variable at
                        // cost 0 (θ_d already priced that in); the old
                        // occupant's infeasibility left with it.
                        if old_r_class != 0.0 {
                            self.infeas_count -= 1;
                        }
                        self.cb1[r] = 0.0;
                        self.collect_cost_deltas(Some(r));
                        if self.delta.nnz() > 0 {
                            self.apply_cost_deltas();
                        }
                    }
                    #[cfg(debug_assertions)]
                    if std::env::var_os("LLAMP_LP_CHECK").is_some() {
                        let incr: Vec<f64> = self.basis.iter().map(|&b| self.x[b]).collect();
                        self.recompute_basics();
                        for (i, &b) in self.basis.iter().enumerate() {
                            assert!((incr[i] - self.x[b]).abs() < 1e-6 * (1.0 + incr[i].abs()),
                                "x_B[{i}] (col {b}) drift: incremental {} vs fresh {} at iter {} phase1={phase1}",
                                incr[i], self.x[b], self.iterations);
                        }
                    }
                    self.pivots_since_refactor += 1;
                    // Periodic refactorisation, pulled forward when the
                    // eta file outgrows the fresh factorisation. A
                    // (numerically) singular refactorisation keeps the
                    // eta-updated factor, mirroring the historic dense
                    // behaviour.
                    let eta_heavy = self.pivots_since_refactor >= MIN_PIVOTS_BEFORE_ETA_REFACTOR
                        && self.factor.factor_nnz() > 0
                        && self.factor.update_nnz() > 2 * self.factor.factor_nnz();
                    if self.pivots_since_refactor >= self.opts.refactor_every || eta_heavy {
                        if self.refactorize() {
                            self.recompute_basics();
                            // All basic values moved (slightly): rebuild the
                            // phase-1 classification and resynchronise the
                            // incremental reduced costs. Drift is recorded
                            // only when the phase-1 costs did not flip — a
                            // flipped cost changes the objective itself, so
                            // the gap would not measure incremental error.
                            let costs_flipped = phase1 && self.rebuild_cb1();
                            self.resync_d(phase1, !costs_flipped);
                        } else {
                            // Singular refactorisation: keep the eta-updated
                            // factor (historic behaviour), but count it — a
                            // basis that keeps refusing to factor is
                            // numerical distress, not bad luck.
                            self.singular_refactors += 1;
                            if self.opts.singular_limit > 0
                                && self.singular_refactors >= self.opts.singular_limit
                            {
                                return PhaseOutcome::Abort(SolveError::Distress(
                                    Distress::SingularFactor,
                                ));
                            }
                        }
                    }
                }
            }
        }
    }

    /// Reclassify the phase-1 cost of every basic position whose value
    /// just changed (the FTRAN support, minus the freshly exchanged
    /// position `skip`, which the pivot handled), accumulating the cost
    /// deltas into `self.delta` and maintaining the infeasibility count.
    fn collect_cost_deltas(&mut self, skip: Option<usize>) {
        let mut delta = std::mem::take(&mut self.delta);
        delta.reset(self.m);
        // Iterate the FTRAN support without borrowing `self.w` across the
        // mutation of `cb1`/`infeas_count` (indices are read up front).
        for k in 0..self.w.indices().len() {
            let i = self.w.indices()[k] as usize;
            if skip == Some(i) {
                continue;
            }
            let old = self.cb1[i];
            let new = self.p1_class(self.basis[i]);
            if new != old {
                delta.add(i, new - old);
                self.cb1[i] = new;
                if old != 0.0 {
                    self.infeas_count -= 1;
                }
                if new != 0.0 {
                    self.infeas_count += 1;
                }
            }
        }
        // The freshly exchanged position enters at cost 0; if the ratio
        // test left it (tolerance-)infeasible after all, classify it too.
        if let Some(r) = skip {
            let new = self.p1_class(self.basis[r]);
            if new != self.cb1[r] {
                delta.add(r, new - self.cb1[r]);
                if self.cb1[r] != 0.0 {
                    self.infeas_count -= 1;
                }
                if new != 0.0 {
                    self.infeas_count += 1;
                }
                self.cb1[r] = new;
            }
        }
        self.delta = delta;
    }

    /// Canonical extraction: report the optimum as a pure function of
    /// `(model, final basis)`. The basis is re-ordered by ascending
    /// column, nonbasic values are snapped exactly onto their bounds, and
    /// every reported quantity is recomputed from a fresh sparse LU —
    /// identical regardless of which factorisation ran the pivots.
    fn extract(mut self, model: &LpModel) -> Solution {
        let sign = match model.sense {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let m = self.m;
        let n = self.n_struct;

        // When the solver's own factorisation is pristine (no eta
        // updates) and its basis is already in ascending column order —
        // true for any zero-pivot warm start, whose installation
        // enumerates columns ascending — that LU *is* bit-for-bit the
        // factorisation the canonical re-factor below would rebuild.
        // Take it over instead of factorising the same matrix again.
        let taken = if self.opts.lu_reuse
            && self.factor_fresh
            && self.basis.windows(2).all(|w| w[0] < w[1])
        {
            self.factor.take_sparse_lu()
        } else {
            None
        };
        self.basis.sort_unstable();
        for (i, &b) in self.basis.iter().enumerate() {
            self.in_basis[b] = i as i32;
        }
        for j in 0..self.n_total {
            match self.status[j] {
                NbStatus::Basic => {}
                NbStatus::Lower => self.x[j] = self.lb[j],
                NbStatus::Upper => self.x[j] = self.ub[j],
                NbStatus::FreeZero => self.x[j] = 0.0,
            }
        }
        let view = ColsView {
            start: &self.col_start,
            rows: &self.col_rows,
            vals: &self.col_vals,
        };
        let (lu, strict) = match taken {
            Some(lu) => {
                llamp_obs::counter("lp.lu_reuse", 1);
                (lu, true)
            }
            None => {
                let mut lu = SparseLu::new(m);
                // A basis the solver itself maintained is nonsingular; if
                // the fresh LU is numerically borderline (pivot under the
                // default threshold), retry accepting any nonzero pivot so
                // extraction degrades to reduced accuracy rather than
                // failing — matching the historic dense path, which
                // reported from its stale inverse.
                let strict = lu.refactor(view, &self.basis);
                if !strict {
                    let ok = lu.refactor_min_pivot(view, &self.basis, 0.0);
                    assert!(ok, "exactly singular basis at extraction");
                }
                (lu, strict)
            }
        };

        // x_B = B⁻¹ (0 − A_N x_N).
        let mut r = vec![0.0; m];
        for j in 0..self.n_total {
            if self.in_basis[j] >= 0 || self.x[j] == 0.0 {
                continue;
            }
            let xj = self.x[j];
            for idx in self.col_start[j]..self.col_start[j + 1] {
                r[self.col_rows[idx] as usize] -= self.col_vals[idx] * xj;
            }
        }
        let xb = lu.ftran_dense(&r);
        for (i, &b) in self.basis.iter().enumerate() {
            self.x[b] = xb[i];
        }

        let mut cb = vec![0.0; m];
        for (i, &b) in self.basis.iter().enumerate() {
            cb[i] = self.cost[b];
        }
        let y = lu.btran_dense(&cb);

        let mut x = Vec::with_capacity(n);
        let mut reduced = Vec::with_capacity(n);
        let mut statuses = Vec::with_capacity(n);
        let mut objective = 0.0;
        for j in 0..n {
            x.push(self.x[j]);
            objective += model.cols[j].obj * self.x[j];
            let d_int = self.cost[j]
                - Self::dot_col(&self.col_start, &self.col_rows, &self.col_vals, j, &y);
            reduced.push(sign * d_int);
            statuses.push(self.status[j].to_var_status());
        }

        let mut duals = Vec::with_capacity(m);
        let mut activity = Vec::with_capacity(m);
        let mut row_lb = Vec::with_capacity(m);
        let mut row_ub = Vec::with_capacity(m);
        let mut row_statuses = Vec::with_capacity(m);
        for i in 0..m {
            // Logical column i has coefficient −1: reduced cost of the
            // logical is 0 − yᵀ(−e_i) = y_i = ∂obj/∂(row bound).
            duals.push(sign * y[i]);
            activity.push(self.x[n + i]);
            row_lb.push(model.rows[i].lb);
            row_ub.push(model.rows[i].ub);
            row_statuses.push(self.status[n + i].to_var_status());
        }

        let basis = Basis {
            cols: statuses.clone(),
            rows: row_statuses,
        };
        let ranging = RangingData {
            lu,
            col_start: self.col_start,
            col_rows: self.col_rows,
            col_vals: self.col_vals,
            basis: self.basis,
            x: self.x,
            lb: self.lb,
            ub: self.ub,
            pivot_tol: self.opts.pivot_tol,
            strict,
        };

        let mut stats = self.stats;
        stats.iterations = self.iterations;

        Solution {
            objective,
            x,
            reduced_costs: reduced,
            duals,
            row_activity: activity,
            var_status: statuses,
            iterations: self.iterations,
            stats,
            row_lb,
            row_ub,
            basis,
            ranging: std::sync::Arc::new(ranging),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpModel, Objective, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-7, "{a} vs {b}");
    }

    #[test]
    fn trivial_bound_only() {
        // min x s.t. x >= 5 (as a bound).
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 5.0, INF, 1.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 5.0);
        assert_close(sol.value(x), 5.0);
        assert_close(sol.reduced_cost(x), 1.0);
    }

    #[test]
    fn simple_row_dual() {
        // min x s.t. x >= 5 (as a row): dual must be 1.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, INF, 1.0);
        let c = m.add_constraint("r", &[(x, 1.0)], Relation::Ge, 5.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 5.0);
        assert_close(sol.dual(c), 1.0);
        assert!(sol.is_tight(c));
    }

    #[test]
    fn maximize_with_capacity() {
        // max 3a + 5b s.t. a <= 4, 2b <= 12, 3a + 2b <= 18 (classic).
        let mut m = LpModel::new(Objective::Maximize);
        let a = m.add_var("a", 0.0, INF, 3.0);
        let b = m.add_var("b", 0.0, INF, 5.0);
        m.add_constraint("c1", &[(a, 1.0)], Relation::Le, 4.0);
        let c2 = m.add_constraint("c2", &[(b, 2.0)], Relation::Le, 12.0);
        let c3 = m.add_constraint("c3", &[(a, 3.0), (b, 2.0)], Relation::Le, 18.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 36.0);
        assert_close(sol.value(a), 2.0);
        assert_close(sol.value(b), 6.0);
        // Known duals of the Dakota-style example: y2 = 1.5, y3 = 1.
        assert_close(sol.dual(c2), 1.5);
        assert_close(sol.dual(c3), 1.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 10, x - y = 4 => x=7, y=3.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, INF, 1.0);
        let y = m.add_var("y", 0.0, INF, 1.0);
        m.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Eq, 10.0);
        m.add_constraint("diff", &[(x, 1.0), (y, -1.0)], Relation::Eq, 4.0);
        let sol = m.solve().unwrap();
        assert_close(sol.value(x), 7.0);
        assert_close(sol.value(y), 3.0);
        assert_close(sol.objective(), 10.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint("hi", &[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, 0.0, 1.0);
        m.add_constraint("r", &[(x, 1.0)], Relation::Le, 0.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn free_variables() {
        // min |shift| style: free var pinned by two inequalities.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, INF, 1.0);
        m.add_constraint("lo", &[(x, 1.0)], Relation::Ge, -3.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), -3.0);
    }

    #[test]
    fn paper_running_example_min_t() {
        // Equation 6 + l >= 0.5: t = 1.615, reduced cost of l = 1 (Fig. 5).
        let mut m = LpModel::new(Objective::Minimize);
        let l = m.add_var("l", 0.5, INF, 0.0);
        let y1 = m.add_var("y1", f64::NEG_INFINITY, INF, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, INF, 1.0);
        let c1 = m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
        let c2 = m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
        let c3 = m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
        let c4 = m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 1.615);
        assert_close(sol.reduced_cost(l), 1.0);
        // Constraints (1) and (4) are tight: the critical path C0->S->R->C3.
        assert!(sol.is_tight(c1));
        assert!(sol.is_tight(c4));
        assert!(!sol.is_tight(c2));
        assert!(!sol.is_tight(c3));
        // Basis stays optimal down to l >= 0.385 (the critical latency).
        let (lo, _hi) = sol.lb_range(l);
        assert_close(lo, 0.385);
    }

    #[test]
    fn paper_running_example_max_l() {
        // Fig. 6: maximize l subject to t <= 2 => l = 0.885.
        let mut m = LpModel::new(Objective::Maximize);
        let l = m.add_var("l", 0.0, INF, 1.0);
        let y1 = m.add_var("y1", f64::NEG_INFINITY, INF, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, 2.0, 0.0);
        m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
        m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
        m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
        m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 0.885);
        assert_close(sol.value(l), 0.885);
    }

    #[test]
    fn running_example_below_critical_latency() {
        // With l >= 0.2 (< 0.385) the compute path dominates: t = 1.5 and
        // the latency sensitivity is 0.
        let mut m = LpModel::new(Objective::Minimize);
        let l = m.add_var("l", 0.2, INF, 0.0);
        let y1 = m.add_var("y1", f64::NEG_INFINITY, INF, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, INF, 1.0);
        m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
        m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
        m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
        m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 1.5);
        assert_close(sol.reduced_cost(l), 0.0);
    }

    #[test]
    fn range_row_is_respected() {
        // max x with 2 <= x <= 7 expressed as a range row.
        let mut m = LpModel::new(Objective::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, INF, 1.0);
        m.add_range_constraint("rng", &[(x, 1.0)], 2.0, 7.0);
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 7.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the same vertex.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, INF, 1.0);
        let y = m.add_var("y", 0.0, INF, 1.0);
        for i in 0..20 {
            let w = 1.0 + (i as f64) * 0.0; // identical rows
            m.add_constraint(format!("r{i}"), &[(x, w), (y, w)], Relation::Ge, 4.0);
        }
        let sol = m.solve().unwrap();
        assert_close(sol.objective(), 4.0);
    }

    #[test]
    fn iterations_are_counted() {
        let mut m = LpModel::new(Objective::Maximize);
        let a = m.add_var("a", 0.0, INF, 3.0);
        let b = m.add_var("b", 0.0, INF, 5.0);
        m.add_constraint("c1", &[(a, 1.0)], Relation::Le, 4.0);
        m.add_constraint("c2", &[(b, 2.0)], Relation::Le, 12.0);
        m.add_constraint("c3", &[(a, 3.0), (b, 2.0)], Relation::Le, 18.0);
        let sol = m.solve().unwrap();
        assert!(sol.iterations() > 0);
        // The stats agree with the headline counter and saw real work.
        assert_eq!(sol.stats().iterations, sol.iterations());
        assert!(sol.stats().ftran_calls > 0);
        assert_eq!(sol.stats().rows, 3);
    }

    #[test]
    fn dense_and_sparse_are_bit_identical() {
        let mut m = LpModel::new(Objective::Maximize);
        let a = m.add_var("a", 0.0, INF, 3.0);
        let b = m.add_var("b", 0.0, INF, 5.0);
        m.add_constraint("c1", &[(a, 1.0)], Relation::Le, 4.0);
        m.add_constraint("c2", &[(b, 2.0)], Relation::Le, 12.0);
        m.add_constraint("c3", &[(a, 3.0), (b, 2.0)], Relation::Le, 18.0);
        let opts = SimplexOptions::default();
        let d = solve_dense(&m, &opts, None).unwrap();
        let s = solve_sparse(&m, &opts, None).unwrap();
        assert_eq!(d.objective().to_bits(), s.objective().to_bits());
        for v in [a, b] {
            assert_eq!(d.value(v).to_bits(), s.value(v).to_bits());
            assert_eq!(d.reduced_cost(v).to_bits(), s.reduced_cost(v).to_bits());
        }
        assert_eq!(d.basis(), s.basis());
    }

    #[test]
    fn warm_start_reaches_same_optimum() {
        // min t with l >= L, warm-started from a neighbouring L.
        let build = |l_lb: f64| {
            let mut m = LpModel::new(Objective::Minimize);
            let l = m.add_var("l", l_lb, INF, 0.0);
            let y1 = m.add_var("y1", f64::NEG_INFINITY, INF, 0.0);
            let t = m.add_var("t", f64::NEG_INFINITY, INF, 1.0);
            m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
            m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
            m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
            m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
            m
        };
        let opts = SimplexOptions::default();
        let first = solve_sparse(&build(0.5), &opts, None).unwrap();
        // Warm-started re-solve at a nearby bound must agree bitwise with
        // a cold solve (same final basis, canonical extraction).
        let m2 = build(0.6);
        let warm = solve_sparse(&m2, &opts, Some(first.basis())).unwrap();
        let cold = solve_sparse(&m2, &opts, None).unwrap();
        assert_eq!(warm.objective().to_bits(), cold.objective().to_bits());
        assert_eq!(warm.basis(), cold.basis());
        // Inside the stability window the warm start needs no pivots.
        assert_eq!(warm.iterations(), 1, "only the optimality pricing pass");
    }

    #[test]
    fn mismatched_warm_basis_falls_back_to_cold() {
        let mut small = LpModel::new(Objective::Minimize);
        let x = small.add_var("x", 0.0, 10.0, 1.0);
        small.add_constraint("r", &[(x, 1.0)], Relation::Ge, 2.0);
        let sol = small.solve().unwrap();

        let mut big = LpModel::new(Objective::Minimize);
        let a = big.add_var("a", 0.0, 10.0, 1.0);
        let b = big.add_var("b", 0.0, 10.0, 1.0);
        big.add_constraint("r1", &[(a, 1.0), (b, 1.0)], Relation::Ge, 3.0);
        big.add_constraint("r2", &[(a, 1.0)], Relation::Ge, 1.0);
        let warm = solve_sparse(&big, &SimplexOptions::default(), Some(sol.basis())).unwrap();
        assert_close(warm.objective(), 3.0);
    }

    /// A model that needs at least a few pivots, for exercising budgets.
    fn pivoty_model() -> LpModel {
        let mut m = LpModel::new(Objective::Maximize);
        let a = m.add_var("a", 0.0, INF, 3.0);
        let b = m.add_var("b", 0.0, INF, 5.0);
        m.add_constraint("c1", &[(a, 1.0)], Relation::Le, 4.0);
        m.add_constraint("c2", &[(b, 2.0)], Relation::Le, 12.0);
        m.add_constraint("c3", &[(a, 3.0), (b, 2.0)], Relation::Le, 18.0);
        m
    }

    #[test]
    fn iteration_budget_reports_typed_error() {
        let opts = SimplexOptions {
            max_iterations: 1,
            ..Default::default()
        };
        assert_eq!(
            solve_sparse(&pivoty_model(), &opts, None).unwrap_err(),
            SolveError::IterationLimit
        );
    }

    #[test]
    fn generous_time_budget_does_not_change_the_answer() {
        // time_limit_ms measures from solve start, so forcing a trip in a
        // unit test would be timing-flaky; assert the plumbing instead — a
        // generous budget is bit-identical to no budget.
        let generous = SimplexOptions {
            time_limit_ms: 60_000,
            ..Default::default()
        };
        let clean = solve_sparse(&pivoty_model(), &SimplexOptions::default(), None).unwrap();
        let timed = solve_sparse(&pivoty_model(), &generous, None).unwrap();
        assert_eq!(clean.objective().to_bits(), timed.objective().to_bits());
    }

    #[test]
    fn stall_budget_ignores_productive_iterations() {
        // The classic example pivots productively each step; a stall
        // budget of 1 (one degenerate iteration allowed... none happen)
        // must not fire.
        let opts = SimplexOptions {
            stall_iters: 1,
            ..Default::default()
        };
        let sol = solve_sparse(&pivoty_model(), &opts, None).unwrap();
        assert_close(sol.objective(), 36.0);
    }

    #[test]
    fn drift_tripwire_fires_on_absurd_threshold() {
        // Force a refactor+resync every pivot with a drift limit below
        // machine noise: any recorded drift > 0 aborts with distress.
        let opts = SimplexOptions {
            refactor_every: 1,
            drift_limit: 1e-300,
            ..Default::default()
        };
        match solve_sparse(&pivoty_model(), &opts, None) {
            Err(SolveError::Distress(Distress::ResyncDrift)) | Ok(_) => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn budgets_off_by_default() {
        let opts = SimplexOptions::default();
        assert_eq!(opts.time_limit_ms, 0);
        assert_eq!(opts.stall_iters, 0);
        assert_eq!(opts.bland_streak_limit, 0);
        assert_eq!(opts.singular_limit, 0);
        assert!(opts.drift_limit > 0.0, "drift tripwire is on by default");
    }
}
