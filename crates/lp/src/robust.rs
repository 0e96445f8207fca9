//! The solver fallback ladder.
//!
//! [`resolve_robust`] answers an LP query through a [`SparseSimplex`]
//! like `resolve` does, but when the solve fails *recoverably* (budget
//! exhaustion, numerical distress, an injected fault — see
//! [`SolveError::is_recoverable`]) it walks a ladder of progressively
//! more conservative re-solves instead of giving up:
//!
//! 1. **warm resolve** — the solver's normal path from its warm (or
//!    seeded crash) basis;
//! 2. **cold re-solve** — drop all warm state, optionally re-seed the
//!    caller's crash basis, and solve from scratch;
//! 3. **dense re-solve** — a direct [`solve_dense`] call with default
//!    options, on the dense-inverse factorisation; the slowest but most
//!    numerically conservative rung.
//!
//! **Why a recovered answer is byte-identical.** Solutions are extracted
//! canonically (recomputed from a fresh sparse LU of the final basis —
//! see the crate docs), and all rungs use the same deterministic pivot
//! rules, so any rung that reaches the optimal basis reports exactly the
//! bytes the no-fault solve would have. After a rung-3 recovery the
//! solver is re-seeded with the answering basis, so subsequent warm
//! queries continue from the same state as an unfaulted run.
//!
//! Every rung taken past the first emits the obs counter
//! `solve.fallback` plus a per-rung counter (`solve.fallback.cold`,
//! `solve.fallback.dense`); unrecovered failures return the *first*
//! rung's error (the most informative one).

use crate::backend::SparseSimplex;
use crate::error::SolveError;
use crate::model::LpModel;
use crate::simplex::{solve_dense, SimplexOptions};
use crate::solution::{Basis, Solution};

/// Re-solve `model` through `solver` with fallback recovery. `crash`
/// optionally re-seeds the cold rung (the caller's structural crash
/// basis — what a fresh solver would start from).
pub fn resolve_robust(
    solver: &mut SparseSimplex,
    model: &LpModel,
    crash: Option<&Basis>,
) -> Result<Solution, SolveError> {
    // Rung 1: the solver's normal warm path.
    let first = match solver.resolve(model) {
        Ok(sol) => return Ok(sol),
        Err(e) if !e.is_recoverable() => return Err(e),
        Err(e) => e,
    };

    // Rung 2: cold re-solve from scratch, seeded like a fresh solver.
    llamp_obs::counter("solve.fallback", 1);
    llamp_obs::counter("solve.fallback.cold", 1);
    solver.reset();
    let cold = match crash {
        Some(b) => {
            solver.seed(b);
            solver.resolve(model)
        }
        None => solver.solve(model),
    };
    match cold {
        Ok(sol) => return Ok(sol),
        Err(e) if !e.is_recoverable() => return Err(e),
        Err(_) => {}
    }

    // Rung 3: dense-inverse reference re-solve with default options.
    llamp_obs::counter("solve.fallback", 1);
    llamp_obs::counter("solve.fallback.dense", 1);
    match solve_dense(model, &SimplexOptions::default(), None) {
        Ok(sol) => {
            // Leave the caller's solver warm on the answering basis,
            // exactly as an unfaulted resolve would have.
            solver.seed(sol.basis());
            return Ok(sol);
        }
        Err(e) if !e.is_recoverable() => return Err(e),
        Err(_) => {}
    }

    // Every rung failed recoverably: report the original failure.
    Err(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpModel, Objective, Relation, VarId};

    fn running_example(l_lb: f64) -> (LpModel, VarId) {
        let mut m = LpModel::new(Objective::Minimize);
        let l = m.add_var("l", l_lb, f64::INFINITY, 0.0);
        let y1 = m.add_var("y1", f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let t = m.add_var("t", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint("c1", &[(y1, 1.0), (l, -1.0)], Relation::Ge, 0.115);
        m.add_constraint("c2", &[(y1, 1.0)], Relation::Ge, 0.5);
        m.add_constraint("c3", &[(t, 1.0)], Relation::Ge, 1.1);
        m.add_constraint("c4", &[(t, 1.0), (y1, -1.0)], Relation::Ge, 1.0);
        (m, l)
    }

    #[test]
    fn clean_solves_pass_straight_through() {
        let mut b = SparseSimplex::default();
        let (m, l) = running_example(0.5);
        let sol = resolve_robust(&mut b, &m, None).unwrap();
        assert!((sol.objective() - 1.615).abs() < 1e-9);
        assert!((sol.reduced_cost(l) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unrecoverable_errors_skip_the_ladder() {
        // An infeasible model must come back infeasible immediately, not
        // after burning two extra solves.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint("c", &[(x, 1.0)], Relation::Ge, 2.0);
        let mut b = SparseSimplex::default();
        assert_eq!(
            resolve_robust(&mut b, &m, None).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn injected_stall_recovers_byte_identical() {
        // Fire `solve.stall` on the first hit: rung 1 aborts with the
        // typed injected error, rung 2 re-solves cold (the counter has
        // passed its mark, so no re-fire) and must reproduce the no-fault
        // answer bit-for-bit.
        let _g = faults_session();
        let (m, l) = running_example(0.5);
        let clean = SparseSimplex::default().solve(&m).unwrap();

        llamp_faults::configure("solve.stall:1", 0).unwrap();
        let mut b = SparseSimplex::default();
        let sol = resolve_robust(&mut b, &m, None).unwrap();
        llamp_faults::clear();

        assert_eq!(sol.objective().to_bits(), clean.objective().to_bits());
        assert_eq!(
            sol.reduced_cost(l).to_bits(),
            clean.reduced_cost(l).to_bits()
        );
        assert_eq!(sol.basis(), clean.basis());
    }

    #[test]
    fn recovers_through_dense_rung() {
        // A one-iteration budget fails rungs 1 and 2 (both run under the
        // solver's own options) so only the dense rung — which solves
        // with default options — can answer. Still byte-identical, and
        // the solver is left warm on the answering basis.
        let (m, l) = running_example(0.5);
        let clean = SparseSimplex::default().solve(&m).unwrap();

        let opts = SimplexOptions {
            max_iterations: 1,
            ..SimplexOptions::default()
        };
        let mut b = SparseSimplex::with_options(opts);
        let sol = resolve_robust(&mut b, &m, None).unwrap();
        assert_eq!(sol.objective().to_bits(), clean.objective().to_bits());
        assert_eq!(
            sol.reduced_cost(l).to_bits(),
            clean.reduced_cost(l).to_bits()
        );
        // The solver was re-seeded on the answering basis: a follow-up
        // in-window query must still answer (through its own ladder).
        let (m2, l2) = running_example(0.45);
        let sol2 = resolve_robust(&mut b, &m2, None).unwrap();
        let clean2 = SparseSimplex::default().solve(&m2).unwrap();
        assert_eq!(sol2.objective().to_bits(), clean2.objective().to_bits());
        assert_eq!(
            sol2.reduced_cost(l2).to_bits(),
            clean2.reduced_cost(l2).to_bits()
        );
    }

    #[test]
    fn exhausted_ladder_reports_the_first_error() {
        // A stall probability of ~1 fails every rung; the caller sees the
        // rung-1 error, typed, never a panic.
        let _g = faults_session();
        llamp_faults::configure("solve.stall:0.99999", 7).unwrap();
        let (m, _) = running_example(0.5);
        let mut b = SparseSimplex::default();
        let err = resolve_robust(&mut b, &m, None).unwrap_err();
        llamp_faults::clear();
        assert_eq!(err, SolveError::Injected);
    }

    // The faults registry is process-global: serialize tests that touch it.
    static FAULTS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn faults_session() -> std::sync::MutexGuard<'static, ()> {
        FAULTS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}
