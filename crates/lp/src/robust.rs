//! The solver fallback ladder.
//!
//! [`resolve_robust`] answers an LP query through a [`SparseSimplex`]
//! like `resolve` does, but when the solve fails *recoverably* (budget
//! exhaustion, numerical distress, an injected fault — see
//! [`SolveError::is_recoverable`]) it re-solves once more before giving
//! up. The ladder has two rungs:
//!
//! 1. **warm resolve** — the solver's normal path from its warm (or
//!    seeded crash) basis;
//! 2. **cold re-solve** — drop all warm state, optionally re-seed the
//!    caller's crash basis, and solve again. On LLAMP's models the
//!    longest-path crash basis is optimal up to ties, so this rung
//!    usually answers with few or no pivots, at any size.
//!
//! **Why a recovered answer is byte-identical.** Solutions are extracted
//! canonically (recomputed from a fresh sparse LU of the final basis —
//! see the crate docs), and both rungs use the same deterministic pivot
//! rules, so a rung that reaches the optimal basis reports exactly the
//! bytes the no-fault solve would have.
//!
//! Taking rung 2 emits the obs counters `solve.fallback` and
//! `solve.fallback.cold`; an unrecovered failure returns the *first*
//! rung's error (the most informative one).

use crate::backend::SparseSimplex;
use crate::error::SolveError;
use crate::model::LpModel;
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
        // Both rungs failed recoverably: report the original failure.
        Err(e) if e.is_recoverable() => Err(first),
        other => other,
    }
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
    fn injected_stall_recovers_byte_identical() {
        // Fire `solve.stall` on the first hit: rung 1 aborts with the typed
        // injected error, rung 2 re-solves cold (the counter has passed its
        // mark, so no re-fire) and must reproduce the no-fault answer
        // bit-for-bit.
        let (m, l) = running_example(0.5);
        let clean = SparseSimplex::default().solve(&m).unwrap();

        let armed = llamp_faults::Faults::parse("solve.stall:1", 0)
            .unwrap()
            .install();
        let mut b = SparseSimplex::default();
        let sol = resolve_robust(&mut b, &m, None).unwrap();
        drop(armed);

        assert_eq!(sol.objective().to_bits(), clean.objective().to_bits());
        assert_eq!(
            sol.reduced_cost(l).to_bits(),
            clean.reduced_cost(l).to_bits()
        );
        assert_eq!(sol.basis(), clean.basis());
    }

    #[test]
    fn exhausted_ladder_reports_the_first_error() {
        // A stall probability of ~1 fails both rungs; the caller sees the
        // rung-1 error, typed, never a panic.
        let armed = llamp_faults::Faults::parse("solve.stall:0.99999", 7)
            .unwrap()
            .install();
        let (m, _) = running_example(0.5);
        let mut b = SparseSimplex::default();
        let err = resolve_robust(&mut b, &m, None).unwrap_err();
        drop(armed);
        assert_eq!(err, SolveError::Injected);
    }

    #[test]
    fn unrecoverable_errors_skip_the_ladder() {
        // An infeasible model must come back infeasible immediately, not
        // after burning an extra solve.
        let mut m = LpModel::new(Objective::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_constraint("c", &[(x, 1.0)], Relation::Ge, 2.0);
        let mut b = SparseSimplex::default();
        assert_eq!(
            resolve_robust(&mut b, &m, None).unwrap_err(),
            SolveError::Infeasible
        );
    }
}
