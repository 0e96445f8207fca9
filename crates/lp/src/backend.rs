//! The solver the analysis layers hold: [`SparseSimplex`], the sparse
//! LU / eta-file simplex plus the little state that carries between
//! queries on one model.
//!
//! `solve` starts cold; `resolve` warm-starts from the retained (or
//! explicitly seeded) basis, and adopts the previous solve's LU when the
//! warm basis and matrix bits match. `llamp-core` seeds each query's
//! longest-path crash basis and calls `resolve` through the fallback
//! ladder ([`crate::resolve_robust`]).

use crate::error::SolveError;
use crate::model::LpModel;
use crate::simplex::{solve_sparse, solve_sparse_reusing, RangingData, SimplexOptions};
use crate::solution::{Basis, Solution, SolveStats};
use std::sync::Arc;

/// Sparse LU / eta-file simplex with warm-start state.
#[derive(Debug, Default)]
pub struct SparseSimplex {
    warm: Option<Basis>,
    /// Last solution's ranging data — the retained LU a warm start whose
    /// basis and matrix bits match may adopt instead of refactorising.
    /// Deliberately survives [`SparseSimplex::reset`]: adoption keys on
    /// bit-identity, so a stale entry can only miss, never corrupt.
    reuse: Option<Arc<RangingData>>,
    stats: SolveStats,
}

impl SparseSimplex {
    /// Cold solve: ignore (and replace) any retained warm state.
    pub fn solve(&mut self, model: &LpModel) -> Result<Solution, SolveError> {
        let sol = solve_sparse(model, &SimplexOptions::default(), None)?;
        Ok(self.remember(sol))
    }

    /// Re-solve after incremental model edits, warm-starting from the
    /// retained basis when there is one (cold otherwise).
    pub fn resolve(&mut self, model: &LpModel) -> Result<Solution, SolveError> {
        let sol = solve_sparse_reusing(
            model,
            &SimplexOptions::default(),
            self.warm.as_ref(),
            self.reuse.as_deref(),
        )?;
        Ok(self.remember(sol))
    }

    fn remember(&mut self, sol: Solution) -> Solution {
        self.stats.merge(sol.stats());
        self.warm = Some(sol.basis().clone());
        self.reuse = Some(sol.ranging.clone());
        sol
    }

    /// The basis the next `resolve` would warm-start from, if any.
    pub fn warm_basis(&self) -> Option<&Basis> {
        self.warm.as_ref()
    }

    /// Replace the warm state with an explicit basis.
    pub fn seed(&mut self, basis: &Basis) {
        self.warm = Some(basis.clone());
    }

    /// Drop the warm basis (the next `resolve` starts cold).
    pub fn reset(&mut self) {
        self.warm = None;
    }

    /// Cumulative solver-effort counters across every solve this solver
    /// has run (not cleared by [`SparseSimplex::reset`] — they are
    /// observability, not solver state).
    pub fn stats(&self) -> SolveStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpModel, Objective, Relation, VarId};
    use crate::simplex::solve_dense;

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
    fn all_backends_agree_on_running_example() {
        // The sparse solver and the dense reference factorisation.
        let (m, l) = running_example(0.5);
        let sparse = SparseSimplex::default().solve(&m).unwrap();
        let dense = solve_dense(&m, &SimplexOptions::default(), None).unwrap();
        for sol in [&sparse, &dense] {
            assert!((sol.objective() - 1.615).abs() < 1e-9);
            assert!((sol.reduced_cost(l) - 1.0).abs() < 1e-9);
        }
        assert_eq!(sparse.objective().to_bits(), dense.objective().to_bits());
    }

    #[test]
    fn in_window_resolve_skips_pivots() {
        let mut b = SparseSimplex::default();
        let (m, _) = running_example(0.5);
        let first = b.solve(&m).unwrap();
        assert!(first.iterations() > 0);
        // 0.45 is inside the stability window [0.385, ∞) of the l ≥ 0.5
        // optimum: the warm re-solve certifies the retained basis.
        let (m2, l2) = running_example(0.45);
        let second = b.resolve(&m2).unwrap();
        assert_eq!(second.stats().pivots, 0);
        assert!((second.objective() - 1.565).abs() < 1e-9);
        assert!((second.reduced_cost(l2) - 1.0).abs() < 1e-9);
        // 0.2 is below the 0.385 breakpoint: the warm solve pivots onto
        // the compute-dominated optimum.
        let (m3, l3) = running_example(0.2);
        let third = b.resolve(&m3).unwrap();
        assert!((third.objective() - 1.5).abs() < 1e-9);
        assert!(third.reduced_cost(l3).abs() < 1e-9);
    }

    #[test]
    fn warm_sweep_matches_cold_solves_bitwise() {
        let mut warm = SparseSimplex::default();
        for i in 0..20 {
            let l = 0.1 + 0.03 * i as f64;
            let (m, lv) = running_example(l);
            let a = warm.resolve(&m).unwrap();
            let b = SparseSimplex::default().solve(&m).unwrap();
            assert_eq!(a.objective().to_bits(), b.objective().to_bits(), "L={l}");
            assert_eq!(
                a.reduced_cost(lv).to_bits(),
                b.reduced_cost(lv).to_bits(),
                "L={l}"
            );
        }
    }

    #[test]
    fn reset_forgets_state() {
        let mut b = SparseSimplex::default();
        let (m, _) = running_example(0.5);
        b.solve(&m).unwrap();
        b.reset();
        assert!(b.warm_basis().is_none());
        let (m2, _) = running_example(0.45);
        let sol = b.resolve(&m2).unwrap();
        // Cold again: pivots happen.
        assert!(sol.iterations() > 0);
    }
}
