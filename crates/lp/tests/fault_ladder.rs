//! The `solve.stall` chaos site against the fallback ladder, in its own
//! test binary: the fault registry is process-global, so arming it must
//! not share a process with the library's unit tests, which solve
//! without holding any lock. The two tests here serialize on a local
//! session lock.

use llamp_lp::{resolve_robust, LpModel, Objective, Relation, SolveError, SparseSimplex, VarId};
use std::sync::{Mutex, MutexGuard};

fn faults_session() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    llamp_faults::clear();
    guard
}

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
fn injected_stall_recovers_byte_identical() {
    // Fire `solve.stall` on the first hit: rung 1 aborts with the typed
    // injected error, rung 2 re-solves cold (the counter has passed its
    // mark, so no re-fire) and must reproduce the no-fault answer
    // bit-for-bit.
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
fn exhausted_ladder_reports_the_first_error() {
    // A stall probability of ~1 fails both rungs; the caller sees the
    // rung-1 error, typed, never a panic.
    let _g = faults_session();
    llamp_faults::configure("solve.stall:0.99999", 7).unwrap();
    let (m, _) = running_example(0.5);
    let mut b = SparseSimplex::default();
    let err = resolve_robust(&mut b, &m, None).unwrap_err();
    llamp_faults::clear();
    assert_eq!(err, SolveError::Injected);
}
