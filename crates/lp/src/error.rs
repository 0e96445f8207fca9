//! Typed solver failure: what a simplex solve reports when it cannot
//! return an optimum, split by *what the caller can do about it*.
//!
//! [`SolveError::Infeasible`] and [`SolveError::Unbounded`] are
//! properties of the model — re-solving cannot change them, and LLAMP's
//! analyses give them meaning (an infeasible tolerance cap, an unbounded
//! tolerance direction). Everything else is a property of the *solve*:
//! the iteration budget ran out ([`SolveError::IterationLimit`]), the
//! numerics degraded ([`SolveError::Distress`]), or a fault was injected
//! on purpose ([`SolveError::Injected`]). Those are **recoverable**: the
//! fallback ladder ([`crate::robust::resolve_robust`]) re-solves cold
//! from the caller's crash basis, and canonical solution extraction
//! guarantees a re-solve that succeeds returns the byte-identical answer.

/// Which numerical-distress tripwire fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distress {
    /// Incremental pricing drifted further from freshly recomputed
    /// reduced costs than the solver's fixed drift limit (`1e-6`
    /// relative) allows.
    ResyncDrift,
}

impl std::fmt::Display for Distress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Distress::ResyncDrift => "resync drift over limit",
        })
    }
}

/// Why a solve returned no optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The model has no feasible point (model property; not recoverable).
    Infeasible,
    /// The objective is unbounded in the optimising direction (model
    /// property; not recoverable — but meaningful: an unbounded tolerance
    /// objective reads as "infinite tolerance").
    Unbounded,
    /// The iteration budget ran out before optimality.
    IterationLimit,
    /// A numerical-distress tripwire fired; the answer so far cannot be
    /// trusted.
    Distress(Distress),
    /// A configured `llamp-faults` site (`solve.stall`) fired.
    Injected,
}

impl SolveError {
    /// Whether a from-scratch re-solve could plausibly succeed. Model
    /// properties — infeasible, unbounded — are final; everything else is
    /// worth a trip down the fallback ladder.
    pub fn is_recoverable(&self) -> bool {
        !matches!(self, SolveError::Infeasible | SolveError::Unbounded)
    }

    /// Whether this is the unbounded-objective outcome (which tolerance
    /// queries interpret as "infinite tolerance", not an error).
    pub fn is_unbounded(&self) -> bool {
        matches!(self, SolveError::Unbounded)
    }
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => f.write_str("infeasible"),
            SolveError::Unbounded => f.write_str("unbounded"),
            SolveError::IterationLimit => f.write_str("iteration limit"),
            SolveError::Distress(d) => write!(f, "numerical distress: {d}"),
            SolveError::Injected => f.write_str("injected fault"),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recoverability_splits_model_from_solve_failures() {
        assert!(!SolveError::Infeasible.is_recoverable());
        assert!(!SolveError::Unbounded.is_recoverable());
        for e in [
            SolveError::IterationLimit,
            SolveError::Distress(Distress::ResyncDrift),
            SolveError::Injected,
        ] {
            assert!(e.is_recoverable(), "{e:?}");
        }
    }

    #[test]
    fn displays_are_stable_strings() {
        assert_eq!(SolveError::Infeasible.to_string(), "infeasible");
        assert_eq!(SolveError::IterationLimit.to_string(), "iteration limit");
        assert_eq!(
            SolveError::Distress(Distress::ResyncDrift).to_string(),
            "numerical distress: resync drift over limit"
        );
    }
}
