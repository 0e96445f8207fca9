//! # llamp-lp — linear programming substrate
//!
//! LLAMP converts MPI execution graphs into linear programs and reads
//! predicted runtimes, latency sensitivities (reduced costs), basis-stability
//! ranges (for critical-latency search) and latency tolerances (a flipped
//! objective) off the solved model. The paper uses Gurobi; no comparable
//! solver exists as a mature Rust crate, so this crate implements the
//! required solver technology from scratch:
//!
//! * [`model::LpModel`] — a general LP model builder: variables with bounds,
//!   linear constraints (`≤`, `≥`, `=`, ranges), minimise/maximise.
//! * [`simplex`] — a bounded-variable primal simplex, generic over the
//!   basis factorisation (the internal `factor` module): a sparse LU with
//!   a product-form eta file (the solver) or the dense inverse (the
//!   cross-validation reference and the last fallback rung).
//!   Artificial-free phase 1, Dantzig pricing with deterministic
//!   lowest-index tie-breaking and a Bland fallback (anti-cycling), a
//!   two-pass Harris ratio test, periodic refactorisation, and warm
//!   starts from a previous [`Basis`].
//! * [`backend`] — [`SparseSimplex`], the one solver the analysis layers
//!   hold: the sparse simplex plus the warm basis, retained LU and
//!   effort counters that carry between queries on one model.
//! * [`solution::Solution`] — primal values, objective, row duals, reduced
//!   costs, the exportable warm-start [`Basis`], and *bound ranging*: the
//!   equivalent of Gurobi's `SARHSLow` / `SALBLow` attributes that
//!   Algorithm 2 of the paper relies on.
//! * [`presolve`] — fixed-variable elimination, empty/singleton-row
//!   reduction and duplicate-row dropping, mirroring the presolve phase the
//!   paper credits for the LP approach outperforming simulation (§II-D3).
//! * [`piecewise`] — convex piecewise-linear functions represented as upper
//!   envelopes of lines. This powers the graph-level *parametric envelope*
//!   backend in `llamp-core`: the full value function `T(L)` over a
//!   latency window in a single pass.
//!
//! ## The warm-start protocol
//!
//! Every solved model exports its optimal [`Basis`]
//! ([`Solution::basis`]). Passing it back into the next solve of an
//! *edited* model (bounds moved, objective or sense changed — the edits a
//! latency sweep and the tolerance flip perform) starts the simplex from
//! that basis instead of the all-logical one. `llamp-core` uses this to
//! start every query from its longest-path crash basis, which is optimal
//! up to ties, so the simplex only certifies it. [`SparseSimplex::resolve`]
//! is this protocol's front door; `solve` always starts cold.
//!
//! ## Determinism
//!
//! Solutions are extracted *canonically*: whatever factorisation ran the
//! pivots, every reported number is recomputed from a fresh sparse LU of
//! the final basis (columns in ascending order, nonbasic values snapped
//! exactly onto their bounds). Pricing and ratio-test ties break by
//! lowest index within a relative epsilon. Together these make a
//! solution a pure function of `(model, final basis)`: dense, sparse,
//! warm and cold paths that land on the same basis return bit-identical
//! results. The dense and sparse factorisations are cross-validated
//! against each other (and against brute-force vertex enumeration) in
//! the test suites of this crate and `llamp-core`.
//!
//! ## Robustness
//!
//! Failed solves surface as the typed [`SolveError`]: model properties
//! (infeasible / unbounded) versus recoverable solve failures (budget
//! exhaustion, numerical distress, injected faults). For the latter,
//! [`robust::resolve_robust`] walks the fallback ladder — warm resolve →
//! cold sparse re-solve → direct dense-inverse re-solve — and canonical
//! extraction guarantees any rung that succeeds returns the
//! byte-identical answer the no-fault solve would have produced.

pub mod backend;
pub mod error;
pub(crate) mod factor;
pub mod model;
pub mod piecewise;
pub mod presolve;
pub mod robust;
pub mod simplex;
pub mod solution;

pub use backend::SparseSimplex;
pub use error::{Distress, SolveError};
pub use model::{ConId, LpModel, Objective, Relation, VarId};
pub use piecewise::{Envelope, Line};
pub use robust::resolve_robust;
pub use solution::{Basis, Solution, SolveStats};
