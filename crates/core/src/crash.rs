//! Crash-basis construction for the Algorithm-1 LPs.
//!
//! LLAMP's `min t` LP is the dual of a pure DAG-longest-path problem, so
//! the optimal basis has a known combinatorial shape: every merge
//! variable `y_v` (and the makespan `t`) is basic on the incoming row
//! that *defines* its max, that row's logical rests at its lower bound
//! (the constraint is tight), and every non-defining row keeps its
//! logical basic. Which row defines the max depends on where the
//! parameters sit — so the crash is stored as a **plan** (one record per
//! row, in the build's topological row order) and instantiated into a
//! [`Basis`] at a concrete parameter point.
//!
//! Two instantiation rules:
//!
//! * [`CrashKind::LongestPath`] (the default) runs the exact forward
//!   longest-path recursion at the query point: one pass over the rows
//!   computes every target's potential `max(pot(base) + c + m·point)`
//!   and records the argmax row. Evaluated **at that point** the
//!   resulting tree basis is primal feasible (each `y_v` equals its max)
//!   *and* dual feasible (the duals are the 0/1 critical-subtree
//!   indicators, and every parameter multiplier is nonnegative), i.e.
//!   optimal up to degeneracy — a cold solve seeded from it needs no
//!   pivots, only the optimality pricing pass.
//! * [`CrashKind::Topological`] reproduces the historic heuristic (the
//!   largest-*constant* in-edge, ignoring the parameter terms) — kept as
//!   the conformance baseline and for measuring what the exact crash
//!   buys.
//!
//! Ties break toward the lowest row index (strict `>` replacement), so a
//! plan instantiated at the same point is bit-identical everywhere — the
//! property the engine's byte-identity contract needs from a seed.
//!
//! The tolerance flip (`max l` s.t. `t ≤ cap`) has a known optimal basis
//! too: the longest-path basis at the answer `L*`, with `l` basic and
//! `t` resting on its cap. `CrashPlan::tolerance_basis` finds `L*` by a
//! Newton descent on the convex piecewise-linear `T(L)`, one forward pass
//! per step, and instantiates that basis.

use llamp_lp::solution::VarStatus;
use llamp_lp::Basis;

/// Which in-edge selection rule instantiates the crash basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashKind {
    /// Exact DAG-longest-path potentials at the query point (optimal up
    /// to degeneracy; the default).
    #[default]
    LongestPath,
    /// The historic largest-constant heuristic (parameter terms ignored).
    Topological,
}

/// One LP row as the crash recursion sees it:
/// `target ≥ base + c + ml·l + mg·g + mo·o` (base absent for source
/// rows; for the single-parameter LP `mg`/`mo` are pre-folded into `c`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrashRow {
    /// Column index of the `+1` variable (`y_v` or `t`).
    pub target: u32,
    /// Column index of the `−1` predecessor variable, or `u32::MAX`.
    pub base: u32,
    pub c: f64,
    pub ml: f64,
    pub mg: f64,
    pub mo: f64,
}

pub(crate) const NO_BASE: u32 = u32::MAX;

/// Newton steps [`CrashPlan::tolerance_basis`] takes before it hands
/// its current point to the simplex. Each step lands on a line of
/// strictly smaller slope, so the cap binds only on envelopes with more
/// pieces above the answer than this.
const NEWTON_CAP: usize = 64;

/// Deferred crash basis: the per-row recursion records plus the
/// point-independent column statuses (parameters at lower bound, merge
/// variables and — when a sink row exists — `t` basic). The parameter
/// columns lead the column order — `L`, then `G` and `o` in the
/// multi-parameter LP — so a parameter's axis index is its column.
#[derive(Debug, Clone)]
pub(crate) struct CrashPlan {
    pub col_status: Vec<VarStatus>,
    pub rows: Vec<CrashRow>,
    /// Column of the makespan variable `t`.
    pub t_col: u32,
}

/// One forward pass of the longest-path recursion: the defining row of
/// every column, and the makespan with its slope along one parameter
/// axis (the slope of the argmax path, i.e. a subgradient of `T`).
struct Forward {
    winner: Vec<u32>,
    makespan: f64,
    slope: f64,
}

impl CrashRow {
    /// Multiplier of the parameter on `axis` (0 = `L`, 1 = `G`, 2 = `o`).
    fn m(&self, axis: usize) -> f64 {
        [self.ml, self.mg, self.mo][axis]
    }

    /// Length through this row at `at`, given its base's potential.
    fn score(&self, from: f64, at: [f64; 3]) -> f64 {
        from + self.c + self.ml * at[0] + self.mg * at[1] + self.mo * at[2]
    }
}

impl CrashPlan {
    /// Instantiate the plan into a concrete [`Basis`] at parameter point
    /// `(l, g, o)` under the given selection rule.
    pub fn basis_at(&self, kind: CrashKind, l: f64, g: f64, o: f64) -> Basis {
        let pass = self.forward(kind, [l, g, o], None);
        Basis::from_statuses(self.col_status.clone(), self.row_status(&pass.winner))
    }

    /// The crash for the tolerance flip (§II-D2): `max x_axis` subject to
    /// `t ≤ cap`, every parameter at least its value in `at` (the swept
    /// one's value is its floor). Finds the answer `x*` combinatorially —
    /// a Newton descent from above on the convex piecewise-linear `T`,
    /// one forward pass per step — then instantiates the longest-path
    /// basis at `x*` with the parameter column basic and `t` resting on
    /// its upper bound `cap`. That basis is optimal for the flipped LP up
    /// to ties at `x*`, so the simplex certifies it without pivoting.
    ///
    /// `None` when no such basis exists: the floor already exceeds the
    /// cap (infeasible), no path depends on the parameter (unbounded), or
    /// the argmax path at `x*` is flat (the basis would be singular).
    pub fn tolerance_basis(&self, axis: usize, at: [f64; 3], cap: f64) -> Option<Basis> {
        self.tolerance_basis_capped(axis, at, cap, NEWTON_CAP)
    }

    fn tolerance_basis_capped(
        &self,
        axis: usize,
        at: [f64; 3],
        cap: f64,
        max_steps: usize,
    ) -> Option<Basis> {
        let floor = at[axis];
        let point = |x: f64| {
            let mut p = at;
            p[axis] = x;
            p
        };
        if self
            .forward(CrashKind::LongestPath, at, Some(axis))
            .makespan
            > cap
        {
            return None;
        }
        // Start on the asymptote: the steepest path's line lies below
        // `T`, so where it reaches the cap `T` has already passed it.
        let (value, slope) = self.steepest(at, axis);
        if slope <= 0.0 {
            return None;
        }
        let mut x = floor + ((cap - value) / slope).max(0.0);
        let mut pass = self.forward(CrashKind::LongestPath, point(x), Some(axis));
        // Newton from above: the argmax path's line is a supporting line
        // of the convex `T`, so its root never undershoots `x*`.
        for _ in 0..max_steps {
            if pass.makespan <= cap || pass.slope <= 0.0 {
                break;
            }
            let next = (x - (pass.makespan - cap) / pass.slope).max(floor);
            if next >= x {
                break;
            }
            x = next;
            pass = self.forward(CrashKind::LongestPath, point(x), Some(axis));
        }
        if pass.slope <= 0.0 {
            return None;
        }
        let mut cols = self.col_status.clone();
        cols[axis] = VarStatus::Basic;
        cols[self.t_col as usize] = VarStatus::AtUpper;
        Some(Basis::from_statuses(cols, self.row_status(&pass.winner)))
    }

    /// Run the recursion at `at` (rows are stored in topological order,
    /// so every base's potential is final before it is referenced).
    /// With `along = Some(axis)` it also carries each potential's slope
    /// along `axis` and breaks exact ties toward the steeper row: at a
    /// cap where a flat path ties, that keeps the flipped basis
    /// nonsingular.
    fn forward(&self, kind: CrashKind, at: [f64; 3], along: Option<usize>) -> Forward {
        let n_cols = self.col_status.len();
        // Longest-path potential per column (only targets/bases are read;
        // sources implicitly contribute 0 through `NO_BASE`).
        let mut pot = vec![0.0f64; n_cols];
        let mut slope = vec![0.0f64; n_cols];
        let mut winner: Vec<u32> = vec![NO_BASE; n_cols];
        let mut best: Vec<f64> = vec![f64::NEG_INFINITY; n_cols];
        for (i, r) in self.rows.iter().enumerate() {
            let tgt = r.target as usize;
            let (from, from_slope) = if r.base == NO_BASE {
                (0.0, 0.0)
            } else {
                (pot[r.base as usize], slope[r.base as usize])
            };
            let score = match kind {
                CrashKind::LongestPath => r.score(from, at),
                CrashKind::Topological => r.c,
            };
            let m = along.map_or(0.0, |axis| from_slope + r.m(axis));
            // Strict `>`: remaining ties keep the lowest row index.
            if winner[tgt] == NO_BASE || score > best[tgt] || (score == best[tgt] && m > slope[tgt])
            {
                winner[tgt] = i as u32;
                best[tgt] = score;
                slope[tgt] = m;
            }
            if matches!(kind, CrashKind::LongestPath) && best[tgt] > pot[tgt] {
                pot[tgt] = best[tgt];
            }
        }
        let t = self.t_col as usize;
        Forward {
            winner,
            makespan: pot[t],
            slope: slope[t],
        }
    }

    /// The makespan's asymptotic line along `axis`: the steepest path,
    /// ties broken toward the longest at `at`. Returns its value at `at`
    /// and its slope.
    fn steepest(&self, at: [f64; 3], axis: usize) -> (f64, f64) {
        let n_cols = self.col_status.len();
        let mut best = vec![(f64::NEG_INFINITY, f64::NEG_INFINITY); n_cols];
        for r in &self.rows {
            let (from_slope, from) = if r.base == NO_BASE {
                (0.0, 0.0)
            } else {
                best[r.base as usize]
            };
            let cand = (from_slope + r.m(axis), r.score(from, at));
            let b = &mut best[r.target as usize];
            if cand.0 > b.0 || (cand.0 == b.0 && cand.1 > b.1) {
                *b = cand;
            }
        }
        let (slope, value) = best[self.t_col as usize];
        (value, slope)
    }

    /// Row statuses for a set of per-column defining rows: each defining
    /// row tight, every other row's logical basic.
    fn row_status(&self, winner: &[u32]) -> Vec<VarStatus> {
        let mut row_status = vec![VarStatus::Basic; self.rows.len()];
        for (tgt, &w) in winner.iter().enumerate() {
            debug_assert!(
                w != NO_BASE || self.col_status[tgt] != VarStatus::Basic || self.rows.is_empty(),
                "basic crash column {tgt} has no defining row"
            );
            if w != NO_BASE {
                row_status[w as usize] = VarStatus::AtLower;
            }
        }
        row_status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llamp_lp::SparseSimplex;
    use llamp_lp::{LpModel, Objective, Relation, VarId};

    /// Diamond: t ≥ y; y ≥ 1 + 2l (edge A), y ≥ 3 (edge B). Below
    /// l = 1 the constant edge defines the max; above, the latency edge.
    fn diamond() -> CrashPlan {
        let row = |target, base, c, ml| CrashRow {
            target,
            base,
            c,
            ml,
            mg: 0.0,
            mo: 0.0,
        };
        CrashPlan {
            // cols: l (param), t, y
            col_status: vec![VarStatus::AtLower, VarStatus::Basic, VarStatus::Basic],
            t_col: 1,
            rows: vec![
                row(2, NO_BASE, 1.0, 2.0), // y ≥ 1 + 2l
                row(2, NO_BASE, 3.0, 0.0), // y ≥ 3
                row(1, 2, 0.5, 0.0),       // t ≥ y + 0.5
            ],
        }
    }

    #[test]
    fn longest_path_winner_tracks_the_point() {
        let plan = diamond();
        let low = plan.basis_at(CrashKind::LongestPath, 0.0, 0.0, 0.0);
        let high = plan.basis_at(CrashKind::LongestPath, 5.0, 0.0, 0.0);
        assert_ne!(low, high, "different points pick different in-edges");
        // The topological heuristic always picks the constant edge.
        let topo = plan.basis_at(CrashKind::Topological, 5.0, 0.0, 0.0);
        assert_eq!(low, topo);
    }

    /// Four pieces: y ≥ 10, y ≥ 6 + l, y ≥ 2l, y ≥ 4l − 16, t ≥ y. So
    /// T = 10 on [0, 4], 6 + l on [4, 6], 2l on [6, 8], 4l − 16 beyond.
    fn staircase() -> CrashPlan {
        let row = |c, ml| CrashRow {
            target: 2,
            base: NO_BASE,
            c,
            ml,
            mg: 0.0,
            mo: 0.0,
        };
        CrashPlan {
            col_status: vec![VarStatus::AtLower, VarStatus::Basic, VarStatus::Basic],
            t_col: 1,
            rows: vec![
                row(10.0, 0.0),
                row(6.0, 1.0),
                row(0.0, 2.0),
                row(-16.0, 4.0),
                CrashRow {
                    target: 1,
                    base: 2,
                    ..row(0.0, 0.0)
                },
            ],
        }
    }

    /// The flipped LP a plan encodes: `max l` s.t. `l ≥ floor`,
    /// `t ≤ cap` and one `≥` row per crash row.
    fn flipped_lp(plan: &CrashPlan, floor: f64, cap: f64) -> (LpModel, VarId) {
        let mut m = LpModel::new(Objective::Maximize);
        let l = m.add_var("l", floor, f64::INFINITY, 1.0);
        m.add_var("t", f64::NEG_INFINITY, cap, 0.0);
        for j in 2..plan.col_status.len() {
            m.add_var(format!("y{j}"), f64::NEG_INFINITY, f64::INFINITY, 0.0);
        }
        for (i, r) in plan.rows.iter().enumerate() {
            let mut terms = vec![(VarId(r.target), 1.0)];
            if r.base != NO_BASE {
                terms.push((VarId(r.base), -1.0));
            }
            if r.ml != 0.0 {
                terms.push((l, -r.ml));
            }
            m.add_constraint(format!("r{i}"), &terms, Relation::Ge, r.c);
        }
        (m, l)
    }

    /// Certify `basis` on the flipped LP: (tolerance, pivots).
    fn certify(plan: &CrashPlan, basis: &Basis, cap: f64) -> (f64, u64) {
        let (m, l) = flipped_lp(plan, 0.0, cap);
        let mut solver = SparseSimplex::default();
        solver.seed(basis);
        let sol = solver.resolve(&m).unwrap();
        (
            sol.value(l),
            sol.stats().pivots + sol.stats().phase1_iterations,
        )
    }

    #[test]
    fn flipped_crash_is_the_answer_basis() {
        // T(l) = max(1 + 2l, 3) + 0.5 reaches 5.5 at l = 2 on the
        // latency edge: that edge tight, l basic, t at its cap.
        let plan = diamond();
        let basis = plan.tolerance_basis(0, [0.0; 3], 5.5).unwrap();
        let want = Basis::from_statuses(
            vec![VarStatus::Basic, VarStatus::AtUpper, VarStatus::Basic],
            vec![VarStatus::AtLower, VarStatus::Basic, VarStatus::AtLower],
        );
        assert_eq!(basis, want);
        assert_eq!(certify(&plan, &basis, 5.5), (2.0, 0));
    }

    #[test]
    fn no_flipped_crash_when_the_floor_breaks_the_cap() {
        // T(0) = 3.5 > 3: infeasible, the solve reports it as before.
        assert!(diamond().tolerance_basis(0, [0.0; 3], 3.0).is_none());
        // A floor past the answer is the same case.
        assert!(diamond().tolerance_basis(0, [3.0, 0.0, 0.0], 5.5).is_none());
    }

    #[test]
    fn no_flipped_crash_for_a_latency_free_plan() {
        // Max path slope 0: the flipped LP is unbounded.
        let mut plan = diamond();
        plan.rows[0].ml = 0.0;
        assert!(plan.tolerance_basis(0, [0.0; 3], 10.0).is_none());
    }

    #[test]
    fn cap_at_a_breakpoint_stays_exact() {
        // Cap 12 is T at the 6 + l / 2l breakpoint, l = 6: both rows
        // tie there, and the answer must still be exactly 6.
        let plan = staircase();
        let basis = plan.tolerance_basis(0, [0.0; 3], 12.0).unwrap();
        let (l, work) = certify(&plan, &basis, 12.0);
        assert_eq!(l, 6.0);
        assert!(work <= 2, "{work} pivots at a tie");
        // Cap 3.5 on the diamond: T is flat at 3.5 up to the breakpoint
        // l = 1, where the latency edge (lowest row) wins the tie.
        let plan = diamond();
        let basis = plan.tolerance_basis(0, [0.0; 3], 3.5).unwrap();
        assert_eq!(certify(&plan, &basis, 3.5).0, 1.0);
    }

    #[test]
    fn newton_walks_down_the_pieces() {
        // Cap 11: the asymptote 4l − 16 reaches it at 6.75 (on the 2l
        // piece), Newton then steps to 5.5 (6 + l) and lands on 5.
        let plan = staircase();
        let full = plan.tolerance_basis(0, [0.0; 3], 11.0).unwrap();
        assert_eq!(certify(&plan, &full, 11.0), (5.0, 0));
        // Capped before converging, the hand-over basis is a different
        // one; the simplex still certifies the exact answer from it.
        for steps in [0, 1] {
            let early = plan
                .tolerance_basis_capped(0, [0.0; 3], 11.0, steps)
                .unwrap();
            if steps == 0 {
                assert_ne!(early, full, "the asymptote's piece is not the answer's");
            }
            assert_eq!(certify(&plan, &early, 11.0).0, 5.0, "{steps} steps");
        }
    }

    #[test]
    fn exact_tie_keeps_the_lowest_row() {
        // At l = 1 both in-edges score 3.0: the first row must win.
        let plan = diamond();
        let tie = plan.basis_at(CrashKind::LongestPath, 1.0, 0.0, 0.0);
        let high = plan.basis_at(CrashKind::LongestPath, 5.0, 0.0, 0.0);
        assert_eq!(tie, high, "tie resolves to the lowest (latency) row");
    }
}
