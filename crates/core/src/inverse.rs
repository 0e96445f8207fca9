//! Inverting the convex runtime curve: the largest parameter value whose
//! runtime stays under a cap (§II-D2's x% latency tolerance).
//!
//! `T` is a max of linear path costs, so it is convex and piecewise
//! linear, and every evaluation that reports a critical path also
//! reports that path's line: its value `T(x)` and its slope, a
//! subgradient of `T` at `x`. That line supports `T` everywhere, so its
//! root never lies below the answer `x*`. Newton from above,
//! `x ← x − (T(x) − cap)/slope`, therefore never overshoots, and each
//! step lands on a piece of strictly smaller slope. The descent needs at
//! most one evaluation per breakpoint of `T` between `x*` and the start,
//! plus one that confirms the final piece, and it ends with an exact
//! solve on that piece's line.
//!
//! The routine is oracle-driven: direct evaluation answers the `eval`
//! backend's tolerance zones with it, and the flipped crash of the
//! tolerance LP finds its basis point with the forward longest-path pass
//! as the oracle.

/// Where a descent ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inverse {
    /// The answer `x*`: the root of the final line, kept inside
    /// `[floor, start]`.
    pub x: f64,
    /// Oracle calls made; the start point's evaluation is the caller's.
    pub evaluations: u32,
}

/// The largest `x` in `[floor, start]` with `T(x) ≤ cap`, for a convex
/// nondecreasing `T` given by `oracle(x) = (T(x), slope)`, where `slope`
/// is the slope of a line through `(x, T(x))` that stays below `T` (the
/// critical path's parameter multiplier).
///
/// `start` must lie at or above the answer, with `at_start` its oracle
/// value; the caller evaluates it because it usually needs that value
/// itself (the top of a search window, or an asymptote). The descent
/// stops once `T(x) ≤ cap`, once a step lands on a piece no flatter than
/// the last (the final line), or once a step no longer lowers `x` (the
/// float fixed point). A zero slope above the cap ends it as well; the
/// returned `x` is then the last point evaluated.
pub fn convex_inverse(
    mut oracle: impl FnMut(f64) -> (f64, f64),
    floor: f64,
    cap: f64,
    start: f64,
    at_start: (f64, f64),
) -> Inverse {
    let (mut x, (mut t, mut slope)) = (start, at_start);
    let mut evaluations = 0;
    while t > cap && slope > 0.0 {
        let next = (x - (t - cap) / slope).max(floor);
        if next >= x {
            break;
        }
        let (t_next, slope_next) = oracle(next);
        evaluations += 1;
        let final_piece = slope_next >= slope;
        (x, t, slope) = (next, t_next, slope_next);
        if final_piece {
            break;
        }
    }
    if slope > 0.0 {
        x = (x - (t - cap) / slope).max(floor).min(start);
    }
    Inverse { x, evaluations }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `T = max(10, 6 + x, 2x, 4x − 16)`: pieces meet at 4, 6 and 8.
    fn staircase(x: f64) -> (f64, f64) {
        [(10.0, 0.0), (6.0, 1.0), (0.0, 2.0), (-16.0, 4.0)]
            .into_iter()
            .map(|(c, m)| (c + m * x, m))
            .fold((f64::NEG_INFINITY, 0.0), |best, cand| {
                if cand.0 > best.0 || (cand.0 == best.0 && cand.1 > best.1) {
                    cand
                } else {
                    best
                }
            })
    }

    fn descend(cap: f64, start: f64) -> (Inverse, Vec<f64>) {
        let mut visited = Vec::new();
        let inv = convex_inverse(
            |x| {
                visited.push(x);
                staircase(x)
            },
            0.0,
            cap,
            start,
            staircase(start),
        );
        (inv, visited)
    }

    #[test]
    fn walks_down_one_piece_per_step() {
        // From 20 (on 4x − 16, T = 64): root 6.75 on 2x, then 5.5 on
        // 6 + x, then 5 exactly.
        let (inv, visited) = descend(11.0, 20.0);
        assert_eq!(visited, vec![6.75, 5.5, 5.0]);
        assert_eq!(
            inv,
            Inverse {
                x: 5.0,
                evaluations: 3
            }
        );
    }

    #[test]
    fn cap_at_a_breakpoint_is_exact() {
        assert_eq!(descend(12.0, 20.0).0.x, 6.0);
        assert_eq!(descend(16.0, 20.0).0.x, 8.0);
    }

    #[test]
    fn start_on_the_answer_needs_no_evaluation() {
        assert_eq!(
            descend(11.0, 5.0).0,
            Inverse {
                x: 5.0,
                evaluations: 0
            }
        );
    }

    #[test]
    fn the_floor_bounds_the_descent() {
        // Every point of the flat piece satisfies cap 10; a start on the
        // first sloped piece walks down to its root, 4.
        assert_eq!(descend(10.0, 5.0).0.x, 4.0);
        let inv = convex_inverse(staircase, 4.5, 10.0, 5.0, staircase(5.0));
        assert_eq!(inv.x, 4.5);
    }

    #[test]
    fn a_noisy_final_piece_costs_one_confirming_evaluation() {
        // The oracle reports the final line slightly above the cap at
        // every point, as rounding can: the descent stops on the repeated
        // slope and solves that line instead of walking on.
        let noisy = |x: f64| (6.0 + x + 1e-9, 1.0);
        let inv = convex_inverse(noisy, 0.0, 11.0, 20.0, (64.0, 4.0));
        assert_eq!(inv.evaluations, 2);
        assert!((inv.x - 5.0).abs() < 1e-8, "{}", inv.x);
    }
}
