#![deny(missing_docs)]
//! # llamp-faults — deterministic fault injection
//!
//! Armed *fault sites*: named points in the pipeline
//! (`cache.load.corrupt`, `solve.stall`, `exec.job.panic`,
//! `trace.parse.corrupt`, …) that ask [`should_inject`] whether to fail
//! on purpose. The answer is a **pure function of (seed, site, hit
//! index)** — no wall clock, no OS entropy — so a faulted run is exactly
//! reproducible, which is what lets the chaos suite assert that a
//! *recovered* run is byte-identical to the fault-free run.
//!
//! ## Spec syntax
//!
//! A spec is a comma-separated list of `site:arm` pairs:
//!
//! ```text
//! LLAMP_FAULTS="solve.stall:3,cache.load.corrupt:0.1" llamp run …
//! ```
//!
//! * `site:N` (integer) — fire exactly on the `N`-th hit of that site
//!   (1-based) and never again. Count-based arms produce *one* fault per
//!   site, so CI can demand full recovery and byte-identity.
//! * `site:P` (float containing `.`, in `[0,1)`) — fire each hit
//!   independently with probability `P`, decided by a counter-based
//!   seeded hash. Probability arms are for chaos sweeps where repeated
//!   faults may exhaust the recovery ladder; unrecovered runs must then
//!   fail with typed errors, never panics.
//!
//! The optional `LLAMP_FAULTS_SEED` (u64, default 0) perturbs the
//! probability hash; count arms ignore it.
//!
//! ## A handle belongs to the thread that installs it
//!
//! [`Faults::parse`] turns a spec into a handle and [`Faults::install`]
//! arms it on the calling thread until the returned guard drops (also on
//! unwind). [`should_inject`] consults only the calling thread's handle,
//! so threads with different specs never see each other's faults. The
//! hit and fired counters live in the handle: a count arm fires once
//! across every thread the handle is installed on. **Every spawn site
//! must pass the handle on**, together with the `llamp-obs` recorder:
//! capture [`current`] before spawning and install it in the new thread,
//! as the executor does.
//!
//! ## Zero overhead when off
//!
//! Like `llamp-obs`, [`should_inject`] first loads one relaxed atomic:
//! while no thread is armed it is a branch on a cached `false` — no
//! lock, no allocation, no hashing.
//!
//! Fault-site naming follows the observability scheme
//! (`subsystem.thing[.failure]`); the canonical site list lives in
//! `docs/ROBUSTNESS.md`. Every fired injection bumps the obs counters
//! `fault.injected` and `fault.injected.{site}`.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How one configured site decides whether a given hit fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    /// Fire exactly on the n-th hit (1-based), once.
    Nth(u64),
    /// Fire each hit independently with this probability.
    Prob(f64),
}

#[derive(Debug)]
struct Site {
    name: String,
    arm: Arm,
    /// Hits observed so far (1-based after `fetch_add`).
    hits: AtomicU64,
    /// Faults actually fired at this site.
    fired: AtomicU64,
}

/// A parsed fault spec with its hit and fired counters, shared by every
/// thread it is installed on. Cloning shares the counters.
#[derive(Debug, Clone)]
pub struct Faults {
    sites: Arc<[Site]>,
    seed: u64,
}

/// Handles installed on some thread. Only a filter for the off path:
/// zero means no thread is armed. `Relaxed` suffices because a thread
/// only ever reads the handle it installed itself.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Option<Faults>> = const { RefCell::new(None) };
}

/// A malformed fault spec (unknown arm syntax, probability out of range).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

fn parse_spec(spec: &str) -> Result<Vec<Site>, FaultSpecError> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((site, arm)) = part.rsplit_once(':') else {
            return Err(FaultSpecError(format!(
                "'{part}' — expected site:count or site:probability"
            )));
        };
        let site = site.trim();
        let arm = arm.trim();
        if site.is_empty() {
            return Err(FaultSpecError(format!("'{part}' — empty site name")));
        }
        let arm = if arm.contains('.') {
            let p: f64 = arm
                .parse()
                .map_err(|_| FaultSpecError(format!("'{part}' — bad probability '{arm}'")))?;
            if !(0.0..1.0).contains(&p) {
                return Err(FaultSpecError(format!(
                    "'{part}' — probability {p} outside [0, 1)"
                )));
            }
            Arm::Prob(p)
        } else {
            let n: u64 = arm
                .parse()
                .map_err(|_| FaultSpecError(format!("'{part}' — bad count '{arm}'")))?;
            if n == 0 {
                return Err(FaultSpecError(format!(
                    "'{part}' — counts are 1-based; ':1' fires on the first hit"
                )));
            }
            Arm::Nth(n)
        };
        out.push(Site {
            name: site.to_string(),
            arm,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        });
    }
    Ok(out)
}

impl Faults {
    /// Parse a spec (see the module docs for the syntax). An empty spec
    /// arms no site.
    pub fn parse(spec: &str, seed: u64) -> Result<Faults, FaultSpecError> {
        let sites = parse_spec(spec)?.into();
        Ok(Faults { sites, seed })
    }

    /// Parse the `LLAMP_FAULTS` / `LLAMP_FAULTS_SEED` environment
    /// variables. `None` when `LLAMP_FAULTS` is absent or arms no site.
    pub fn from_env() -> Result<Option<Faults>, FaultSpecError> {
        let spec = std::env::var("LLAMP_FAULTS").unwrap_or_default();
        let seed = std::env::var("LLAMP_FAULTS_SEED")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(0);
        let faults = Faults::parse(&spec, seed)?;
        Ok((!faults.sites.is_empty()).then_some(faults))
    }

    /// Arm this handle on the calling thread until the guard drops.
    pub fn install(&self) -> FaultsGuard {
        INSTALLED.fetch_add(1, Ordering::Relaxed);
        FaultsGuard(CURRENT.with(|c| c.replace(Some(self.clone()))), PhantomData)
    }

    /// Total faults fired across all sites, on every thread the handle
    /// is installed on.
    pub fn fired_total(&self) -> u64 {
        self.sites
            .iter()
            .map(|s| s.fired.load(Ordering::Relaxed))
            .sum()
    }
}

/// Restores the thread's previous handle on drop ([`Faults::install`]).
#[must_use = "the handle is uninstalled when the guard drops"]
pub struct FaultsGuard(Option<Faults>, PhantomData<*const ()>);

impl Drop for FaultsGuard {
    fn drop(&mut self) {
        let prev = self.0.take();
        let _ = CURRENT.try_with(|c| c.replace(prev));
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The handle of the calling thread, for a spawn site to pass on.
pub fn current() -> Option<Faults> {
    CURRENT.with(|c| c.borrow().clone())
}

/// splitmix64: the counter-based generator behind probability arms.
/// Small, stable, and good enough to decorrelate (seed, site, hit).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Should the pipeline fail on purpose at `site`, right now?
///
/// Counts the hit, decides deterministically from (seed, site, hit
/// index), and — when firing — bumps the `fault.injected` counters.
/// Callers own the *failure semantics*: a `true` answer means "behave
/// as if the fault the site names had just happened".
#[inline]
pub fn should_inject(site: &str) -> bool {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    should_inject_slow(site)
}

#[cold]
fn should_inject_slow(site: &str) -> bool {
    let Some(faults) = current() else {
        return false;
    };
    let Some(s) = faults.sites.iter().find(|s| s.name == site) else {
        return false;
    };
    let hit = s.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let fire = match s.arm {
        Arm::Nth(n) => hit == n,
        Arm::Prob(p) => {
            let h = splitmix64(
                faults.seed ^ fnv1a(site.as_bytes()) ^ hit.wrapping_mul(0x2545_F491_4F6C_DD1D),
            );
            // Map the top 53 bits to a unit float, same construction as
            // rand's `Open01`.
            let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            unit < p
        }
    };
    if fire {
        s.fired.fetch_add(1, Ordering::Relaxed);
        llamp_obs::counter("fault.injected", 1);
        if llamp_obs::is_enabled() {
            llamp_obs::counter(&format!("fault.injected.{site}"), 1);
        }
    }
    fire
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arm(spec: &str, seed: u64) -> Faults {
        Faults::parse(spec, seed).unwrap()
    }

    #[test]
    fn disabled_is_the_default_and_never_fires() {
        assert!(current().is_none());
        assert!(!should_inject("solve.stall"));
    }

    #[test]
    fn count_arm_fires_exactly_on_the_nth_hit() {
        let f = arm("solve.stall:3", 0);
        let _g = f.install();
        assert!(!should_inject("solve.stall"));
        assert!(!should_inject("solve.stall"));
        assert!(should_inject("solve.stall"));
        assert!(!should_inject("solve.stall"));
        assert!(!should_inject("solve.stall"));
        assert_eq!(f.fired_total(), 1);
        // Unconfigured sites never fire even while enabled.
        assert!(!should_inject("cache.load.corrupt"));
    }

    #[test]
    fn probability_arm_is_deterministic_in_seed_and_hit_index() {
        let pattern = |seed| {
            let _g = arm("exec.job.panic:0.5", seed).install();
            (0..64)
                .map(|_| should_inject("exec.job.panic"))
                .collect::<Vec<bool>>()
        };
        let a = pattern(42);
        let b = pattern(42);
        assert_eq!(a, b, "same seed + hit index must decide identically");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
        // A different seed gives a different firing pattern.
        assert_ne!(a, pattern(43));
    }

    #[test]
    fn multi_site_specs_parse_and_route() {
        let f = arm("a.b:1, c.d.e:0.0", 7);
        assert_eq!(f.sites.len(), 2);
        let _g = f.install();
        assert!(should_inject("a.b"));
        assert!(!should_inject("c.d.e")); // p = 0.0 never fires
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in ["solve.stall", "x:", "x:abc", "x:1.5", "x:-0.1", "x:0", ":3"] {
            assert!(Faults::parse(bad, 0).is_err(), "{bad} should be rejected");
        }
        // A failed parse leaves the installed handle in force, never a
        // half-applied one.
        let _g = arm("ok.site:1", 0).install();
        assert!(Faults::parse("broken", 0).is_err());
        assert!(should_inject("ok.site"));
    }

    #[test]
    fn empty_spec_disables() {
        let f = arm("", 0);
        let _g = f.install();
        assert!(!should_inject("a"));
        assert_eq!(f.fired_total(), 0);
    }

    #[test]
    fn guards_restore_the_previous_handle_also_on_unwind() {
        let outer = arm("a:1", 0);
        let _g = outer.install();
        let unwound = std::panic::catch_unwind(|| {
            let _inner = arm("b:1", 0).install();
            assert!(should_inject("b"));
            panic!("unwind past the guard");
        });
        assert!(unwound.is_err());
        // A thread the handle is not passed to is not armed.
        std::thread::scope(|s| {
            s.spawn(|| assert!(!should_inject("a")));
        });
        assert!(should_inject("a"));
        assert_eq!(outer.fired_total(), 1);
    }
}
