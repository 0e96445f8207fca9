//! Work-stealing parallel executor.
//!
//! Jobs are distributed round-robin across per-worker deques; a worker
//! pops from the front of its own deque and, when empty, steals from the
//! back of the longest sibling deque — the classic split that keeps local
//! work cache-warm while idle workers drain stragglers. Built on std
//! threads and locks only (`std::thread::scope`, `Mutex`, channels): no
//! external runtime.
//!
//! Each job runs under `catch_unwind`, so one panicking scenario is
//! reported as [`JobStatus::Panicked`] instead of tearing down the
//! campaign, and its wall time is checked against an optional per-job
//! timeout: a job that exceeds it is reported as [`JobStatus::TimedOut`]
//! and its (late) result discarded. Cooperative timeout is the honest
//! contract without killing threads; a genuinely wedged job holds its
//! worker but cannot block the other workers from finishing the queue.
//!
//! Results are returned **in input order**, so executor output is
//! deterministic regardless of thread count or steal interleaving.
//!
//! Workers inherit the caller's `llamp-faults` handle and `llamp-obs`
//! recorder, so a campaign run under an armed spec or a recording sees
//! its workers' faults and spans, and a nested `run_jobs` inherits them
//! again.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker count; 0 = one per available core.
    pub threads: usize,
    /// Per-job wall-clock budget; `None` = unlimited.
    pub job_timeout: Option<Duration>,
    /// Extra attempts for a job that panicked or timed out. The first
    /// run is not a retry: `max_retries = 1` allows up to two runs.
    /// Deterministic jobs that fail deterministically simply fail
    /// `1 + max_retries` times; the retry exists for faults that do not
    /// reproduce (injected chaos, load-dependent timeouts). Retries
    /// run immediately.
    pub max_retries: u32,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            job_timeout: None,
            max_retries: 1,
        }
    }
}

impl ExecutorConfig {
    /// Resolved worker count (≥ 1).
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Terminal state of one job.
#[derive(Debug)]
pub enum JobStatus<R> {
    /// Completed within budget.
    Done(R),
    /// The job panicked; payload is the rendered panic message.
    Panicked(String),
    /// The job finished after its deadline; the result was discarded.
    TimedOut {
        /// How long the job actually ran.
        elapsed: Duration,
    },
}

impl<R> JobStatus<R> {
    /// The result, if the job completed in time.
    pub fn ok(self) -> Option<R> {
        match self {
            JobStatus::Done(r) => Some(r),
            _ => None,
        }
    }
}

/// Run `f` over `jobs` on a work-stealing pool, returning per-job
/// statuses in input order.
pub fn run_jobs<J, R, F>(config: &ExecutorConfig, jobs: Vec<J>, f: F) -> Vec<JobStatus<R>>
where
    J: Send,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let run_span = llamp_obs::span("exec.run");
    let n_jobs = jobs.len();
    let threads = config.effective_threads().min(n_jobs.max(1));
    if llamp_obs::is_enabled() {
        run_span.field_u64("jobs", n_jobs as u64);
        run_span.field_u64("workers", threads as u64);
    }
    // Per-worker deques, seeded round-robin. Entries carry the attempt
    // number so retries stay bounded.
    let deques: Vec<Mutex<VecDeque<(usize, u32, J)>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        deques[i % threads]
            .lock()
            .expect("deque lock")
            .push_back((i, 0, job));
    }

    let results: Mutex<Vec<Option<JobStatus<R>>>> = Mutex::new((0..n_jobs).map(|_| None).collect());
    let f = &f;
    let deques = &deques;
    let results_ref = &results;
    let timeout = config.job_timeout;
    let max_retries = config.max_retries;
    let faults = &llamp_faults::current();
    let recorder = &llamp_obs::current();

    std::thread::scope(|scope| {
        for me in 0..threads {
            scope.spawn(move || {
                let _faults = faults.as_ref().map(llamp_faults::Faults::install);
                let _recorder = recorder.as_ref().map(llamp_obs::Recorder::install);
                let mut busy_ns = 0u64;
                loop {
                    // Own deque first (front: FIFO locally for cache
                    // warmth of freshly seeded batches).
                    let next = deques[me].lock().expect("deque lock").pop_front();
                    let (idx, attempt, job, was_stolen) = match next {
                        Some((idx, a, j)) => (idx, a, j, false),
                        None => {
                            // Steal from the back of the fullest sibling.
                            let victim = (0..threads)
                                .filter(|&v| v != me)
                                .max_by_key(|&v| deques[v].lock().expect("deque lock").len());
                            let stolen = victim
                                .and_then(|v| deques[v].lock().expect("deque lock").pop_back());
                            match stolen {
                                Some((idx, a, j)) => (idx, a, j, true),
                                // All deques empty for this worker: a
                                // retry can only be re-enqueued by the
                                // worker that will itself keep looping
                                // (it pushes to its own deque), so an
                                // exit here never strands a job.
                                None => break,
                            }
                        }
                    };
                    // `exec.job` is the root span on this worker thread,
                    // so the thread's buffer flushes at every job end.
                    let job_span = llamp_obs::span("exec.job");
                    let started = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if llamp_faults::should_inject("exec.job.panic") {
                            panic!("injected fault: exec.job.panic");
                        }
                        f(&job)
                    }));
                    let elapsed = started.elapsed();
                    let status = match outcome {
                        Err(panic) => JobStatus::Panicked(panic_message(panic)),
                        Ok(_) if timeout.is_some_and(|t| elapsed > t) => {
                            JobStatus::TimedOut { elapsed }
                        }
                        Ok(r) => JobStatus::Done(r),
                    };
                    if llamp_obs::is_enabled() {
                        job_span.field_u64("idx", idx as u64);
                        job_span.field_u64("stolen", u64::from(was_stolen));
                        busy_ns += elapsed.as_nanos() as u64;
                        llamp_obs::counter("exec.jobs", 1);
                        if was_stolen {
                            llamp_obs::counter("exec.steals", 1);
                        }
                        match &status {
                            JobStatus::Panicked(_) => llamp_obs::counter("exec.panics", 1),
                            JobStatus::TimedOut { .. } => llamp_obs::counter("exec.timeouts", 1),
                            JobStatus::Done(_) => {}
                        }
                        llamp_obs::observe_ns("exec.job_ns", elapsed.as_nanos() as u64);
                    }
                    drop(job_span);
                    // Bounded retry: a failed attempt below the retry
                    // budget goes back on this worker's own deque (which
                    // this loop will drain).
                    if !matches!(status, JobStatus::Done(_)) && attempt < max_retries {
                        llamp_obs::counter("exec.retry", 1);
                        deques[me]
                            .lock()
                            .expect("deque lock")
                            .push_back((idx, attempt + 1, job));
                        continue;
                    }
                    results_ref.lock().expect("results lock")[idx] = Some(status);
                }
                if llamp_obs::is_enabled() {
                    llamp_obs::counter(&format!("exec.w{me}.busy_ns"), busy_ns);
                }
            });
        }
    });

    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect()
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_run_in_input_order() {
        let cfg = ExecutorConfig {
            threads: 4,
            ..Default::default()
        };
        let jobs: Vec<u64> = (0..100).collect();
        let out = run_jobs(&cfg, jobs, |&j| j * 2);
        assert_eq!(out.len(), 100);
        for (i, s) in out.into_iter().enumerate() {
            assert_eq!(s.ok(), Some(i as u64 * 2));
        }
    }

    #[test]
    fn panics_are_isolated() {
        let cfg = ExecutorConfig {
            threads: 2,
            ..Default::default()
        };
        let out = run_jobs(&cfg, vec![1, 2, 3], |&j| {
            if j == 2 {
                panic!("job {j} exploded");
            }
            j
        });
        assert!(matches!(out[0], JobStatus::Done(1)));
        match &out[1] {
            JobStatus::Panicked(msg) => assert!(msg.contains("exploded")),
            other => panic!("expected panic status, got {other:?}"),
        }
        assert!(matches!(out[2], JobStatus::Done(3)));
    }

    #[test]
    fn slow_jobs_time_out() {
        let cfg = ExecutorConfig {
            threads: 2,
            job_timeout: Some(Duration::from_millis(10)),
            ..Default::default()
        };
        let out = run_jobs(&cfg, vec![0u64, 50], |&ms| {
            std::thread::sleep(Duration::from_millis(ms));
            ms
        });
        assert!(matches!(out[0], JobStatus::Done(0)));
        assert!(matches!(out[1], JobStatus::TimedOut { .. }));
    }

    #[test]
    fn work_stealing_drains_imbalanced_queues() {
        // One worker's seeded jobs are heavy; others must steal them.
        let cfg = ExecutorConfig {
            threads: 4,
            ..Default::default()
        };
        let counter = AtomicUsize::new(0);
        let jobs: Vec<usize> = (0..64).collect();
        let out = run_jobs(&cfg, jobs, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(out.len(), 64);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn transient_panic_recovers_on_retry() {
        // Job 1 panics on its first attempt only; with the default retry
        // budget of one, the re-run succeeds and the campaign sees a
        // clean `Done` — the failure is fully absorbed.
        let cfg = ExecutorConfig {
            threads: 2,
            ..Default::default()
        };
        let first = AtomicUsize::new(0);
        let out = run_jobs(&cfg, vec![0usize, 1, 2], |&j| {
            if j == 1 && first.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            j * 10
        });
        assert!(matches!(out[0], JobStatus::Done(0)));
        assert!(matches!(out[1], JobStatus::Done(10)));
        assert!(matches!(out[2], JobStatus::Done(20)));
    }

    #[test]
    fn persistent_panic_exhausts_bounded_retries() {
        // A deterministic panic must fail exactly `1 + max_retries`
        // times, then surface as `Panicked` — bounded, not infinite.
        let cfg = ExecutorConfig {
            threads: 1,
            job_timeout: None,
            max_retries: 2,
        };
        let attempts = AtomicUsize::new(0);
        let out: Vec<JobStatus<()>> = run_jobs(&cfg, vec![()], |_| {
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("always");
        });
        assert!(matches!(&out[0], JobStatus::Panicked(m) if m.contains("always")));
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn zero_retries_preserves_fail_fast() {
        let cfg = ExecutorConfig {
            threads: 1,
            job_timeout: None,
            max_retries: 0,
        };
        let attempts = AtomicUsize::new(0);
        let out: Vec<JobStatus<()>> = run_jobs(&cfg, vec![()], |_| {
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("once");
        });
        assert!(matches!(&out[0], JobStatus::Panicked(_)));
        assert_eq!(attempts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn single_thread_matches_multi_thread() {
        let run = |threads| {
            let cfg = ExecutorConfig {
                threads,
                ..Default::default()
            };
            run_jobs(&cfg, (0..37u64).collect(), |&j| j * j)
                .into_iter()
                .map(|s| s.ok().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }
}
