//! Criterion: campaign throughput of the `llamp-engine` executor + cache.
//!
//! Measures jobs/second for a fixed campaign (7 workloads × eval backend
//! over a 5-point grid) at 1, 2 and N worker threads, cold-cache vs.
//! warm-cache. The warm rows quantify the full-cache-hit fast path (no
//! graph builds at all); the thread rows quantify executor scaling. A
//! second group runs a small campaign through the LP backend
//! (`lp-sparse`, crash-started per point).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use llamp_bench::{app_campaign_spec, campaign_grid};
use llamp_engine::{run_campaign, Backend, CampaignSpec, ExecutorConfig, LpSolver, ResultCache};
use llamp_util::time::us;
use llamp_workloads::App;
use std::hint::black_box;

fn bench_spec() -> CampaignSpec {
    let apps: Vec<(App, u32, usize)> = App::ALL.iter().map(|&a| (a, 8, 1)).collect();
    app_campaign_spec(
        &apps,
        &[Backend::Eval],
        campaign_grid(0.0, us(60.0), 5, us(1_000.0)),
    )
}

fn thread_counts() -> Vec<usize> {
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1];
    if n >= 2 {
        counts.push(2);
    }
    if n > 2 {
        counts.push(n);
    }
    counts
}

fn bench_engine(c: &mut Criterion) {
    let spec = bench_spec();
    let jobs = spec.workloads.len() as u64;
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(jobs));

    for threads in thread_counts() {
        let config = ExecutorConfig {
            threads,
            job_timeout: None,
            ..Default::default()
        };
        group.bench_with_input(
            BenchmarkId::new("cold_cache", threads),
            &config,
            |b, config| {
                // A fresh cache each iteration: every scenario computes.
                b.iter(|| {
                    let cache = ResultCache::new();
                    black_box(run_campaign(&spec, config, &cache))
                })
            },
        );

        let warm = ResultCache::new();
        run_campaign(&spec, &config, &warm);
        group.bench_with_input(
            BenchmarkId::new("warm_cache", threads),
            &config,
            |b, config| {
                // Warm cache: every scenario is a full hit, no graph builds.
                b.iter(|| black_box(run_campaign(&spec, config, &warm)))
            },
        );
    }
    group.finish();
}

/// A small campaign answered by the LP backend, every grid point from
/// its own longest-path crash basis.
fn bench_lp_backends(c: &mut Criterion) {
    // Two medium workloads over a 9-point grid keeps the dense row under
    // bench-friendly cost while still showing the per-point re-solve gap.
    let apps: Vec<(App, u32, usize)> = vec![(App::Milc, 8, 1), (App::Cloverleaf, 8, 1)];
    let grid = || campaign_grid(0.0, us(60.0), 9, us(1_000.0));
    let mut group = c.benchmark_group("engine_lp_backends");
    group.sample_size(2);
    let backend = Backend::Lp(LpSolver::Sparse);
    let spec = app_campaign_spec(&apps, &[backend], grid());
    group.bench_function(BenchmarkId::from_parameter(backend.name()), |b| {
        b.iter(|| {
            let cache = ResultCache::new();
            black_box(run_campaign(&spec, &ExecutorConfig::default(), &cache))
        })
    });
    group.finish();
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_engine, bench_lp_backends
}
criterion_main!(benches);
