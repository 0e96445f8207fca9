//! Criterion: LP solver costs on graph-shaped models.
//!
//! Measures (a) Algorithm 1 model construction, (b) repeated solves on
//! contracted graphs of growing size, (c) the parametric envelope pass,
//! (d) the tolerance flip, (e) the cold anchor, and (f) a 64-point
//! latency sweep on the largest bundled workload, crash-started per
//! point (what the engine does) vs. chained warm from the previous
//! point's basis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use llamp_bench::{graph_of, linspace};
use llamp_core::{Binding, GraphLp, ParametricProfile};
use llamp_model::LogGPSParams;
use llamp_schedgen::ExecGraph;
use llamp_util::time::us;
use llamp_workloads::App;
use std::hint::black_box;

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_solver");
    for iters in [1usize, 2, 4] {
        let graph = graph_of(&App::Cloverleaf.programs(8, iters)).contracted();
        let params = LogGPSParams::cscs_testbed(8).with_o(us(6.1));
        let binding = Binding::uniform(&params);

        group.bench_with_input(
            BenchmarkId::new("build_algorithm1", graph.num_vertices()),
            &graph,
            |b, g| b.iter(|| black_box(GraphLp::build(g, &binding))),
        );

        // Repeated predicts at one latency: after the first solve the
        // solver answers from the retained basis.
        group.bench_with_input(
            BenchmarkId::new("predict_sparse", graph.num_vertices()),
            &graph,
            |b, g| {
                let mut lp = GraphLp::build(g, &binding);
                b.iter(|| black_box(lp.predict(params.l).unwrap().runtime))
            },
        );

        group.bench_with_input(
            BenchmarkId::new("parametric_envelope", graph.num_vertices()),
            &graph,
            |b, g| b.iter(|| black_box(ParametricProfile::compute(g, &binding, (0.0, us(1000.0))))),
        );
    }
    group.finish();
}

fn bench_tolerance(c: &mut Criterion) {
    let graph = graph_of(&App::Milc.programs(8, 2)).contracted();
    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.0));
    let binding = Binding::uniform(&params);
    let mut lp = GraphLp::build(&graph, &binding);
    let t0 = lp.predict(params.l).unwrap().runtime;

    c.bench_function("lp_tolerance_flip", |b| {
        b.iter(|| black_box(lp.tolerance(0.0, t0 * 1.05).unwrap()))
    });
}

/// One full latency sweep. `crash` resets the solver before every
/// point, so each solve starts from its own longest-path crash basis;
/// otherwise each point warm-starts from the previous one's basis.
fn sweep(graph: &ExecGraph, binding: &Binding, deltas: &[f64], crash: bool) -> f64 {
    let mut lp = GraphLp::build(graph, binding);
    let mut acc = 0.0;
    for &d in deltas {
        if crash {
            lp.reset_backend();
        }
        acc += lp.predict(d).unwrap().runtime;
    }
    acc
}

/// A 64-point latency sweep on the largest bundled workload (by LP rows
/// at 8 ranks), crash-started per point vs. chained warm.
fn bench_sweep64(c: &mut Criterion) {
    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.0));
    let binding = Binding::uniform(&params);
    let deltas = linspace(0.0, us(60.0), 64);

    let (app, graph, rows) = App::ALL
        .iter()
        .map(|&app| {
            let g = graph_of(&app.programs(8, 1)).contracted();
            let rows = GraphLp::build(&g, &binding).model().num_constraints();
            (app, g, rows)
        })
        .max_by_key(|&(_, _, rows)| rows)
        .unwrap();

    let mut group = c.benchmark_group("sweep64");
    group.sample_size(2);
    let label = format!("{}_{}rows", app.name(), rows);
    for (mode, crash) in [("crash_sparse", true), ("warm_sparse", false)] {
        group.bench_with_input(BenchmarkId::new(mode, &label), &graph, |b, g| {
            b.iter(|| black_box(sweep(g, &binding, &deltas, crash)))
        });
    }
    group.finish();
}

/// The cold anchor solve in isolation: one fresh solver, one solve at
/// the base latency from the longest-path crash.
fn bench_cold_anchor(c: &mut Criterion) {
    let params = LogGPSParams::cscs_testbed(8).with_o(us(6.0));
    let binding = Binding::uniform(&params);
    let mut group = c.benchmark_group("cold_anchor");
    group.sample_size(5);
    for app in [App::Lulesh, App::Hpcg] {
        let graph = graph_of(&app.programs(8, 1)).contracted();
        let rows = GraphLp::build(&graph, &binding).model().num_constraints();
        let label = format!("{}_{}rows", app.name(), rows);
        group.bench_with_input(BenchmarkId::new("sparse", &label), &graph, |b, g| {
            b.iter(|| {
                let mut lp = GraphLp::build(g, &binding);
                black_box(lp.predict(params.l).unwrap().runtime)
            })
        });
    }
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
    targets = bench_lp, bench_tolerance, bench_cold_anchor, bench_sweep64
}
criterion_main!(benches);
