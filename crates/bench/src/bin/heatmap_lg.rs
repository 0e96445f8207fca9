//! L × G heatmap — the flagship multi-parameter (axes) campaign: one
//! workload swept over the cartesian product of added latency `∆L` and
//! added per-byte gap `∆G`, answered by the crash-started multi-parameter
//! LP. Each cell reports the slowdown relative to the base point; the
//! companion table shows how the sensitivity pair `(λ_L, λ_G)` moves as
//! either parameter starts dominating the critical path.
//!
//! ```text
//! cargo run --release -p llamp-bench --bin heatmap_lg
//! ```

use llamp_bench::{app_campaign_axes_spec, campaign_axis, Table};
use llamp_engine::{run_campaign, Backend, ExecutorConfig, LpSolver, ResultCache, SweepParam};
use llamp_util::time::us;
use llamp_workloads::App;

fn main() {
    let app = App::Milc;
    let (ranks, iters) = (8, 2);
    let l_axis = campaign_axis(SweepParam::L, 0.0, us(100.0), 6);
    let g_axis = campaign_axis(SweepParam::G, 0.0, 1.0, 5);
    let l_deltas = l_axis.deltas.clone();
    let g_deltas = g_axis.deltas.clone();
    let spec = app_campaign_axes_spec(
        &[(app, ranks, iters)],
        &[Backend::Lp(LpSolver::Sparse)],
        vec![l_axis, g_axis],
        us(2_000.0),
    );

    let (result, summary) = run_campaign(&spec, &ExecutorConfig::default(), &ResultCache::new());
    let outcome = result.scenarios[0]
        .outcome
        .as_ref()
        .expect("heatmap campaign solves");
    let base = outcome.points[0].value.runtime_ns;

    println!(
        "# {} {ranks} ranks — runtime slowdown vs (∆L, ∆G), base T0 = {:.3} ms\n",
        app.name(),
        base / 1e6
    );
    let header: Vec<String> = std::iter::once("∆L \\ ∆G [ns/B]".to_string())
        .chain(g_deltas.iter().map(|g| format!("{g:.3}")))
        .collect();
    let mut slow = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    let mut lams = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for (i, dl) in l_deltas.iter().enumerate() {
        let mut srow = vec![format!("{:.0} µs", dl / 1_000.0)];
        let mut lrow = srow.clone();
        for j in 0..g_deltas.len() {
            let v = &outcome.points[i * g_deltas.len() + j].value;
            srow.push(format!("{:+.1}%", 100.0 * (v.runtime_ns / base - 1.0)));
            lrow.push(format!("{:.0}/{:.2e}", v.lambda_l, v.lambda_g));
        }
        slow.row(srow);
        lams.row(lrow);
    }
    println!("{}", slow.render());
    println!("\n# sensitivities λ_L / λ_G per cell\n");
    println!("{}", lams.render());
    eprintln!("\n{}", summary.render());
    eprintln!("lp solver totals\n{}", summary.solver.render());
}
