//! Three engines, one tolerance: on every bundled application under the
//! uniform, fat-tree and dragonfly bindings, the `eval` backend's zones
//! (a Newton descent on direct evaluation) must equal the `parametric`
//! backend's (the envelope's closed-form inverse) to 1e-12 relative, with
//! infinite zones on exactly the same scenarios.

use llamp_engine::{run_campaign, Backend, CampaignSpec, ExecutorConfig, ResultCache};
use std::collections::BTreeMap;

const APPS: [&str; 7] = [
    "cloverleaf",
    "hpcg",
    "icon",
    "lammps",
    "lulesh",
    "milc",
    "openmx",
];

fn spec() -> CampaignSpec {
    let mut src = String::from(
        r#"
name = "eval-zones"
backends = ["parametric", "eval"]

[grid]
deltas_ns = [0.0]
search_hi_ns = 2000000.0

[[topologies]]
kind = "uniform"

[[topologies]]
kind = "fattree"
k = 8

[[topologies]]
kind = "dragonfly"
groups = 9
routers = 4
hosts = 2
"#,
    );
    for app in APPS {
        src.push_str(&format!(
            "\n[[workloads]]\napp = \"{app}\"\nranks = 8\niters = 4\n"
        ));
    }
    CampaignSpec::parse(&src, "eval-zones.toml").unwrap()
}

#[test]
fn eval_zones_equal_the_envelope_on_every_app_and_topology() {
    let (result, _) = run_campaign(&spec(), &ExecutorConfig::default(), &ResultCache::new());
    let mut zones: BTreeMap<(String, String), [Option<[f64; 3]>; 2]> = BTreeMap::new();
    for sr in &result.scenarios {
        let sc = &sr.scenario;
        let out = sr.outcome.as_ref().expect("scenario answers");
        let z = [out.zones.pct1_ns, out.zones.pct2_ns, out.zones.pct5_ns];
        let slot = match sc.backend {
            Backend::Parametric => 0,
            Backend::Eval => 1,
            other => panic!("unexpected backend {other:?}"),
        };
        let key = (sc.workload.canonical(), sc.topology.canonical());
        zones.entry(key).or_default()[slot] = Some(z);
    }
    assert_eq!(zones.len(), APPS.len() * 3);
    let mut finite = 0;
    for ((workload, topology), [envelope, eval]) in &zones {
        let (envelope, eval) = (envelope.unwrap(), eval.unwrap());
        for (i, pct) in [1, 2, 5].into_iter().enumerate() {
            let (env, ev) = (envelope[i], eval[i]);
            let what =
                format!("{workload} on {topology}, {pct}% zone: eval {ev} vs envelope {env}");
            if env.is_infinite() || ev.is_infinite() {
                assert_eq!(env, ev, "{what}");
                continue;
            }
            finite += 1;
            assert!(
                (ev - env).abs() <= 1e-12 * ev.abs().max(env.abs()),
                "{what}"
            );
        }
    }
    assert!(
        finite > 50,
        "only {finite} finite zones: the check is nearly vacuous"
    );
}
