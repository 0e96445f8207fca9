#!/usr/bin/env python3
"""perfbench: the LLAMP benchmark, measured outside-in.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lulesh-1m --seed 0 --seconds 20 --trace 0

It builds the release `llamp` binary and the probe (perfbench/probe) from
source, writes the workload's spec with its seed-shifted latency grid, and
then runs one of two passes:

* untraced (--trace 0): `llamp run SPEC --threads 2` as a user runs it,
  repeated, for the end-to-end metrics, plus set-up timed by the probe;
* traced (--trace 1): the probe's traced pass, which times calls into
  each layer's public functions, for the per-layer metrics.

Both passes check the answers across engines and gate determinism. The
last line of standard output is one JSON object: correct, attempted,
failed (answers) and metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
THREADS = 2
# Share of --seconds the untraced pass gives to timing set-up.
SETUP_SHARE = 0.15
# Fewest samples of a timing in one run; a median needs a few.
MIN_SAMPLES = 3

# reference: the spec runs a single engine, so its answers are checked
#   against the envelope (`Analyzer::profile`), computed outside the
#   timed runs.
# cache: each run writes a fresh --cache file.
# per_l: answers per ∆L sample (the G axis of apps-axes has 5 samples).
WORKLOADS = {
    "lulesh-1m": {"reference": False, "cache": False, "per_l": 1},
    "lulesh-lp": {"reference": True, "cache": False, "per_l": 1},
    "apps-grid": {"reference": False, "cache": True, "per_l": 1},
    "apps-axes": {"reference": False, "cache": True, "per_l": 5},
}

# Cross-engine tolerances.
T_REL = 1e-9
LAMBDA_TOL = 1e-9
ZONE_REL = 1e-6


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(2)


# ---------------------------------------------------------------------------
# Build and spec


def build():
    """Build `llamp` and the probe into the benchmark's target directory."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "engine").is_dir():
        fail(f"{ROOT} is not an LLAMP checkout (no Cargo.toml / crates/engine)")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for extra in (["-p", "llamp-engine", "--bin", "llamp"],
                  ["--manifest-path", str(HERE / "probe" / "Cargo.toml")]):
        if subprocess.run(cargo + extra, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            fail("build failed")
    release = target / "release"
    return release / "llamp", release / "llamp-perfbench-probe"


def seed_shift(seed):
    """A seed's fraction of one grid step, in [0, 1); seed 0 shifts nothing."""
    return (seed * 0.6180339887498949) % 1.0


WINDOW = re.compile(r"^window = \{ lo = ([0-9.]+), hi = ([0-9.]+), points = ([0-9]+) \}$", re.M)


def write_spec(workload, seed, out):
    """The workload's template with its ∆L window shifted by the seed's
    fraction of one step and written out as explicit samples."""
    text = (HERE / "specs" / f"{workload}.toml").read_text()
    m = WINDOW.search(text)
    lo, hi, n = float(m.group(1)), float(m.group(2)), int(m.group(3))
    step = (hi - lo) / (n - 1)
    shift = seed_shift(seed) * step
    deltas = [lo + shift + i * step for i in range(n)]
    line = "deltas_ns = [" + ", ".join(repr(d) for d in deltas) + "]"
    spec = text[: m.start()] + f"# seed {seed}: window shifted by {shift!r} ns\n" + line + text[m.end():]
    out.write_text(spec)
    return len(deltas)


# ---------------------------------------------------------------------------
# Cross-engine check


def family(backend):
    return "lp" if backend.startswith("lp") else backend


def close_rel(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def answers(scenario):
    """(slot, value) pairs of one answered scenario. Points carry
    (T, λ...), zones carry (baseline T, zone or None for infinite)."""
    out = []
    for p in scenario.get("sweep", []):
        out.append((("pt", p["delta_l_ns"]), (p["runtime_ns"], [p["lambda"]])))
    for p in scenario.get("points", []):
        lam = [p["lambda_l"], p["lambda_g"], p["lambda_o"]]
        out.append((("pt", tuple(p["deltas"])), (p["runtime_ns"], lam)))
    z = scenario["zones"]
    for k in ("pct1_ns", "pct2_ns", "pct5_ns"):
        out.append((("zone", k), (z["baseline_runtime_ns"], z[k])))
    return out


def disagreement(slot, mine, ref):
    """Why an answer disagrees with the reference engine's, or None."""
    if slot[0] == "pt":
        (t, lam), (rt, rlam) = mine, ref
        if not close_rel(t, rt, T_REL):
            return f"T {t!r} vs {rt!r}"
        for a, b in zip(lam, rlam):
            if abs(a - b) > LAMBDA_TOL * max(1.0, abs(a), abs(b)):
                return f"lambda {lam} vs {rlam}"
        return None
    (t, zone), (rt, rzone) = mine, ref
    if not close_rel(t, rt, T_REL):
        return f"baseline T {t!r} vs {rt!r}"
    if (zone is None) != (rzone is None):
        return f"zone {zone!r} vs {rzone!r} (infinite on one side)"
    if zone is not None and abs(zone - rzone) > ZONE_REL * max(abs(zone), abs(rzone), 1.0):
        return f"zone {zone!r} vs {rzone!r}"
    return None


def cross_check(results, reference, answers_per_scenario):
    """Check every answer of a results file against the reference engine
    of its model: the envelope when the run has it, else the reference
    file's envelope, else eval. Returns (attempted, failures)."""
    def model(sc):
        s = sc["scenario"]
        return (s["workload"], s["topology"], s["params"], s["reduce"], tuple(s.get("axes", [])))

    engines = {}
    for source, doc in (("run", results), ("reference", reference)):
        for sc in (doc or {}).get("scenarios", []):
            fam = family(sc["scenario"]["backend"])
            engines.setdefault(model(sc), {})[(source, fam)] = sc
    if not results.get("scenarios"):
        return 1, ["no results"]
    attempted, failures = 0, []
    for sc in results["scenarios"]:
        name = f"{sc['scenario']['workload']} {sc['scenario']['topology']} {sc['scenario']['backend']}"
        attempted += answers_per_scenario
        if "error" in sc:
            failures += [f"{name}: scenario failed: {sc['error']}"] * answers_per_scenario
            continue
        mine = answers(sc)
        if len(mine) != answers_per_scenario:
            failures += [f"{name}: {len(mine)} answers, expected {answers_per_scenario}"] * answers_per_scenario
            continue
        candidates = engines[model(sc)]
        ref = None
        for key in (("run", "parametric"), ("reference", "parametric"), ("run", "eval"), ("run", "lp")):
            other = candidates.get(key)
            if other is not None and other is not sc and "error" not in other:
                ref = other
                break
        if ref is None:
            failures += [f"{name}: no other engine answered this model"] * answers_per_scenario
            continue
        theirs = dict(answers(ref))
        for slot, value in mine:
            if slot not in theirs:
                failures.append(f"{name} {slot}: missing from {ref['scenario']['backend']}")
                continue
            why = disagreement(slot, value, theirs[slot])
            if why:
                failures.append(f"{name} {slot}: {why} ({ref['scenario']['backend']})")
    return attempted, failures


# ---------------------------------------------------------------------------
# State kept across runs in one checkout (determinism gate)


def load_state(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def save_state(path, state):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    tmp.replace(path)


def sha(data):
    return hashlib.sha256(data).hexdigest()


def state_key(args, llamp, probe):
    """Runs compare only with runs of the same workload, seed and build."""
    build_id = sha(llamp.read_bytes() + probe.read_bytes())[:16]
    return f"{args.workload}|{args.seed}|{build_id}"


# ---------------------------------------------------------------------------
# Passes


def run_probe(probe, args):
    p = subprocess.run([str(probe)] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode:
        fail(f"probe {args[0]} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def timed_run(cmd, cwd):
    """Run one process; its wall time (s) and peak resident set (MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # Reaped here, so Popen must not wait for it again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr.decode(errors="replace")


def untraced(args, llamp, probe, work, spec, reference, answers_per_scenario, state):
    budget = args.seconds
    # Set-ups and runs alternate, so both sample the whole run's time.
    setup_batch = ["setup", str(spec), "--seconds", repr(SETUP_SHARE * budget / MIN_SAMPLES)]

    begin = time.perf_counter()
    setup, walls, rss, digests, problems = [], [], [], [], []
    first = None
    while True:
        setup += run_probe(probe, setup_batch)["setup_s"]
        out = work / "results.json"
        cache = work / "cache.json"
        for f in (out, cache):
            if f.exists():
                f.unlink()
        cmd = [str(llamp), "run", str(spec), "--threads", str(THREADS), "--out", str(out), "--quiet"]
        if WORKLOADS[args.workload]["cache"]:
            cmd += ["--cache", str(cache)]
        wall, peak, code, err = timed_run(cmd, ROOT)
        if code != 0:
            problems.append(f"llamp run exited {code}: {err.strip()[-400:]}")
        data = out.read_bytes() if out.exists() else b""
        first = first or data
        walls.append(wall)
        rss.append(peak)
        digests.append(sha(data))
        spent = time.perf_counter() - begin
        if len(walls) >= MIN_SAMPLES and spent + spent / len(walls) > budget:
            break
    if len(set(digests)) != 1:
        problems.append("results JSON differs between timed runs")
    key = state_key(args, llamp, probe)
    known = state.get(key, {}).get("results_sha256")
    if known and known != digests[0]:
        problems.append("results JSON differs from an earlier run of this seed")
    state.setdefault(key, {})["results_sha256"] = digests[0]

    ref = json.loads(reference.read_text()) if reference else None
    attempted, failures = cross_check(json.loads(first or b"{\"scenarios\": []}"), ref, answers_per_scenario)
    runs = len(walls)
    metrics = {
        "run_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    log(f"{args.workload}: {runs} timed runs, {len(setup)} set-ups; run_s samples {[round(w, 3) for w in walls]}")
    return metrics, attempted * runs, len(failures) * runs, failures, problems


def traced(args, llamp, probe, work, spec, reference, answers_per_scenario, state, per_layer):
    line = run_probe(probe, ["trace", str(spec), "--seconds", repr(args.seconds), "--out", str(work)])
    problems = []
    values = line["metrics"]
    missing = [m for m in per_layer if m not in values]
    if missing:
        fail(f"probe did not report {missing}")
    results = (work / "results.json").read_bytes()
    entry = state.setdefault(state_key(args, llamp, probe), {})
    known = entry.get("results_sha256")
    if known and known != sha(results):
        problems.append("traced results JSON differs from what llamp run wrote")
    entry["results_sha256"] = sha(results)
    counts = {m: v for m, v in values.items() if not m.endswith("_s")}
    if "counts" in entry and entry["counts"] != counts:
        changed = sorted(m for m in counts if entry["counts"].get(m) != counts[m])
        problems.append(f"exact counts differ from an earlier traced run: {changed}")
    entry["counts"] = counts

    ref = json.loads(reference.read_text()) if reference else None
    attempted, failures = cross_check(json.loads(results), ref, answers_per_scenario)
    log(f"{args.workload}: {line['passes']} traced passes; timed on the control campaign: "
        + (", ".join(line["from_control"]) or "none"))
    log("self time per span (first pass, s): "
        + ", ".join(f"{k} {v:.4f}" for k, v in sorted(line["self_s"].items(), key=lambda kv: -kv[1])))
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {m: (values[m], units[m]) for m in per_layer}
    return metrics, attempted, len(failures), failures, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    llamp, probe = build()
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    spec = work / "spec.toml"
    workload = WORKLOADS[args.workload]
    # Every point, plus the three zone values.
    answers_per_scenario = write_spec(args.workload, args.seed, spec) * workload["per_l"] + 3
    reference = work / "reference.json" if workload["reference"] else None
    state_path = ROOT / ".bench_out" / "state.json"
    state = load_state(state_path)

    if reference:
        # The envelope's answers, computed outside the timed work.
        run_probe(probe, ["setup", str(spec), "--seconds", "0", "--reference", str(reference)])
    if args.trace:
        per_layer = [m["name"] for m in json.loads(bench.read_text())["per_layer"]]
        metrics, attempted, nfailed, failures, problems = traced(
            args, llamp, probe, work, spec, reference, answers_per_scenario, state, per_layer)
    else:
        metrics, attempted, nfailed, failures, problems = untraced(
            args, llamp, probe, work, spec, reference, answers_per_scenario, state)
    save_state(state_path, state)

    (work / "failures.json").write_text(json.dumps(failures, indent=1))
    for f in failures[:20]:
        log(f"FAILED ANSWER {f}")
    if len(failures) > 20:
        log(f"... {len(failures) - 20} more in {work / 'failures.json'}")
    for p in problems:
        log(f"PROBLEM {p}")
    ratio = nfailed / attempted if attempted else 1.0
    for name, (value, unit) in metrics.items():
        log(f"{args.workload} {name} = {value:.6g} {unit}")
    log(f"{args.workload} failed_ratio = {ratio:.6g} fraction ({nfailed} of {attempted} answers)")
    correct = nfailed == 0 and not problems and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": nfailed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
