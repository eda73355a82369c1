#!/usr/bin/env python3
"""Record perfbench runs of one tree, or of two trees alternated, as BENCH_<label>.json.

    python3 bench/record.py --label panel [--seeds 10] [--seconds 20] [--base DIR]

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T`,
started in the tree it measures, with -B when this script runs without writing
bytecode (the facts record which); this script only reads the run's output
(its "round(s)" line, the facts line and the final JSON line). Per workload
the record keeps every run, and the median and interquartile range of
wall_s, setup_s, peak_rss_mb and gate_error, with the failed and attempted
operations and the rounds each run completed, and the per-layer metrics of
one `--trace 1` run at each of TRACE_SEEDS with each metric's median over them,
so a change's saving can be traced to its layer (one traced round alone varies
too widely to resolve a few milliseconds). With --base, every seed runs both
trees on the same argv, the two in turn (which goes first alternates with the
seed), the base tree's record is BENCH_<label>_base.json (so no earlier record
is overwritten), and the record of this tree compares each metric pair by pair
with it. Each record also holds one run of the Tier-1 suite in its tree (TIER1,
the two trees in turn under --base): its wall seconds, exit code and passed and
failed tests. The facts hold each tree's absolute path, since peak_rss_mb
follows the path's length: when the two paths differ in length, a warning says
so. Before each seed's runs of a workload, a machine probe runs in fresh
interpreters (see probe_once); the record keeps every probe and their medians,
and each workload's wall_s and setup_s medians divided by each probe median, so
records made on different days or machines read on one scale. A speed claim
still cites an alternated pair. Each record also holds the README's staged
default pipeline (crystal and modes, then optimize, report, sweep and powermap
for shapes A and B) run once in its tree, the two trees in turn under --base:
as 10 separate invocations and as the same cli.main calls in one interpreter
(see pipeline_once). Standard library only (the probe's and the pipeline's
child interpreters import numpy); it gates nothing.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gate_design", "gate_analysis", "chain_scan")
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "gate_error")  # all lower-is-better
TRACE_SEEDS = (1, 2, 3)
# ROADMAP's Tier-1 command, PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q
# --continue-on-collection-errors, with this interpreter
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
# The probe's fixed numpy load, the same in every tree: the best of 30 runs of a
# 50 x 50 eigh plus a 20,001-sample complex exp, printed in seconds
PROBE_KERNEL = """
import time
import numpy as np
matrix = np.random.default_rng(0).standard_normal((50, 50))
matrix += matrix.T
phase = np.linspace(0.0, 1e3, 20001)
best = float("inf")
for _ in range(30):
    start = time.perf_counter()
    np.linalg.eigh(matrix)
    np.exp(1j * phase)
    best = min(best, time.perf_counter() - start)
print(repr(best))
"""
PROBES = ("import_numpy_s", "kernel_s")
# perfbench/run.py pins BLAS to one thread before numpy loads; so do the probe and
# the pipeline
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The README's staged default pipeline: (command, shape) in order, on the default config
PIPELINE = (("crystal", None), ("modes", None),
            *((command, shape) for shape in "AB" for command in ("optimize", "report", "sweep", "powermap")))
# what a stage's manifest parameters say of its result, kept next to its timings
RESULTS = ("final_cost", "evaluations", "rule_nodes", "rule_gap", "budget_exhausted",
           "motional_error", "baseline_error", "fitted_slope")
# The pipeline's cli.main calls in one interpreter: argv[1] is a JSON list of
# [argv, manifest path]; each manifest is read after its call, and the last line
# printed is the list of them
PIPELINE_IN_PROCESS = """
import json, sys
from ionpulse import cli
manifests = []
for argv, manifest in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"ionpulse {' '.join(argv)} failed")
    with open(manifest) as fh:
        manifests.append(json.load(fh))
print(json.dumps(manifests))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json at the repo root")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--seconds", type=float, default=20.0, help="run.py --seconds")
    parser.add_argument("--base", type=Path, help="a second checkout to alternate with this one")
    return parser.parse_args(argv)


def python(*argv):
    """This interpreter on argv; -B passes its bytecode setting on, so the facts' value
    holds for every run."""
    return [sys.executable, *(["-B"] if sys.flags.dont_write_bytecode else []), *argv]


def perfbench(tree, argv):
    """The stdout lines of one perfbench run in `tree`; exits when the run fails."""
    proc = subprocess.run(python("perfbench/run.py", *argv), cwd=tree,
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return lines


def run_once(tree, argv):
    """One perfbench run in `tree`: its metric values, counts, rounds and facts."""
    lines = perfbench(tree, argv)
    result, facts = json.loads(lines[-1]), json.loads(lines[-2])["facts"]
    rounds = next(int(m.group(1)) for line in lines
                  if (m := re.match(r"workload \S+ seed \d+: (\d+) round", line)))
    run = {name: result["metrics"][name]["value"] for name in METRICS}
    run.update(failed=result["failed"], attempted=result["attempted"], rounds=rounds)
    return run, facts


def probe_once():
    """One machine probe: the wall seconds of a fresh `python -c "import numpy"` (start-up)
    and PROBE_KERNEL's best time in another fresh interpreter (numpy compute)."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    start = time.perf_counter()
    subprocess.run(python("-c", "import numpy"), env=env, check=True)
    import_s = time.perf_counter() - start
    kernel = subprocess.run(python("-c", PROBE_KERNEL), env=env, capture_output=True,
                            text=True, check=True)
    return {"import_numpy_s": import_s, "kernel_s": float(kernel.stdout)}


def trace_once(tree, workload, seed):
    """One `--trace 1` run of the workload in `tree` at `seed`: every per-layer metric."""
    result = json.loads(perfbench(tree, ["--workload", workload, "--seed", str(seed),
                                         "--trace", "1"])[-1])
    return {"seed": seed, "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {name: metric["value"] for name, metric in result["metrics"].items()}}


def tier1_once(tree):
    """One run of the Tier-1 suite in `tree`: wall seconds, exit code, passed and failed
    tests (pytest's errors count as failed)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(python(*TIER1), cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"wall_s": wall, "exit_code": proc.returncode, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def pipeline_once(tree):
    """The default pipeline in `tree`, run in a fresh output directory twice: as one
    `python -m ionpulse.cli` invocation per stage ("separate") and as the same cli.main
    calls in one interpreter ("one_process"). Each keeps its wall seconds, child
    interpreters' start-up included, and per stage the manifest's timings_s and RESULTS."""
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    out = {}
    for mode in ("separate", "one_process"):
        with tempfile.TemporaryDirectory() as work:
            calls = [(["-o", work, *(["--shape", shape] if shape else []), command],
                      os.path.join(work, f"{command}_manifest.json")) for command, shape in PIPELINE]
            start = time.perf_counter()
            if mode == "separate":
                manifests = []
                for argv, manifest in calls:
                    subprocess.run(python("-m", "ionpulse.cli", *argv), cwd=work, env=env,
                                   stdout=subprocess.DEVNULL, check=True)
                    manifests.append(json.loads(Path(manifest).read_text()))
            else:
                proc = subprocess.run(python("-c", PIPELINE_IN_PROCESS, json.dumps(calls)), cwd=work,
                                      env=env, capture_output=True, text=True, check=True)
                manifests = json.loads(proc.stdout.splitlines()[-1])
            wall = time.perf_counter() - start
        out[mode] = {"wall_s": wall, "stages": [
            {"command": command, "shape": shape, "timings_s": manifest["timings_s"],
             **{key: manifest["parameters"][key] for key in RESULTS if key in manifest["parameters"]}}
            for (command, shape), manifest in zip(PIPELINE, manifests)]}
    return out


def trace_summary(traces):
    """The traced runs and, per layer metric, the median of the runs that report it."""
    names = sorted({name for trace in traces for name in trace["metrics"]})
    median = {}
    for name in names:
        values = [trace["metrics"][name] for trace in traces
                  if trace["metrics"].get(name) is not None]
        if values:
            median[name] = statistics.median(values)
    return {"runs": traces, "median": median}


def quartiles(values):
    """(median, q3 - q1) of the values, with statistics' default (exclusive) quartiles."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q3 - q1


def summarize(runs, probe_median):
    summary = {"runs": runs, "median": {}, "iqr": {}}
    for name in METRICS:
        values = [run[name] for run in runs if run[name] is not None]
        if values:
            summary["median"][name], summary["iqr"][name] = quartiles(values)
    summary["relative"] = {f"{name}/{probe}": summary["median"][name] / probe_median[probe]
                           for name in ("wall_s", "setup_s") if name in summary["median"]
                           for probe in PROBES}
    summary["failed"] = sum(run["failed"] for run in runs)
    summary["attempted"] = sum(run["attempted"] for run in runs)
    summary["rounds"] = [run["rounds"] for run in runs]
    return summary


def compare(runs, base_runs):
    """Per metric: pairs where this tree is lower, the median change, the base's IQR."""
    out = {}
    for name in METRICS:
        pairs = [(run[name], base[name]) for run, base in zip(runs, base_runs)
                 if run[name] is not None and base[name] is not None]
        if not pairs:
            continue
        base_values = [base for _, base in pairs]
        out[name] = {
            "lower_in": sum(new < old for new, old in pairs),
            "pairs": len(pairs),
            "median_change": statistics.median(new - old for new, old in pairs),
            "base_median": quartiles(base_values)[0],
            "base_iqr": quartiles(base_values)[1],
        }
    return out


def describe(tree):
    """`git describe --always --dirty` of the tree, or None outside a clone."""
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def record(label, tree, argv_of, seeds, facts, workloads, traces, tier1, pipeline, probes):
    probe_median = {name: statistics.median(probe[name] for probe in probes) for name in PROBES}
    return {
        "label": label,
        "tree": describe(tree),
        "argv": argv_of("WORKLOAD", "SEED"),
        "seeds": seeds,
        # writing and reading .pyc files moves each interpreter start, and so setup_s, by ~33 ms
        "facts": {**facts, "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
                  "path": str(tree)},
        "workloads": {name: {**summarize(runs, probe_median), "trace": trace_summary(traces[name])}
                      for name, runs in workloads.items()},
        "tier1": tier1,
        "pipeline": pipeline,
        "probe": {"runs": probes, "median": probe_median},
    }


def main(argv=None):
    args = parse_args(argv)
    trees = [("this", ROOT)] + ([("base", args.base.resolve())] if args.base else [])
    seeds = list(range(1, args.seeds + 1))
    if len({len(str(tree)) for _, tree in trees}) > 1:
        print(f"warning: {' and '.join(str(tree) for _, tree in trees)} differ in path length; "
              "peak_rss_mb follows a tree's path length, so an RSS difference of a few tenths "
              "of a MB may be the paths', not the code's", file=sys.stderr, flush=True)

    def argv_of(workload, seed):
        return ["--workload", str(workload), "--seed", str(seed), "--seconds", f"{args.seconds:g}"]

    runs = {key: {name: [] for name in WORKLOADS} for key, _ in trees}
    traces = {key: {name: [] for name in WORKLOADS} for key, _ in trees}
    facts = {}
    probes = []
    for workload in WORKLOADS:
        for seed in seeds:
            probes.append({"workload": workload, "seed": seed, **probe_once()})
            print(f"{workload} seed {seed} probe: {probes[-1]}", flush=True)
            order = trees if seed % 2 else trees[::-1]
            for key, tree in order:
                run, facts[key] = run_once(tree, argv_of(workload, seed))
                runs[key][workload].append({"seed": seed, **run})
                print(f"{workload} seed {seed} {key}: wall_s {run['wall_s']}, "
                      f"gate_error {run['gate_error']}, {run['failed']} failed", flush=True)
        for seed in TRACE_SEEDS:
            for key, tree in trees if seed % 2 else trees[::-1]:
                trace = trace_once(tree, workload, seed)
                traces[key][workload].append(trace)
                print(f"{workload} traced seed {seed} {key}: "
                      f"trace.wall_s {trace['metrics']['trace.wall_s']}", flush=True)
    tier1, pipeline = {}, {}
    for key, tree in trees:
        tier1[key] = tier1_once(tree)
        print(f"tier1 {key}: {tier1[key]}", flush=True)
    for key, tree in trees:
        pipeline[key] = pipeline_once(tree)
        print(f"pipeline {key}: " + ", ".join(f"{mode} wall_s {run['wall_s']:.3f}"
                                               for mode, run in pipeline[key].items()), flush=True)

    this = record(args.label, ROOT, argv_of, seeds, facts["this"], runs["this"], traces["this"],
                  tier1["this"], pipeline["this"], probes)
    if args.base:
        base = record(f"{args.label}_base", trees[1][1], argv_of, seeds, facts["base"],
                      runs["base"], traces["base"], tier1["base"], pipeline["base"], probes)
        this["versus"] = {"label": base["label"], **{
            name: compare(runs["this"][name], runs["base"][name]) for name in WORKLOADS}}
        write(base)
    write(this)
    return 0


def write(rec):
    path = ROOT / f"BENCH_{rec['label']}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    sys.exit(main())
