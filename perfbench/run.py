#!/usr/bin/env python3
"""ionpulse benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload gate_design|gate_analysis|chain_scan \\
        --seed N --seconds S --trace 0|1

Run from the repository root; ionpulse is imported from ./src. BLAS is pinned
to one thread before numpy loads. A run repeats whole rounds of its workload
until --seconds have passed (at least one round) and reports the median round
as wall_s. With --trace 1 it runs one round untraced and one round with spans
around every layer (see layers.py) and reports the per-layer metrics instead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it holds the machine facts.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (the BLAS pin must precede any numpy import)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"  # scratch output of a run, removed when it ends
WORKLOAD_NAMES = ("gate_design", "gate_analysis", "chain_scan")
SETUP_SAMPLES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter, print it and exit")
    return parser.parse_args(argv)


def import_package():
    """Import ionpulse from ./src, refusing any other copy."""
    if not (SRC / "ionpulse" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ionpulse'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ionpulse

    if Path(ionpulse.__file__).resolve().parent != (SRC / "ionpulse").resolve():
        sys.exit(f"error: imported ionpulse from {ionpulse.__file__}, not from {SRC}")


def setup(name, seed):
    """Import the package and build the workload's inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    import_package()
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir=WORKDIR)
    return workload, time.perf_counter() - t0


def setup_seconds(name, seed):
    """Median set-up time over fresh interpreters, so the import is paid each time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def git_commit():
    """HEAD's commit read from .git without running git, or None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(workload_name):
    import numpy as np
    import workloads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cores = workloads.nproc()
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {
            **{var: os.environ[var] for var in THREAD_VARS},
            "cli_threads": cores if workload_name == "gate_design" else 1,
        },
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def measure(make_workload, seconds, trace):
    """Run rounds of a fresh workload from make_workload() and collect the metrics.

    Returns (metrics, outcomes, round times, missing names); metrics maps each
    name to (value, unit) and holds every end-to-end metric except setup_s,
    or with trace, every per-layer metric.
    """
    import layers
    import workloads

    outcomes = workloads.Outcomes()
    workload = make_workload()
    try:
        if trace:
            # the traced round replays the untraced round's inputs from a fresh set-up
            untraced_s = workload.round(outcomes)
            workload.close()
            workload = make_workload()
            with layers.install() as tracer:
                traced_s = workload.round(outcomes, tracer)
            values = layers.layer_values(tracer, workload.facts, traced_s, untraced_s)
            metrics = {name: (values[name], unit) for name, unit, _ in layers.PER_LAYER}
            return metrics, outcomes, [untraced_s], tracer.missing + tracer.uncounted
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(workload.round(outcomes))
        metrics = {
            "wall_s": (statistics.median(rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "gate_error": (workload.final_gate_error(), "1"),
        }
        return metrics, outcomes, rounds, []
    finally:
        workload.close()


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        workload, seconds = setup(args.workload, args.seed)
        workload.close()
        print(repr(seconds))
        return 0

    import_package()
    import layers

    setup_s = setup_seconds(args.workload, args.seed)
    try:
        metrics, outcomes, rounds, missing = measure(
            lambda: setup(args.workload, args.seed)[0], args.seconds, args.trace)
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # not empty: another run is using it
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")

    for failure in outcomes.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    fail_ratio = outcomes.failed / outcomes.attempted
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"rounds_s {[round(t, 4) for t in rounds]}")
    for name, (value, unit) in metrics.items():
        label = " (computed from call arguments)" if name in layers.COMPUTED else ""
        shown = "-" if value is None else f"{value:.6g}"  # None: every operation behind it failed
        print(f"  {name:<45} {shown:>14} {unit}{label}")
    print(f"  {'fail_ratio':<45} {fail_ratio:>14.6g} ratio "
          f"({outcomes.failed} of {outcomes.attempted} operations)")
    if missing:
        print(f"  traced names missing or uncounted: {', '.join(missing)}")
    print(json.dumps({"facts": machine_facts(args.workload)}))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
