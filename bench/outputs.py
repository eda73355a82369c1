#!/usr/bin/env python3
"""Run one fixed list of CLI calls in two trees and print every output that differs.

    python3 bench/outputs.py OLD_TREE NEW_TREE

Each tree runs SCENARIOS through `ionpulse.cli.main` in one fresh child
interpreter (PYTHONPATH=<tree>/src, BLAS on one thread) in a new temporary
directory. Per call the child keeps the exit code, stdout and stderr (with the
temporary directory written as <work> and the tree as <tree>), a copy of every
file the call wrote, so a file that a later call overwrites is still compared,
and the names of all files in the output directories after the call, so a file
that one tree leaves behind or deletes and the other does not is reported. A
call whose exit code is not the one its scenario states fails the run, in
either tree, so a broken scenario cannot compare two errors.

It prints each differing stream and file. For a JSON or CSV file it prints
every numeric field that moved, with its old and new value and relative
change; for an .npz array, the count of moved elements and the largest
relative change with its index. A number that changes type or sign (1 to 1.0,
0.0 to -0.0) counts as moved. Manifests are compared byte for byte with the
value of their `timings_s` left out. It exits 1 on any difference and 0 when
nothing differs. Run on one tree twice (`python3 bench/outputs.py . .`), it
checks that every output is reproduced in another process. Standard library
and numpy only.
"""

import csv
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

STAGES = ("crystal", "modes", "optimize", "report", "sweep", "powermap")
# the 12-ion config that tests/test_cli.py and CI's console-script step run
SMALL = {"trap": {"n_ions": "12"},
         "optimize": {"ion_i": "5", "ion_j": "6", "seed": "3", "n_starts": "1"},
         "analysis": {"alpha_intervals": "4000", "beta_intervals": "1000", "sweep_points": "8"}}


def edited(section, key, value):
    """SMALL with [section] key set to value."""
    return {**SMALL, section: {**SMALL.get(section, {}), key: value}}


class Scenario(NamedTuple):
    """Calls that share one output directory, out/<name>, and one config (None: no
    -c, every default). Each call is (the argv after -c and -o, its exit code)."""

    name: str
    config: dict
    calls: list


SCENARIOS = (
    Scenario("default", None, [(["crystal"], 0), (["modes"], 0)] + [
        (["--shape", shape, stage], 0) for shape in "AB" for stage in STAGES[2:]]),
    Scenario("small", SMALL, [([stage], 0) for stage in STAGES]),
    Scenario("trajectories_all", edited("analysis", "trajectory_modes", "all"),
             [(["report", "--recompute"], 0)]),
    Scenario("trajectories_none", edited("analysis", "trajectory_modes", "none"),
             [(["report", "--recompute"], 0)]),
    Scenario("sweep_chain", SMALL, [(["sweep", "--recompute"], 0)]),
    Scenario("powermap_pairs", SMALL, [(["powermap", "--recompute", "--pairs", "10"], 0)]),
    # a spent budget writes the best point and then exits 2
    Scenario("budget", edited("optimize", "max_evals", "3"), [(["optimize", "--recompute"], 2)]),
    Scenario("refused", edited("trap", "delta_z_m", "0"), [(["crystal"], 2)]),
    Scenario("missing", SMALL, [(["report"], 3)]),
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The child: argv[1] is the work directory, argv[2] the tree, argv[3] a JSON list of
# calls ({"label", "argv", "expected"}). Before each call every file under out/ gets
# mtime 0, so the files the call wrote are the ones with another mtime; their copies
# go to versions/<call index>/, and the records, with the names of every file under
# out/ after the call, to calls.json
CHILD = """
import contextlib, io, json, os, shutil, sys, traceback
work, tree, calls = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
import ionpulse
from ionpulse import cli
if not ionpulse.__file__.startswith(os.path.join(tree, "src", "")):
    sys.exit(f"ionpulse was imported from {ionpulse.__file__}, not from {tree}")
out = os.path.join(work, "out")

def files():
    return [os.path.join(root, name) for root, _, names in os.walk(out) for name in names]

def normalised(text):
    return text.replace(work, "<work>").replace(tree, "<tree>")

records = []
for index, call in enumerate(calls):
    for path in files():
        os.utime(path, ns=(0, 0))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(call["argv"])
        except SystemExit as exc:  # argparse
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    written = sorted(os.path.relpath(path, out) for path in files() if os.stat(path).st_mtime_ns)
    for name in written:
        copy = os.path.join(work, "versions", str(index), name)
        os.makedirs(os.path.dirname(copy), exist_ok=True)
        shutil.copyfile(os.path.join(out, name), copy)
    records.append({"label": call["label"], "expected": call["expected"], "exit": code,
                    "stdout": normalised(stdout.getvalue()),
                    "stderr": normalised(stderr.getvalue()), "files": written,
                    "present": sorted(os.path.relpath(path, out) for path in files())})
with open(os.path.join(work, "calls.json"), "w") as fh:
    json.dump(records, fh)
"""


def ini(config):
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for section, keys in config.items())


def run_tree(tree, work):
    """Run SCENARIOS in `tree` in one child interpreter, writing work/calls.json and
    work/versions/; exits when the child fails."""
    calls = []
    for scenario in SCENARIOS:
        head = ["-o", os.path.join(work, "out", scenario.name)]
        if scenario.config is not None:
            config = Path(work, f"{scenario.name}.ini")
            config.write_text(ini(scenario.config))
            head = ["-c", str(config), *head]
        calls += [{"label": f"{scenario.name}: ionpulse {' '.join(args)}", "argv": head + args,
                   "expected": expected} for args, expected in scenario.calls]
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"), "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")]))}
    env.pop("IONPULSE_OUTPUT_DIR", None)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-B", "-c", CHILD, work, str(tree), json.dumps(calls)],
                          cwd=work, env=env, check=False)
    if proc.returncode:
        sys.exit(f"error: the scenarios in {tree} exited {proc.returncode}")
    print(f"{tree}: {len(calls)} calls in {time.perf_counter() - start:.2f} s", flush=True)


def relative(old, new):
    if new == old:
        return "0"
    return f"{(new - old) / abs(old):+.2e}" if old else "inf"


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def field_lines(path, old, new):
    """One line per moved leaf of two parsed JSON values; `path` names the field."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(old.keys() | new.keys()):
            field = f"{path}.{key}" if path else key
            if key not in new or key not in old:
                lines.append(f"{field}: only in {'old' if key in old else 'new'}")
            else:
                lines += field_lines(field, old[key], new[key])
        return lines
    if isinstance(old, list) and isinstance(new, list):
        lines = [f"{path}: length {len(old)} -> {len(new)}"] if len(old) != len(new) else []
        for index, (a, b) in enumerate(zip(old, new)):
            lines += field_lines(f"{path}[{index}]", a, b)
        return lines
    # repr is exact for a float and tells 1 from 1.0, 0 from False, 0.0 from -0.0 and
    # NaN from NaN equal
    if type(old) is type(new) and repr(old) == repr(new):
        return []
    if is_number(old) and is_number(new):
        return [f"{path}: {old!r} -> {new!r} (rel {relative(old, new)})"]
    return [f"{path}: {old!r} -> {new!r}"]


def csv_rows(data):
    """A CSV file as its header and its rows, each cell a float where it reads as one."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    header, *rows = csv.reader(io.StringIO(data.decode(), newline=""))
    return header, [[cell(text) for text in row] for row in rows]


def csv_lines(old, new):
    (old_header, old_rows), (new_header, new_rows) = csv_rows(old), csv_rows(new)
    if old_header != new_header:
        return [f"header: {old_header} -> {new_header}"]
    lines = [f"rows: {len(old_rows)} -> {len(new_rows)}"] if len(old_rows) != len(new_rows) else []
    for number, (a, b) in enumerate(zip(old_rows, new_rows), 1):
        for column, x, y in zip(old_header, a, b):
            lines += field_lines(f"row {number} {column}", x, y)
    return lines


def npz_lines(old_path, new_path):
    with np.load(old_path, allow_pickle=False) as old, np.load(new_path, allow_pickle=False) as new:
        lines = [f"{name}: only in {'old' if name in old.files else 'new'}"
                 for name in sorted(set(old.files) ^ set(new.files))]
        for name in sorted(set(old.files) & set(new.files)):
            a, b = old[name], new[name]
            if (a.dtype, a.shape) != (b.dtype, b.shape):
                lines.append(f"{name}: {a.dtype} {a.shape} -> {b.dtype} {b.shape}")
                continue
            moved = a != b
            if a.dtype.kind in "fc":
                moved &= ~(np.isnan(a) & np.isnan(b))
            if not moved.any():
                continue
            line = f"{name}: {np.count_nonzero(moved)} of {a.size} elements moved"
            if a.dtype.kind in "biufc":
                x, y = (v.astype(np.complex128 if a.dtype.kind == "c" else np.float64) for v in (a, b))
                with np.errstate(divide="ignore", invalid="ignore"):
                    change = np.where(moved, np.abs(y - x) / np.abs(x), 0.0)
                change[np.isnan(change)] = np.inf  # to or from NaN
                at = np.unravel_index(np.argmax(change), a.shape)
                line += (f", largest rel change {change[at]:.2e} at {tuple(int(i) for i in at)}: "
                         f"{a[at].item()!r} -> {b[at].item()!r}")
            lines.append(line)
        return lines


def without_timings(data):
    """A manifest's bytes with the value of its "timings_s" key written as null."""
    text = data.decode()
    key = text.find('"timings_s"')
    if key < 0:
        return data
    start = text.index(":", key) + 1
    while text[start].isspace():
        start += 1
    _, end = json.JSONDecoder().raw_decode(text, start)
    return (text[:start] + "null" + text[end:]).encode()


def file_lines(name, old_path, new_path):
    """What moved between two versions of file `name`: [] when their bytes are equal
    (a manifest's apart from its timings_s value), else at least one line."""
    old, new = Path(old_path).read_bytes(), Path(new_path).read_bytes()
    if old == new:
        return []
    sizes, lines = (len(old), len(new)), []
    try:
        if name.endswith("_manifest.json"):
            old, new = without_timings(old), without_timings(new)
            if old == new:
                return []
        if name.endswith(".json"):
            lines = field_lines("", json.loads(old), json.loads(new))
        elif name.endswith(".csv"):
            lines = csv_lines(old, new)
        elif name.endswith(".npz"):
            lines = npz_lines(old_path, new_path)
    except (ValueError, EOFError, IndexError, zipfile.BadZipFile):  # a file that does not parse
        pass
    return lines or ["bytes differ ({} -> {} bytes)".format(*sizes)]


def compare(old_work, new_work):
    """Print every difference between two trees' runs (each a work directory that
    run_tree wrote), then a count; returns 1 if anything differs, else 0."""
    runs = [json.loads(Path(work, "calls.json").read_text()) for work in (old_work, new_work)]
    differ = 0

    def report(label, what, lines):
        nonlocal differ
        differ += 1
        print(f"{label}: {what}")
        for line in lines:
            print(f"  {line}")

    for index, (old, new) in enumerate(zip(*runs)):
        label = old["label"]
        for side, call in (("old", old), ("new", new)):
            if call["exit"] != call["expected"]:
                report(label, f"exited {call['exit']!r} in {side}, not {call['expected']}",
                       call["stderr"].splitlines()[-1:])
        for stream in ("stdout", "stderr"):
            if old[stream] != new[stream]:
                report(label, f"{stream} differs", [
                    line for line in difflib.ndiff(old[stream].splitlines(), new[stream].splitlines())
                    if line.startswith(("- ", "+ "))])
        for name in sorted(set(old["files"]) | set(new["files"])):
            if name not in new["files"] or name not in old["files"]:
                report(label, f"{name} written only in {'old' if name in old['files'] else 'new'}", [])
                continue
            paths = [Path(work, "versions", str(index), name) for work in (old_work, new_work)]
            lines = file_lines(name, *paths)
            if lines:
                report(label, f"{name} differs", lines)
        # a file one tree leaves behind or deletes, beyond those written in one tree only
        left = (set(old["present"]) ^ set(new["present"])) - (set(old["files"]) ^ set(new["files"]))
        if left:
            report(label, "the files present after the call differ", [
                f"{name} only in {'old' if name in old['present'] else 'new'}" for name in sorted(left)])
    versions = [sum(len(call["files"]) for call in run) for run in runs]
    print(f"{len(runs[0])} calls, {versions[0]} file versions in old and {versions[1]} in new: "
          f"{differ} {'difference' if differ == 1 else 'differences'}")
    return 1 if differ else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit("usage: python3 bench/outputs.py OLD_TREE NEW_TREE")
    trees = [Path(tree).resolve() for tree in argv]
    for tree in trees:
        if not (tree / "src" / "ionpulse" / "cli.py").is_file():
            sys.exit(f"error: {tree} holds no src/ionpulse/cli.py")
    with tempfile.TemporaryDirectory() as old_work, tempfile.TemporaryDirectory() as new_work:
        works = [os.path.realpath(work) for work in (old_work, new_work)]
        for tree, work in zip(trees, works):
            run_tree(tree, work)
        return compare(*works)


if __name__ == "__main__":
    sys.exit(main())
