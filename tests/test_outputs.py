import importlib.util
import io
import json
from pathlib import Path

import numpy as np

# bench/ is not a package: load the output-contract tool from its file
_spec = importlib.util.spec_from_file_location(
    "outputs", Path(__file__).resolve().parents[1] / "bench" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def npz(**arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def manifest(final_cost, report_s):
    return json.dumps({"command": "optimize", "parameters": {"final_cost": final_cost, "seed": 3},
                       "timings_s": {"optimize": report_s}}).encode()


ALPHA = np.array([[1.0, 2.0, 4.0], [0.5, 1.0, 2.0]])
OLD_FILES = {
    "small/report_A.json": b'{"omega_max_hz": 0.5, "pair": [5, 6]}',
    "small/sweep_A.csv": b"offset_hz,error\r\n10.0,1e-09\r\n20.0,2e-09\r\n",
    "small/trajectories_A.npz": npz(alpha=ALPHA, mode=np.array([1, 2])),
    "small/optimize_manifest.json": manifest(1e-8, 0.1),
}


def work_dir(root, files, exit_code=0, expected=0, stderr="", kept=()):
    """A directory as run_tree leaves it: one call that wrote `files` (name: bytes),
    after which the output directories hold those and the names in `kept`."""
    root.mkdir()
    for name, data in files.items():
        path = root / "versions" / "0" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    (root / "calls.json").write_text(json.dumps([{
        "label": "small: ionpulse report", "expected": expected, "exit": exit_code,
        "stdout": "report[A]: pair (5,6)\n", "stderr": stderr, "files": sorted(files),
        "present": sorted({*files, *kept})}]))
    return root


def test_each_moved_value_is_printed(tmp_path, capsys):
    moved = ALPHA.copy()
    moved[1, 2] = 3.0
    new_files = {
        "small/report_A.json": b'{"omega_max_hz": 0.75, "pair": [5, 6]}',
        "small/sweep_A.csv": b"offset_hz,error\r\n10.0,1e-09\r\n20.0,2.5e-09\r\n",
        "small/trajectories_A.npz": npz(alpha=moved, mode=np.array([1, 2])),
        "small/optimize_manifest.json": manifest(2e-8, 0.2),
        "small/report_A.json.tmp": b"",
    }
    old = work_dir(tmp_path / "old", OLD_FILES)
    new = work_dir(tmp_path / "new", new_files)
    assert outputs.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines() == [
        "small: ionpulse report: small/optimize_manifest.json differs",
        "  parameters.final_cost: 1e-08 -> 2e-08 (rel +1.00e+00)",
        "small: ionpulse report: small/report_A.json differs",
        "  omega_max_hz: 0.5 -> 0.75 (rel +5.00e-01)",
        "small: ionpulse report: small/report_A.json.tmp written only in new",
        "small: ionpulse report: small/sweep_A.csv differs",
        "  row 2 error: 2e-09 -> 2.5e-09 (rel +2.50e-01)",
        "small: ionpulse report: small/trajectories_A.npz differs",
        "  alpha: 1 of 6 elements moved, largest rel change 5.00e-01 at (1, 2): 2.0 -> 3.0",
        "1 calls, 4 file versions in old and 5 in new: 5 differences",
    ]


def test_manifests_are_compared_without_timings(tmp_path, capsys):
    old = work_dir(tmp_path / "old", OLD_FILES)
    new = work_dir(tmp_path / "new", {**OLD_FILES, "small/optimize_manifest.json": manifest(1e-8, 0.2)})
    assert outputs.compare(old, new) == 0
    assert capsys.readouterr().out == "1 calls, 4 file versions in old and 4 in new: 0 differences\n"


def test_a_changed_type_or_sign_is_printed(tmp_path, capsys):
    # equal under ==, but not the same number in the file
    def parameters(evaluations, exhausted, gap):
        return json.dumps({"parameters": {"evaluations": evaluations, "budget_exhausted": exhausted,
                                          "rule_gap": gap}, "timings_s": {"optimize": 0.1}}).encode()

    old = work_dir(tmp_path / "old", {"small/optimize_manifest.json": parameters(3, False, 0.0)})
    new = work_dir(tmp_path / "new", {"small/optimize_manifest.json": parameters(3.0, 0, -0.0)})
    assert outputs.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines()[:4] == [
        "small: ionpulse report: small/optimize_manifest.json differs",
        "  parameters.budget_exhausted: False -> 0",
        "  parameters.evaluations: 3 -> 3.0 (rel 0)",
        "  parameters.rule_gap: 0.0 -> -0.0 (rel 0)",
    ]


def test_a_reformatted_manifest_differs(tmp_path, capsys):
    old = work_dir(tmp_path / "old", OLD_FILES)
    reformatted = json.dumps(json.loads(manifest(1e-8, 0.1)), indent=2).encode()
    new = work_dir(tmp_path / "new", {**OLD_FILES, "small/optimize_manifest.json": reformatted})
    assert outputs.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "small: ionpulse report: small/optimize_manifest.json differs",
        f"  bytes differ ({len(manifest(1e-8, 0.1))} -> {len(reformatted)} bytes)",
    ]


def test_a_file_left_behind_in_one_tree_is_printed(tmp_path, capsys):
    # written by no call, so only the listing of the output directories shows it
    old = work_dir(tmp_path / "old", OLD_FILES, kept=["small/waveform_A.csv"])
    new = work_dir(tmp_path / "new", OLD_FILES)
    assert outputs.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines()[:2] == [
        "small: ionpulse report: the files present after the call differ",
        "  small/waveform_A.csv only in old",
    ]


def test_equal_runs_exit_0(tmp_path, capsys):
    old = work_dir(tmp_path / "old", OLD_FILES)
    new = work_dir(tmp_path / "new", OLD_FILES)
    assert outputs.compare(old, new) == 0
    assert capsys.readouterr().out.endswith(": 0 differences\n")


def test_an_unexpected_exit_code_fails_even_when_both_runs_agree(tmp_path, capsys):
    # two equal parse errors must not pass as two equal runs
    stderr = "error: cannot parse config: duplicate section 'optimize'\n"
    old = work_dir(tmp_path / "old", {}, exit_code=2, stderr=stderr)
    new = work_dir(tmp_path / "new", {}, exit_code=2, stderr=stderr)
    assert outputs.compare(old, new) == 1
    printed = capsys.readouterr().out
    for side in ("old", "new"):
        assert f"small: ionpulse report: exited 2 in {side}, not 0\n  {stderr}" in printed


def test_a_changed_stream_prints_its_lines(tmp_path, capsys):
    old = work_dir(tmp_path / "old", {}, exit_code=2, expected=2,
                   stderr="error: bad [trap] configuration: delta_z must be positive\n")
    new = work_dir(tmp_path / "new", {}, exit_code=2, expected=2,
                   stderr="error: bad value for [trap] delta_z_m: '0' (must be positive)\n")
    assert outputs.compare(old, new) == 1
    assert capsys.readouterr().out.splitlines()[:3] == [
        "small: ionpulse report: stderr differs",
        "  - error: bad [trap] configuration: delta_z must be positive",
        "  + error: bad value for [trap] delta_z_m: '0' (must be positive)",
    ]
