import json
import os

import numpy as np
import pytest

from ionpulse.cli import main

SMALL_CONFIG = """
[trap]
n_ions = 12

[pulse]
shape = A

[optimize]
ion_i = 5
ion_j = 6
seed = 3
max_evals = 40000
n_starts = 1

[analysis]
alpha_intervals = 4000
beta_intervals = 1000
sweep_points = 8
trajectory_modes = targets

[output]
threads = 2
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG)
    return str(path)


def run(args):
    return main(args)


def test_crystal_command(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["-c", small_config, "-o", str(out), "crystal"]) == 0
    printed = capsys.readouterr().out
    assert "mean spacing" in printed
    for name in ("positions.csv", "crystal.json", "crystal_manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "crystal_manifest.json").read_text())
    assert manifest["command"] == "crystal"
    assert manifest["parameters"]["n_ions"] == 12
    assert manifest["parameters"]["spacing_variation_pct"] < 100


def test_missing_prerequisite_exit_code(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["-c", small_config, "-o", str(out), "modes"]) == 3
    err = capsys.readouterr().err
    assert "prerequisite" in err
    assert not (out / "modes.json").exists()


def test_recompute_builds_prerequisites(small_config, tmp_path):
    out = tmp_path / "out"
    assert run(["-c", small_config, "-o", str(out), "modes", "--recompute"]) == 0
    assert (out / "modes.json").exists()
    assert (out / "spectrum.csv").exists()


def test_pipeline_and_determinism(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["-c", small_config, "-o", str(out), "crystal"]) == 0
    assert run(["-c", small_config, "-o", str(out), "modes"]) == 0

    spectrum = (out / "spectrum.csv").read_text().strip().splitlines()
    assert spectrum[0] == "mode,frequency_hz"
    top = float(spectrum[-1].split(",")[1])
    assert top == pytest.approx(3.07e6, rel=1e-9)  # common mode

    assert run(["-c", small_config, "-o", str(out), "optimize"]) == 0
    first = (out / "schedule_A.json").read_bytes()
    manifest = json.loads((out / "optimize_manifest.json").read_text())
    assert manifest["parameters"]["motional_error"] < 1e-3
    assert manifest["parameters"]["budget_exhausted"] is False
    assert (out / "optimize_trace_A.csv").exists()
    assert (out / "waveform_A.csv").exists()

    # rerun with the same seed: byte-identical schedule
    assert run(["-c", small_config, "-o", str(out), "optimize"]) == 0
    assert (out / "schedule_A.json").read_bytes() == first

    assert run(["-c", small_config, "-o", str(out), "report"]) == 0
    report = json.loads((out / "report_A.json").read_text())
    assert report["pair"] == [5, 6]
    assert abs(report["beta_rad"]) == pytest.approx(np.pi / 4, rel=1e-6)
    assert len(report["mode_endpoint_sq"]) == 12

    assert run(["-c", small_config, "-o", str(out), "sweep"]) == 0
    sweep_rows = (out / "sweep_A.csv").read_text().strip().splitlines()
    assert sweep_rows[0] == "offset_hz,error,extra_error"
    assert len(sweep_rows) == 9

    assert run(["-c", small_config, "-o", str(out), "powermap"]) == 0
    map_rows = (out / "powermap_A.csv").read_text().strip().splitlines()
    assert map_rows[0] == "ion_i,ion_j,omega_max_hz"
    assert len(map_rows) == 1 + 12 * 11 // 2


def test_budget_exhausted_keeps_best_schedule(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "tiny.ini"
    path.write_text(SMALL_CONFIG.replace("max_evals = 40000", "max_evals = 3"))
    assert run(["-c", str(path), "-o", str(out), "optimize", "--recompute"]) == 2
    assert "error:" in capsys.readouterr().err
    rows = (out / "optimize_trace_A.csv").read_text().strip().splitlines()
    assert rows[0] == "eval,cost" and len(rows) == 4
    costs = [float(r.split(",")[1]) for r in rows[1:]]
    manifest = json.loads((out / "optimize_manifest.json").read_text())
    assert manifest["parameters"]["budget_exhausted"] is True
    assert manifest["parameters"]["final_cost"] == min(costs)
    schedule = json.loads((out / "schedule_A.json").read_text())
    assert any(v != 0.0 for v in schedule["fm_points_hz"])


def test_powermap_pair_subset(small_config, tmp_path):
    out = tmp_path / "out"
    assert run(
        ["-c", small_config, "-o", str(out), "powermap", "--recompute", "--pairs", "10"]
    ) == 0
    rows = (out / "powermap_A.csv").read_text().strip().splitlines()
    assert len(rows) == 11


def test_unwritable_output_dir(small_config, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    out = blocker / "out"
    assert run(["-c", small_config, "-o", str(out), "crystal"]) == 2
    assert "not writable" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[trap]\nn_ion = 5\n")
    assert run(["-c", str(path), "-o", str(tmp_path / "out"), "crystal"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_bad_mode_index(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[trap]\nn_ions = 10\n\n[optimize]\nion_i = 11\n")
    assert run(["-c", str(path), "-o", str(tmp_path / "out"), "crystal"]) == 2
    assert "outside" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run(["-c", str(tmp_path / "nope.ini"), "crystal"]) == 2
    assert "not found" in capsys.readouterr().err


def test_env_var_output_dir(small_config, tmp_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("IONPULSE_OUTPUT_DIR", str(out))
    assert run(["-c", small_config, "crystal"]) == 0
    assert (out / "positions.csv").exists()


def test_flag_overrides_env(small_config, tmp_path, monkeypatch):
    monkeypatch.setenv("IONPULSE_OUTPUT_DIR", str(tmp_path / "ignored"))
    out = tmp_path / "flagged"
    assert run(["-c", small_config, "-o", str(out), "crystal"]) == 0
    assert (out / "positions.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_shape_override_flag(small_config, tmp_path):
    out = tmp_path / "out"
    assert run(
        ["-c", small_config, "-o", str(out), "--shape", "B", "optimize", "--recompute"]
    ) == 0
    assert (out / "schedule_B.json").exists()


def test_defaults_without_config(tmp_path):
    # every section is optional; full-default crystal run works
    out = tmp_path / "out"
    assert run(["-o", str(out), "crystal"]) == 0
    rows = (out / "positions.csv").read_text().strip().splitlines()
    assert len(rows) == 51
