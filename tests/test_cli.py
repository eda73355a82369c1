import json
import os
import re

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


def test_recompute_budget_exhausted_keeps_best_schedule(tmp_path, capsys):
    # a stage that optimizes in-process under --recompute keeps the best point too
    out = tmp_path / "out"
    path = tmp_path / "tiny.ini"
    path.write_text(SMALL_CONFIG.replace("max_evals = 40000", "max_evals = 3"))
    assert run(["-c", str(path), "-o", str(out), "report", "--recompute"]) == 2
    assert "error:" in capsys.readouterr().err
    rows = (out / "optimize_trace_A.csv").read_text().strip().splitlines()
    assert rows[0] == "eval,cost" and len(rows) == 4
    schedule = json.loads((out / "schedule_A.json").read_text())
    assert any(v != 0.0 for v in schedule["fm_points_hz"])
    assert (out / "waveform_A.csv").exists()
    assert not (out / "report_A.json").exists()


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
    # optimize is the first stage that reads ion_i; the check precedes its prerequisites
    assert run(["-c", str(path), "-o", str(tmp_path / "out"), "optimize"]) == 2
    assert "outside" in capsys.readouterr().err


def test_stages_ignore_indices_they_do_not_read(tmp_path):
    # the default ion_i = 25 lies outside a 12-ion chain, but crystal and modes never read it
    path = tmp_path / "small.ini"
    path.write_text("[trap]\nn_ions = 12\n")
    for stage in ("crystal", "modes"):
        assert run(["-c", str(path), "-o", str(tmp_path / "out"), stage]) == 0


def test_bad_target_modes(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[optimize]\ntarget_modes = a\n")
    assert run(["-c", str(path), "-o", str(tmp_path / "out"), "crystal"]) == 2
    assert "[optimize] target_modes" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("alpha_intervals", "0"), ("alpha_intervals", "4001"), ("beta_intervals", "1"),
    ("sweep_min_hz", "0"), ("sweep_min_hz", "3000"), ("sweep_max_hz", "inf"),
])
def test_bad_analysis_grid_or_range(tmp_path, capsys, key, value):
    # refused when the config is read, so even a stage that never uses the value fails
    path = tmp_path / "bad.ini"
    path.write_text(f"[analysis]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert run(["-c", str(path), "-o", str(out), "crystal"]) == 2
    err = capsys.readouterr().err
    assert "[analysis]" in err and key in err
    assert not out.exists()


def test_powermap_with_every_pair_degenerate(tmp_path, capsys):
    # two intervals resolve no entangling angle, so no pair is computed
    path = tmp_path / "coarse.ini"
    path.write_text(SMALL_CONFIG.replace("beta_intervals = 1000", "beta_intervals = 2"))
    out = tmp_path / "out"
    assert run(["-c", str(path), "-o", str(out), "powermap", "--recompute"]) == 0
    assert "powermap[A]: 0 pairs (66 degenerate)" in capsys.readouterr().out
    assert (out / "powermap_A.csv").read_bytes() == b"ion_i,ion_j,omega_max_hz\r\n"
    params = json.loads((out / "powermap_manifest.json").read_text())["parameters"]
    assert params["pairs"] == 0 and len(params["degenerate_pairs"]) == 66
    for stat in ("min", "max", "mean"):
        assert params[f"omega_max_{stat}_hz"] is None


def test_report_endpoints_sum_and_sweep_baseline_match_error(small_config, tmp_path):
    # report's per-mode terms are the ones motional_error sums, and the sweep
    # runs at the calibrated power, so its baseline is the reported error
    out = tmp_path / "out"
    for stage in ("crystal", "modes", "optimize", "report", "sweep"):
        assert run(["-c", small_config, "-o", str(out), stage]) == 0
    report = json.loads((out / "report_A.json").read_text())
    assert len(report["mode_endpoint_sq"]) == 12
    assert sum(report["mode_endpoint_sq"]) == pytest.approx(report["motional_error"], rel=1e-12)
    baseline = json.loads((out / "sweep_manifest.json").read_text())["parameters"]["baseline_error"]
    assert baseline == report["motional_error"]
    sweep_rows = (out / "sweep_A.csv").read_text().strip().splitlines()[1:]
    first_error, first_extra = (float(v) for v in sweep_rows[0].split(",")[1:])
    assert first_error - first_extra == pytest.approx(baseline, rel=1e-12)


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


_FLOAT = r"\d+\.\d{3}e[+-]\d\d"
_STAGE_SCHEMA = {
    # stage: (summary line, parameters keys, timings_s keys, inputs, outputs)
    "crystal": (
        r"crystal: 12 ions, mean spacing \d+\.\d{3} um, variation \d+\.\d{2} %, \d+ iterations",
        {"n_ions", "mean_spacing_um", "spacing_variation_pct", "residual_force_n", "iterations"},
        {"solve"},
        set(),
        ["crystal.json", "positions.csv"],
    ),
    "modes": (
        r"modes: 12 transverse modes, \d\.\d{4} to \d\.\d{4} MHz",
        {"lowest_hz", "highest_hz"},
        {"solve"},
        {"positions.csv", "crystal.json"},
        ["modes.json", "spectrum.csv"],
    ),
    "optimize": (
        rf"optimize\[A\]: \d+ evaluations, final cost {_FLOAT}, "
        rf"motional error {_FLOAT}, omega_max \d+\.\d kHz",
        {"shape", "pair", "target_modes", "evaluations", "final_cost", "motional_error",
         "beta_rad", "omega_max_hz", "seed", "budget_exhausted"},
        {"optimize", "report"},
        {"modes.json"},
        ["optimize_trace_A.csv", "schedule_A.json", "waveform_A.csv"],
    ),
    "report": (
        rf"report\[A\]: pair \(5,6\) beta [+-]\d\.\d{{6}} rad, "
        rf"motional error {_FLOAT}, omega_max \d+\.\d kHz",
        {"shape", "pair", "motional_error", "omega_max_hz"},
        {"report"},
        {"schedule_A.json", "modes.json"},
        None,  # the trajectory files depend on the resolved target modes
    ),
    "sweep": (
        rf"sweep\[A\]: baseline {_FLOAT}, "
        r"(slope -?\d+\.\d\d \+/- \d+\.\d\d|too few points in the fit window for a slope)",
        {"shape", "pair", "baseline_error", "fitted_slope", "slope_stderr"},
        {"sweep"},
        {"schedule_A.json", "modes.json"},
        ["sweep_A.csv"],
    ),
    "powermap": (
        r"powermap\[A\]: 66 pairs, omega_max \d+\.\d to \d+\.\d kHz \(\d+ degenerate\)",
        {"shape", "pairs", "degenerate_pairs", "omega_max_min_hz", "omega_max_max_hz",
         "omega_max_mean_hz"},
        {"map"},
        {"schedule_A.json", "modes.json"},
        ["powermap_A.csv"],
    ),
}


def test_stage_summaries_and_manifest_schema(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    for stage, (line, parameters, timings, inputs, outputs) in _STAGE_SCHEMA.items():
        assert run(["-c", small_config, "-o", str(out), stage]) == 0
        printed = capsys.readouterr().out
        assert re.fullmatch(line + "\n", printed), printed
        manifest = json.loads((out / f"{stage}_manifest.json").read_text())
        assert set(manifest) == {
            "command", "version", "config_sha256", "inputs", "outputs",
            "parameters", "timings_s",
        }
        assert manifest["command"] == stage
        assert set(manifest["parameters"]) == parameters
        assert set(manifest["timings_s"]) == timings
        assert all(t >= 0 for t in manifest["timings_s"].values())
        assert set(manifest["inputs"]) == inputs
        if outputs is not None:
            assert manifest["outputs"] == outputs
    report_outputs = json.loads((out / "report_manifest.json").read_text())["outputs"]
    assert "report_A.json" in report_outputs
    assert all(
        name == "report_A.json" or re.fullmatch(r"trajectory_mode_\d\d_A\.csv", name)
        for name in report_outputs
    )


def test_missing_crystal_json_exit_code(small_config, tmp_path, capsys):
    # positions.csv alone is not a crystal: modes must not re-solve it silently
    out = tmp_path / "out"
    assert run(["-c", small_config, "-o", str(out), "crystal"]) == 0
    (out / "crystal.json").unlink()
    capsys.readouterr()
    assert run(["-c", small_config, "-o", str(out), "modes"]) == 3
    assert "'crystal.json'" in capsys.readouterr().err
    assert not (out / "modes.json").exists()


@pytest.mark.parametrize("stage, upstream, stale", [
    ("modes", ["crystal"], "crystal.json"),
    ("optimize", ["crystal", "modes"], "modes.json"),
])
def test_stale_upstream_ion_count(small_config, tmp_path, capsys, stage, upstream, stale):
    out = tmp_path / "out"
    for name in upstream:
        assert run(["-c", small_config, "-o", str(out), name]) == 0
    fewer = tmp_path / "ten.ini"
    fewer.write_text(SMALL_CONFIG.replace("n_ions = 12", "n_ions = 10"))
    capsys.readouterr()
    assert run(["-c", str(fewer), "-o", str(out), stage]) == 3
    err = capsys.readouterr().err
    assert repr(stale) in err and "--recompute" in err
    assert not (out / f"{stage}_manifest.json").exists()
    if stage == "modes":
        assert run(["-c", str(fewer), "-o", str(out), stage, "--recompute"]) == 0
        assert len(json.loads((out / "modes.json").read_text())["frequencies_hz"]) == 10


def test_modes_json_without_rad_s_is_stale(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    for name in ("crystal", "modes"):
        assert run(["-c", small_config, "-o", str(out), name]) == 0
    path = out / "modes.json"
    payload = json.loads(path.read_text())
    del payload["frequencies_rad_s"]  # as written before the frequencies were lossless
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["-c", small_config, "-o", str(out), "optimize"]) == 3
    err = capsys.readouterr().err
    assert "'modes.json'" in err and "--recompute" in err
    assert not (out / "optimize_manifest.json").exists()


def test_staged_optimize_matches_recompute(tmp_path):
    # modes.json round-trips the frequencies exactly, so reading it designs the
    # schedule that solving the modes in process does (on the default chain a
    # Hz round trip moved 6 of the 50 frequencies, and the schedule with them)
    config = tmp_path / "default.ini"
    config.write_text("[optimize]\nn_starts = 1\n")
    staged, direct = tmp_path / "staged", tmp_path / "direct"
    for name in ("crystal", "modes", "optimize"):
        assert run(["-c", str(config), "-o", str(staged), name]) == 0
    assert run(["-c", str(config), "-o", str(direct), "optimize", "--recompute"]) == 0
    assert (staged / "schedule_A.json").read_bytes() == (direct / "schedule_A.json").read_bytes()


def test_report_trajectories_do_not_depend_on_selection(small_config, tmp_path):
    # report integrates only the modes it writes, each on its own
    out = tmp_path / "out"
    for name in ("crystal", "modes", "optimize", "report"):
        assert run(["-c", small_config, "-o", str(out), name]) == 0
    targets = {p.name: p.read_bytes() for p in out.glob("trajectory_mode_*_A.csv")}
    assert len(targets) == 10
    every = tmp_path / "all.ini"
    every.write_text(SMALL_CONFIG.replace("trajectory_modes = targets", "trajectory_modes = all"))
    assert run(["-c", str(every), "-o", str(out), "report"]) == 0
    assert len(list(out.glob("trajectory_mode_*_A.csv"))) == 12
    for name, data in targets.items():
        assert (out / name).read_bytes() == data


@pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
def test_bad_powermap_pairs(small_config, tmp_path, capsys, value):
    out = tmp_path / "out"
    assert run(
        ["-c", small_config, "-o", str(out), "powermap", "--recompute", "--pairs", value]
    ) == 2
    assert "powermap_pairs" in capsys.readouterr().err
    assert not out.exists()  # refused before any stage work
