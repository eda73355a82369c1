import configparser
import csv
import io
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from ionpulse.artifacts import write_npz
from ionpulse.cli import _STAGES, KEYS, _make_problem, build_parser, load_config, main, optimize
from ionpulse.modes import load_modes
from ionpulse.pulse import load_schedule, save_waveform

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
    for name in ("crystal.npz", "positions.csv", "crystal_manifest.json"):
        assert (out / name).exists()
    assert not (out / "crystal.json").exists()
    manifest = json.loads((out / "crystal_manifest.json").read_text())
    assert manifest["command"] == "crystal"
    assert manifest["parameters"]["n_ions"] == 12
    assert manifest["parameters"]["spacing_variation_pct"] < 100


def test_missing_prerequisite_exit_code(small_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["-c", small_config, "-o", str(out), "modes"]) == 3
    assert capsys.readouterr().err == (
        "error: missing prerequisite 'crystal.npz'; run `ionpulse crystal` first "
        "or pass --recompute\n")
    assert not (out / "modes.npz").exists()


def test_recompute_builds_prerequisites(small_config, tmp_path):
    out = tmp_path / "out"
    assert run(["-c", small_config, "-o", str(out), "modes", "--recompute"]) == 0
    assert (out / "modes.npz").exists()
    assert (out / "spectrum.csv").exists()
    assert (out / "crystal_manifest.json").exists()  # crystal ran as a stage of its own


def test_sweep_recompute_matches_staged_run(small_config, tmp_path, capsys):
    # --recompute runs crystal, modes and optimize as stages, then sweep reads their files
    staged, direct = tmp_path / "staged", tmp_path / "direct"
    for stage in ("crystal", "modes", "optimize", "sweep"):
        assert run(["-c", small_config, "-o", str(staged), stage]) == 0
    lines = capsys.readouterr().out
    assert run(["-c", small_config, "-o", str(direct), "sweep", "--recompute"]) == 0
    assert capsys.readouterr().out == lines
    assert sorted(p.name for p in direct.iterdir()) == sorted(p.name for p in staged.iterdir())
    for name in ("crystal.npz", "positions.csv", "modes.npz", "spectrum.csv",
                 "schedule_A.json", "optimize_trace_A.csv", "sweep_A.csv", "waveform_A.npz"):
        assert (direct / name).read_bytes() == (staged / name).read_bytes(), name


def test_recompute_checks_every_stage_before_the_first(tmp_path, capsys):
    # sweep reads no target modes, but the optimize stage it runs first does
    path = tmp_path / "bad.ini"
    path.write_text(SMALL_CONFIG.replace("n_starts = 1", "n_starts = 1\ntarget_modes = 13"))
    out = tmp_path / "out"
    assert run(["-c", str(path), "-o", str(out), "sweep", "--recompute"]) == 2
    printed = capsys.readouterr()
    assert "target_modes index 13 outside 1..12" in printed.err
    assert printed.out == ""
    assert list(out.iterdir()) == []


def test_repeated_target_mode_is_refused_before_any_stage(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(SMALL_CONFIG.replace("n_starts = 1", "n_starts = 1\ntarget_modes = 7, 7"))
    out = tmp_path / "out"
    assert run(["-c", str(path), "-o", str(out), "optimize", "--recompute"]) == 2
    printed = capsys.readouterr()
    assert printed.err == "error: target_modes index 7 is given twice\n"
    assert printed.out == ""
    assert list(out.iterdir()) == []


def test_staged_sweep_after_recompute_reads_the_recomputed_modes(small_config, tmp_path):
    # a report --recompute under a new trap writes the modes it designed on, so
    # a staged sweep under that trap does not pair its schedule with older modes
    out = tmp_path / "out"
    for stage in ("crystal", "modes"):
        assert run(["-c", small_config, "-o", str(out), stage]) == 0
    wider = tmp_path / "wider.ini"
    wider.write_text(SMALL_CONFIG.replace("n_ions = 12", "n_ions = 12\ndelta_z_m = 3.5e-6"))
    assert run(["-c", str(wider), "-o", str(out), "report", "--recompute"]) == 0
    assert run(["-c", str(wider), "-o", str(out), "sweep"]) == 0
    report = json.loads((out / "report_A.json").read_text())
    baseline = json.loads((out / "sweep_manifest.json").read_text())["parameters"]["baseline_error"]
    assert baseline == report["motional_error"]


def reencoded(path):
    """The file's content encoded again as each stage wrote it before they shared
    ionpulse.artifacts: csv.writer rows with repr(float) cells (ints plain), the
    optimize trace's "\n" rows, and indent-2 sorted JSON plus a newline for a
    JSON file."""
    text = io.StringIO(newline="")
    if path.name.startswith("optimize_trace_"):
        header, *rows = path.read_text().split("\n")[:-1]
        text.write(f"{header}\n")
        for row in rows:
            n, c = row.split(",")
            text.write(f"{int(n)},{float(c)!r}\n")
    elif path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        writer = csv.writer(text)
        writer.writerow(header)
        for row in rows:
            writer.writerow([int(c) if c.lstrip("-").isdigit() else repr(float(c)) for c in row])
    else:
        json.dump(json.loads(path.read_text()), text, indent=2, sort_keys=True)
        text.write("\n")
    return text.getvalue().encode()


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
    assert (out / "waveform_A.npz").exists()

    # rerun with the same seed: byte-identical schedule
    assert run(["-c", small_config, "-o", str(out), "optimize"]) == 0
    assert (out / "schedule_A.json").read_bytes() == first
    # the waveform is the one of the schedule the file holds; np.savez stamps every
    # member 1980-01-01, so equal arrays give equal bytes
    save_waveform(load_schedule(out / "schedule_A.json"), tmp_path / "waveform.npz")
    assert (tmp_path / "waveform.npz").read_bytes() == (out / "waveform_A.npz").read_bytes()

    assert run(["-c", small_config, "-o", str(out), "report"]) == 0
    report = json.loads((out / "report_A.json").read_text())
    assert report["pair"] == [5, 6]
    assert abs(report["beta_rad"]) == pytest.approx(np.pi / 4, rel=1e-6)
    assert len(report["mode_endpoint_sq"]) == 12
    # optimize reports on the schedule its file loads back to, so report agrees exactly
    for key in ("motional_error", "beta_rad", "omega_max_hz"):
        assert manifest["parameters"][key] == report[key], key

    assert run(["-c", small_config, "-o", str(out), "sweep"]) == 0
    sweep_rows = (out / "sweep_A.csv").read_text().strip().splitlines()
    assert sweep_rows[0] == "offset_hz,error,extra_error"
    assert len(sweep_rows) == 9

    assert run(["-c", small_config, "-o", str(out), "powermap"]) == 0
    map_rows = (out / "powermap_A.csv").read_text().strip().splitlines()
    assert map_rows[0] == "ion_i,ion_j,omega_max_hz"
    assert len(map_rows) == 1 + 12 * 11 // 2

    # the directory holds the manifests and the outputs they list, nothing else: no
    # .tmp file left half-written, no crystal.json, no waveform_A.csv beside the npz
    written = sorted(out.iterdir())
    manifests = [path for path in written if path.name.endswith("_manifest.json")]
    assert [path.name for path in manifests] == [
        f"{stage}_manifest.json" for stage in sorted(_STAGES)]
    listed = {name for path in manifests for name in json.loads(path.read_text())["outputs"]}
    assert [path.name for path in written] == sorted(listed | {path.name for path in manifests})
    assert [path.name for path in written if path.name.startswith("waveform_")] == [
        "waveform_A.npz"]
    assert [path.name for path in written if path.suffix == ".npz"] == [
        "crystal.npz", "modes.npz", "trajectories_A.npz", "waveform_A.npz"]
    for path in written:
        if path.suffix != ".npz":
            assert path.read_bytes() == reencoded(path), path.name


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
    # the best point is kept in its saved form, so report of the file agrees exactly
    assert run(["-c", str(path), "-o", str(out), "report"]) == 0
    report = json.loads((out / "report_A.json").read_text())
    for key in ("motional_error", "beta_rad", "omega_max_hz"):
        assert manifest["parameters"][key] == report[key], key


def test_optimize_writes_the_run_it_returns(small_config, tmp_path):
    # the trace and the manifest hold the record optimize returns in process, value for value
    out = tmp_path / "out"
    assert run(["-c", small_config, "-o", str(out), "optimize", "--recompute"]) == 0
    cfg = load_config(small_config)
    result = optimize(_make_problem(cfg, load_modes(out / "modes.npz")))
    with open(out / "optimize_trace_A.csv", newline="") as fh:
        rows = [(int(row["eval"]), float(row["cost"])) for row in csv.DictReader(fh)]
    assert rows == list(enumerate(result.costs, 1))
    parameters = json.loads((out / "optimize_manifest.json").read_text())["parameters"]
    assert parameters["evaluations"] == len(result.costs)
    for key in ("final_cost", "rule_nodes", "rule_gap"):
        assert parameters[key] == getattr(result, key), key
    saved = load_schedule(out / "schedule_A.json")
    assert saved.fm_points.tobytes() == result.schedule.fm_points.tobytes()


def test_recompute_budget_exhausted_keeps_best_schedule(tmp_path, capsys):
    # report --recompute runs optimize first, whose spent budget stops the chain
    # once the best point is written
    out = tmp_path / "out"
    path = tmp_path / "tiny.ini"
    path.write_text(SMALL_CONFIG.replace("max_evals = 40000", "max_evals = 3"))
    assert run(["-c", str(path), "-o", str(out), "report", "--recompute"]) == 2
    assert "error:" in capsys.readouterr().err
    rows = (out / "optimize_trace_A.csv").read_text().strip().splitlines()
    assert rows[0] == "eval,cost" and len(rows) == 4
    schedule = json.loads((out / "schedule_A.json").read_text())
    assert any(v != 0.0 for v in schedule["fm_points_hz"])
    assert (out / "waveform_A.npz").exists()
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


# every stage against both index fields; _REFUSED holds the stages that check the
# field against n_ions (report resolves the target modes it writes)
_STAGE_NAMES = ("crystal", "modes", "optimize", "report", "sweep", "powermap")
_INDEX_CASES = [(stage, field) for stage in _STAGE_NAMES for field in ("ion_i", "mu_mode")]
_REFUSED = {("optimize", "ion_i"), ("report", "ion_i"), ("sweep", "ion_i"),
            ("optimize", "mu_mode"), ("report", "mu_mode")}


def _index_13_config(tmp_path, field):
    """SMALL_CONFIG with `field` at 13, outside its 12 ions."""
    path = tmp_path / f"{field}_13.ini"
    path.write_text(SMALL_CONFIG.replace("ion_i = 5", "ion_i = 13") if field == "ion_i"
                    else SMALL_CONFIG.replace("shape = A", "shape = A\nmu_mode = 13"))
    return str(path)


@pytest.fixture(scope="module")
def designed_dir(tmp_path_factory):
    """An output directory holding what crystal, modes and optimize write for SMALL_CONFIG."""
    config = tmp_path_factory.mktemp("config") / "run.ini"
    config.write_text(SMALL_CONFIG)
    out = tmp_path_factory.mktemp("designed")
    for stage in ("crystal", "modes", "optimize"):
        assert run(["-c", str(config), "-o", str(out), stage]) == 0
    return out


@pytest.mark.parametrize("stage, field", [case for case in _INDEX_CASES if case in _REFUSED])
def test_bad_mode_index(tmp_path, capsys, stage, field):
    # the check precedes the stage's prerequisites, so a fresh directory exits 2, not 3
    out = tmp_path / "out"
    assert run(["-c", _index_13_config(tmp_path, field), "-o", str(out), stage]) == 2
    assert capsys.readouterr().err == f"error: {field} index 13 outside 1..12\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("stage, field", [case for case in _INDEX_CASES if case not in _REFUSED])
def test_stages_ignore_indices_they_do_not_read(designed_dir, tmp_path, stage, field):
    out = tmp_path / "out"
    shutil.copytree(designed_dir, out)
    assert run(["-c", _index_13_config(tmp_path, field), "-o", str(out), stage]) == 0
    assert (out / f"{stage}_manifest.json").exists()


def test_bad_target_modes(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[optimize]\ntarget_modes = a\n")
    assert run(["-c", str(path), "-o", str(tmp_path / "out"), "crystal"]) == 2
    assert "[optimize] target_modes" in capsys.readouterr().err


# each value is refused when the config is read; a case with a fourth entry gives the
# reason, and the message must then be exactly that line. Each key whose range TrapConfig
# or ShapeB checks has one: the message names the key and quotes the text, never the
# field it fills (delta_z) or the value in library units (omega_x in rad/s)
_BAD_VALUES = [
    ("analysis", "alpha_intervals", "0"), ("analysis", "alpha_intervals", "4001"),
    ("analysis", "beta_intervals", "1"), ("analysis", "sweep_min_hz", "0"),
    ("analysis", "sweep_min_hz", "3000"), ("analysis", "sweep_max_hz", "inf"),
    ("analysis", "sweep_max_hz", "400e3"),  # past the sweep's 363.8 kHz on the default grid
    ("analysis", "sweep_points", "0"), ("analysis", "sweep_points", "1"),
    ("analysis", "sweep_points", "-3"), ("analysis", "waveform_samples", "0"),
    ("analysis", "trajectory_samples", "1"), ("analysis", "trajectory_samples", "2.5"),
    ("pulse", "gate_time_s", "inf"), ("pulse", "mu_offset_hz", "nan"), ("pulse", "amp_hz", "0"),
    ("optimize", "seed", "-1"), ("trap", "omega_x_hz", "nan"), ("trap", "delta_z_m", "nan"),
    ("pulse", "n_oscillations", "0"), ("optimize", "max_evals", "0"), ("pulse", "shape", "C"),
    ("trap", "n_ions", "1"),  # every gate addresses a pair
    ("trap", "delta_z_m", "0", "must be positive and finite"),
    ("trap", "scale_r", "2", "must lie in [0.5, 1.5]"),
    ("trap", "cutoff_s", "1", "must lie in (0, 1)"),
    ("trap", "omega_x_hz", "-1", "must be positive and finite"),
    ("trap", "ion_mass_kg", "0", "must be positive and finite"),
    ("trap", "charge_c", "-1.6e-19", "must be positive and finite"),
    ("trap", "raman_wavevector_per_m", "0", "must be positive and finite"),
    ("pulse", "shape_b_levels", "1,2,3", "outer plateau levels must match for a time-symmetric envelope"),
    ("pulse", "shape_b_levels", "1,2", "must hold exactly 3 values"),  # although the shape is A
    ("pulse", "shape_b_ramp_fraction", "0.3", "must lie in (0, 0.25)"),
]


@pytest.mark.parametrize("section, key, value, reason", [
    pytest.param(*case[:3], case[3] if len(case) > 3 else None, id=f"{case[1]}-{case[2]}")
    for case in _BAD_VALUES
])
def test_bad_analysis_grid_or_range(tmp_path, capsys, section, key, value, reason):
    # refused when the config is read, so even a stage that never uses the value fails
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "out"
    assert run(["-c", str(path), "-o", str(out), "crystal"]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key}" in err
    if reason is not None:
        assert err == f"error: bad value for [{section}] {key}: {value!r} ({reason})\n"
    assert not out.exists()


def test_config_sha256_hashes_resolved_values(small_config, tmp_path):
    # the hash describes the settings that ran: an override changes it, a comment does not
    def recorded(name, config, *flags):
        out = tmp_path / name
        assert run(["-c", config, "-o", str(out), *flags, "crystal"]) == 0
        return json.loads((out / "crystal_manifest.json").read_text())["config_sha256"]

    commented = tmp_path / "commented.ini"
    commented.write_text("# twelve ions\n" + SMALL_CONFIG.replace("ion_j = 6", "ion_j = 6  # next"))
    seed_2 = recorded("seed_2", small_config, "--seed", "2")
    assert recorded("seed_3", small_config, "--seed", "3") != seed_2
    assert recorded("commented", str(commented), "--seed", "2") == seed_2


def test_config_values_are_read_literally(tmp_path, capsys):
    # configparser's % interpolation raised InterpolationSyntaxError (a traceback,
    # exit 1) for a % anywhere in a value; values are now text as written
    out = tmp_path / "out%1"
    path = tmp_path / "percent.ini"
    path.write_text(SMALL_CONFIG.replace("threads = 2", f"threads = 2\ndir = {out}"))
    assert run(["-c", str(path), "crystal"]) == 0
    assert (out / "crystal.npz").exists()
    path.write_text("[output]\ndir = out%%1\n")
    assert load_config(str(path)).output_dir == "out%%1"  # two characters, not one
    path.write_text("[trap]\nn_ions = 1%2\n")
    capsys.readouterr()
    assert run(["-c", str(path), "-o", str(tmp_path / "bad"), "crystal"]) == 2
    assert capsys.readouterr().err == (
        "error: bad value for [trap] n_ions: '1%2' (an integer >= 2)\n")


def test_readme_config_block_matches_keys():
    # the README shows every key with its default, so the two cannot drift apart
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    shown = {(section, name): parser[section][name]
             for section in parser.sections() for name in parser[section]}
    assert shown == {(key.section, key.name): key.default for key in KEYS}


def test_powermap_with_every_pair_degenerate(small_config, tmp_path, capsys):
    # two intervals resolve no entangling angle, so no pair is computed; the
    # schedule comes from a finer grid, on which optimize calibrates its pair
    out = tmp_path / "out"
    for stage in ("crystal", "modes", "optimize"):
        assert run(["-c", small_config, "-o", str(out), stage]) == 0
    capsys.readouterr()
    path = tmp_path / "coarse.ini"
    path.write_text(SMALL_CONFIG.replace("beta_intervals = 1000", "beta_intervals = 2"))
    assert run(["-c", str(path), "-o", str(out), "powermap"]) == 0
    assert "powermap[A]: 0 pairs (66 degenerate)" in capsys.readouterr().out
    assert (out / "powermap_A.csv").read_bytes() == b"ion_i,ion_j,omega_max_hz\r\n"
    params = json.loads((out / "powermap_manifest.json").read_text())["parameters"]
    assert params["pairs"] == 0 and len(params["degenerate_pairs"]) == 66
    for stat in ("min", "max", "mean"):
        assert params[f"omega_max_{stat}_hz"] is None


def test_recompute_stops_at_a_degenerate_design_pair(tmp_path, capsys):
    # powermap --recompute runs optimize, whose calibration of (ion_i, ion_j)
    # two intervals cannot resolve: the chain stops there
    path = tmp_path / "coarse.ini"
    path.write_text(SMALL_CONFIG.replace("beta_intervals = 1000", "beta_intervals = 2"))
    out = tmp_path / "out"
    assert run(["-c", str(path), "-o", str(out), "powermap", "--recompute"]) == 2
    assert "uncoupled" in capsys.readouterr().err
    assert not (out / "optimize_manifest.json").exists()
    assert not (out / "powermap_A.csv").exists()


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
        ["crystal.npz", "positions.csv"],
    ),
    "modes": (
        r"modes: 12 transverse modes, \d\.\d{4} to \d\.\d{4} MHz",
        {"lowest_hz", "highest_hz"},
        {"solve"},
        {"crystal.npz"},
        ["modes.npz", "spectrum.csv"],
    ),
    "optimize": (
        rf"optimize\[A\]: \d+ evaluations, final cost {_FLOAT}, "
        rf"motional error {_FLOAT}, omega_max \d+\.\d kHz",
        {"shape", "pair", "target_modes", "evaluations", "final_cost", "motional_error",
         "beta_rad", "omega_max_hz", "seed", "budget_exhausted", "rule_nodes", "rule_gap"},
        {"optimize", "report"},
        {"modes.npz"},
        ["optimize_trace_A.csv", "schedule_A.json", "waveform_A.npz"],
    ),
    "report": (
        rf"report\[A\]: pair \(5,6\) beta [+-]\d\.\d{{6}} rad, "
        rf"motional error {_FLOAT}, omega_max \d+\.\d kHz",
        {"shape", "pair", "motional_error", "omega_max_hz"},
        {"report"},
        {"schedule_A.json", "modes.npz"},
        ["report_A.json", "trajectories_A.npz"],
    ),
    "sweep": (
        rf"sweep\[A\]: baseline {_FLOAT}, "
        r"(slope -?\d+\.\d\d \+/- \d+\.\d\d|too few points in the fit window for a slope)",
        {"shape", "pair", "baseline_error", "fitted_slope", "slope_stderr"},
        {"sweep"},
        {"schedule_A.json", "modes.npz"},
        ["sweep_A.csv"],
    ),
    "powermap": (
        r"powermap\[A\]: 66 pairs, omega_max \d+\.\d to \d+\.\d kHz \(\d+ degenerate\)",
        {"shape", "pairs", "degenerate_pairs", "omega_max_min_hz", "omega_max_max_hz",
         "omega_max_mean_hz"},
        {"map"},
        {"schedule_A.json", "modes.npz"},
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
        assert manifest["outputs"] == outputs


def test_crystal_text_files_alone_are_a_missing_prerequisite(small_config, tmp_path, capsys):
    # a directory written before the crystal was stored as .npz holds positions.csv and
    # crystal.json, which no stage reads: modes must not re-solve them silently
    out = tmp_path / "out"
    assert run(["-c", small_config, "-o", str(out), "crystal"]) == 0
    (out / "crystal.npz").unlink()
    (out / "crystal.json").write_text('{"iterations": 1, "n_ions": 12, "residual_force_n": 0.0}\n')
    capsys.readouterr()
    assert run(["-c", small_config, "-o", str(out), "modes"]) == 3
    assert capsys.readouterr().err == (
        "error: missing prerequisite 'crystal.npz'; run `ionpulse crystal` first "
        "or pass --recompute\n")
    assert not (out / "modes.npz").exists()


@pytest.mark.parametrize("stage, upstream, stale", [
    ("modes", ["crystal"], "crystal.npz"),
    ("optimize", ["crystal", "modes"], "modes.npz"),
])
def test_stale_upstream_ion_count(small_config, tmp_path, capsys, stage, upstream, stale):
    out = tmp_path / "out"
    for name in upstream:
        assert run(["-c", small_config, "-o", str(out), name]) == 0
    fewer = tmp_path / "ten.ini"
    fewer.write_text(SMALL_CONFIG.replace("n_ions = 12", "n_ions = 10"))
    capsys.readouterr()
    assert run(["-c", str(fewer), "-o", str(out), stage]) == 3
    assert capsys.readouterr().err == (
        f"error: stale prerequisite {stale!r} holds 12 ions but [trap] n_ions is 10; "
        f"rerun `ionpulse {upstream[-1]}` or pass --recompute\n")
    assert not (out / f"{stage}_manifest.json").exists()
    if stage == "modes":
        assert run(["-c", str(fewer), "-o", str(out), stage, "--recompute"]) == 0
        with np.load(out / "modes.npz", allow_pickle=False) as data:
            assert len(data["frequencies_rad_s"]) == 10


def test_modes_json_alone_is_a_missing_prerequisite(small_config, tmp_path, capsys):
    # a directory written before the modes were stored as .npz holds only modes.json,
    # which no stage reads
    out = tmp_path / "out"
    for name in ("crystal", "modes"):
        assert run(["-c", small_config, "-o", str(out), name]) == 0
    with np.load(out / "modes.npz", allow_pickle=False) as data:
        payload = {name: data[name].tolist() for name in data.files}
    (out / "modes.npz").unlink()
    (out / "modes.json").write_text(json.dumps(payload, sort_keys=True) + "\n")
    capsys.readouterr()
    assert run(["-c", small_config, "-o", str(out), "optimize"]) == 3
    assert capsys.readouterr().err == (
        "error: missing prerequisite 'modes.npz'; run `ionpulse modes` first "
        "or pass --recompute\n")
    assert not (out / "optimize_manifest.json").exists()


def test_malformed_prerequisite_exit_code(small_config, tmp_path, capsys):
    # an interrupted write leaves a truncated file: it is refused like a stale one,
    # naming the file and the stage that rewrites it
    out = tmp_path / "out"
    for name in ("crystal", "modes", "optimize"):
        assert run(["-c", small_config, "-o", str(out), name]) == 0
    for stage, cut, size, upstream in (("report", "schedule_A.json", 100, "optimize"),
                                       ("modes", "crystal.npz", 50, "crystal"),
                                       ("optimize", "modes.npz", 100, "modes"),
                                       ("optimize", "modes.npz", 0, "modes")):
        path = out / cut
        path.write_bytes(path.read_bytes()[:size])
        (out / f"{stage}_manifest.json").unlink(missing_ok=True)
        capsys.readouterr()
        assert run(["-c", small_config, "-o", str(out), stage]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: malformed prerequisite ") and f"{cut!r}" in err, err
        assert err.endswith(f"; rerun `ionpulse {upstream}` or pass --recompute\n"), err
        assert not (out / f"{stage}_manifest.json").exists()


# (stage, the file it hands on under SMALL_CONFIG, the first stage that reads it)
_HANDED_ON = [(name, row.file.format(shape="A"),
               next(down for down, d in _STAGES.items() if name in d.reads))
              for name, row in _STAGES.items() if row.file]


@pytest.mark.parametrize("upstream, name, stage", _HANDED_ON)
@pytest.mark.parametrize("cut", ["to 0 bytes", "to half", "by its last 6 bytes"])
def test_every_cut_hand_off_file_is_malformed(designed_dir, small_config, tmp_path, capsys,
                                              upstream, name, stage, cut):
    # a cut file must not parse: none may hand on a shorter crystal or mode set
    out = tmp_path / "out"
    shutil.copytree(designed_dir, out)
    path = out / name
    data = path.read_bytes()
    path.write_bytes(data[:{"to 0 bytes": 0, "to half": len(data) // 2}.get(cut, -6)])
    assert run(["-c", small_config, "-o", str(out), stage]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed prerequisite {name!r} ("), err
    assert err.endswith(f"; rerun `ionpulse {upstream}` or pass --recompute\n"), err


@pytest.mark.parametrize("name, stage, bad", [
    pytest.param("crystal.npz", "modes", lambda data: {
        **data, "positions_m": np.where(np.arange(12) == 6, np.nan, data["positions_m"])},
        id="nan-position"),
    pytest.param("modes.npz", "optimize", lambda data: {
        **data, "vectors": data["vectors"][:10, :10], "eta": data["eta"][:, :10]},
        id="10-ion-vectors-of-12-modes"),
])
def test_hand_off_file_the_records_refuse_is_malformed(designed_dir, small_config, tmp_path,
                                                       capsys, name, stage, bad):
    # a file that parses but holds a nan position, or modes of mismatched shapes, would
    # fail later in a solver or a broadcast (exit 2) far from the file
    out = tmp_path / "out"
    shutil.copytree(designed_dir, out)
    with np.load(out / name, allow_pickle=False) as data:
        payload = bad({key: data[key] for key in data.files})
    write_npz(out / name, **payload)
    assert run(["-c", small_config, "-o", str(out), stage]) == 3
    assert capsys.readouterr().err.startswith(f"error: malformed prerequisite {name!r} (")


def test_staged_optimize_matches_recompute(small_config, tmp_path):
    # optimize --recompute runs crystal and modes as stages, then reads the
    # modes.npz they wrote: a seeded rerun in a fresh directory designs the
    # staged schedule byte for byte
    staged, direct = tmp_path / "staged", tmp_path / "direct"
    for name in ("crystal", "modes", "optimize"):
        assert run(["-c", small_config, "-o", str(staged), name]) == 0
    assert run(["-c", small_config, "-o", str(direct), "optimize", "--recompute"]) == 0
    assert (staged / "schedule_A.json").read_bytes() == (direct / "schedule_A.json").read_bytes()


def load_trajectories(path):
    with np.load(path, allow_pickle=False) as data:
        return data["t_s"], data["alpha"], data["mode"]


def selection_config(tmp_path, selection):
    path = tmp_path / f"{selection}.ini"
    path.write_text(SMALL_CONFIG.replace("trajectory_modes = targets", f"trajectory_modes = {selection}"))
    return str(path)


def test_report_trajectories_do_not_depend_on_selection(designed_dir, tmp_path):
    # report integrates only the modes it writes, each on its own: the target
    # modes' rows of the `all` file are the `targets` file's, bit for bit
    out = tmp_path / "out"
    shutil.copytree(designed_dir, out)
    assert run(["-c", selection_config(tmp_path, "targets"), "-o", str(out), "report"]) == 0
    t_s, targets, modes = load_trajectories(out / "trajectories_A.npz")
    assert len(modes) == 10
    assert run(["-c", selection_config(tmp_path, "all"), "-o", str(out), "report"]) == 0
    every_t_s, every, every_modes = load_trajectories(out / "trajectories_A.npz")
    assert every_modes.tolist() == list(range(1, 13))
    assert every_t_s.tobytes() == t_s.tobytes()
    assert every[modes - 1].tobytes() == targets.tobytes()


def test_report_leaves_no_stale_trajectories(designed_dir, tmp_path):
    # each report rewrites the one trajectory file of its shape, `none` included,
    # so every trajectory file in the directory is one its manifest lists
    out = tmp_path / "out"
    shutil.copytree(designed_dir, out)
    targets = json.loads((out / "optimize_manifest.json").read_text())["parameters"]["target_modes"]
    for selection, traced in (("all", list(range(1, 13))), ("targets", targets), ("none", [])):
        assert run(["-c", selection_config(tmp_path, selection), "-o", str(out), "report"]) == 0
        outputs = json.loads((out / "report_manifest.json").read_text())["outputs"]
        files = sorted(p.name for p in out.glob("trajector*"))
        assert files and set(files) <= set(outputs), (selection, files, outputs)
        for name in files:
            t_s, alpha, modes = load_trajectories(out / name)
            assert modes.tolist() == traced, selection
            assert (t_s.dtype, alpha.dtype, modes.dtype) == (np.float64, np.complex128, np.int64)
            assert alpha.shape == (len(traced), len(t_s)) and bool(traced) == bool(len(t_s))


def test_parser_is_built_once_and_parses_each_call_afresh(small_config, tmp_path):
    # a powermap --pairs call leaves nothing behind for the next command to read
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["powermap", "--pairs", "5"]).pairs == "5"
    assert not hasattr(build_parser().parse_args(["report"]), "pairs")

    def crystal_sha256(out):
        assert run(["-c", small_config, "-o", str(out), "crystal"]) == 0
        return json.loads((out / "crystal_manifest.json").read_text())["config_sha256"]

    before = crystal_sha256(tmp_path / "before")
    assert run(["-c", small_config, "-o", str(tmp_path / "map"), "powermap", "--pairs", "5"]) == 3
    assert crystal_sha256(tmp_path / "after") == before


@pytest.mark.parametrize("value", ["0", "-3", "abc", "2.5"])
def test_bad_powermap_pairs(small_config, tmp_path, capsys, value):
    out = tmp_path / "out"
    assert run(
        ["-c", small_config, "-o", str(out), "powermap", "--recompute", "--pairs", value]
    ) == 2
    assert "powermap_pairs" in capsys.readouterr().err
    assert not out.exists()  # refused before any stage work
