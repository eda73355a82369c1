"""Command-line front end.

Wires a structured key-value config file (INI sections: trap, pulse,
optimize, analysis, output) to the pipeline and emits plot-ready CSV/JSON
artifacts plus a manifest per command. All frequencies at this interface are
ordinary frequencies in Hz; the library converts to rad/s internally.

Subcommands: crystal, modes, optimize, report, sweep, powermap. Each command
expects its upstream artifacts in the output directory and exits with code 3
when they are missing or were built for another ion count; pass --recompute to
rebuild prerequisites in-process. Validation and solver failures exit with
code 2.

The output directory resolves in order: --output-dir flag, IONPULSE_OUTPUT_DIR
environment variable, [output] dir config key, ./ionpulse_out.
"""

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    all_pairs,
    default_offsets,
    offset_sweep,
    power_map,
    save_power_map_csv,
    save_sweep_csv,
)
from .crystal import (
    IonEscape,
    NonConvergence,
    TrapConfig,
    load_crystal,
    save_crystal,
    solve_equilibrium,
)
from .modes import (
    DegenerateSpacing,
    ImaginaryMode,
    StaleModesFile,
    build_transverse_matrix,
    load_modes,
    save_modes,
    save_spectrum_csv,
    solve_modes,
)
from .optimizer import (
    BudgetExhausted,
    DegeneratePair,
    OptimizationProblem,
    build_gate_report,
    calibrate_power,
    default_mu_ref,
    optimize,
    resolve_target_modes,
)
from .pulse import (
    PulseSchedule,
    ShapeA,
    ShapeB,
    load_schedule,
    save_schedule,
    save_waveform_csv,
    with_amplitude,
)
from .trajectory import save_trajectory_csv

EXIT_ERROR = 2
EXIT_MISSING_PREREQ = 3

ENV_OUTPUT_DIR = "IONPULSE_OUTPUT_DIR"


class ConfigError(Exception):
    """Bad or inconsistent configuration input."""


class MissingPrerequisite(Exception):
    """An upstream artifact file is absent or does not match the config."""


@dataclass
class RunConfig:
    """Parsed configuration for one CLI invocation."""

    trap: TrapConfig
    shape_kind: str
    gate_time: float
    n_oscillations: int
    mu_mode: object  # 1-based index or None for the most uniform mode
    mu_offset: float  # rad/s
    amp_scale: float  # rad/s
    shape_b_levels: tuple
    shape_b_ramp_fraction: float
    ion_i: int
    ion_j: int
    seed: int
    max_evals: int
    n_starts: int
    target_modes: tuple
    sweep_points: int
    sweep_min: float  # rad/s
    sweep_max: float  # rad/s
    powermap_pairs: object  # seeded sample size, or None for all pairs
    alpha_intervals: int
    beta_intervals: int
    waveform_samples: int
    trajectory_samples: int
    trajectory_modes: str
    output_dir: str
    config_text: str = field(default="", repr=False)

    def amp_shape(self):
        if self.shape_kind == "A":
            return ShapeA()
        return ShapeB(
            step_levels=self.shape_b_levels,
            ramp_fraction=self.shape_b_ramp_fraction,
        )


_DEFAULTS = {
    "trap": {
        "n_ions": "50",
        "delta_z_m": "3e-6",
        "scale_r": "0.95",
        "cutoff_s": "0.98",
        "omega_x_hz": "3.07e6",
        "ion_mass_kg": "2.838e-25",
        "charge_c": "1.602176634e-19",
        "raman_wavevector_per_m": "",  # empty -> 2 pi / 355 nm
    },
    "pulse": {
        "shape": "A",
        "gate_time_s": "500e-6",
        "n_oscillations": "8",
        "mu_mode": "uniform",  # 1-based mode index, or 'uniform' for the evenest mode
        "mu_offset_hz": "-3700",
        "amp_hz": "100e3",
        "shape_b_levels": "0.55, 1.0, 0.55",
        "shape_b_ramp_fraction": "0.16",
    },
    "optimize": {
        "ion_i": "25",
        "ion_j": "26",
        "seed": "1",
        "max_evals": "120000",
        "n_starts": "3",
        "target_modes": "",
    },
    "analysis": {
        "sweep_points": "20",
        "sweep_min_hz": "10",
        "sweep_max_hz": "2000",
        "powermap_pairs": "all",
        "alpha_intervals": "20000",
        "beta_intervals": "2000",
        "waveform_samples": "2001",
        "trajectory_samples": "2001",
        "trajectory_modes": "targets",
    },
    "output": {
        "dir": "ionpulse_out",
        "threads": "0",
    },
}


def load_config(path=None, overrides=None):
    """Parse the INI config (all sections optional) and apply CLI overrides."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_dict(_DEFAULTS)
    text = ""
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            text = fh.read()
        try:
            parser.read_string(text, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc
    for section in parser.sections():
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
    overrides = overrides or {}

    def get(section, key, cast):
        raw = overrides.get((section, key), parser.get(section, key))
        try:
            return cast(str(raw))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    def get_count(section, key, word):
        """An integer >= 1, or None for `word`."""
        raw = get(section, key, str).strip().lower()
        try:
            count = None if raw == word else int(raw)
        except ValueError:
            count = 0
        if count is not None and count < 1:
            raise ConfigError(f"{key} must be {word!r} or an integer >= 1, got {raw!r}")
        return count

    def get_intervals(key):
        """An even interval count >= 2, as composite Simpson needs."""
        count = get("analysis", key, int)
        if count < 2 or count % 2:
            raise ConfigError(f"[analysis] {key} must be an even integer >= 2, got {count}")
        return count

    two_pi = 2 * np.pi
    raman = get("trap", "raman_wavevector_per_m", str).strip()
    try:
        trap = TrapConfig(
            n_ions=get("trap", "n_ions", int),
            delta_z=get("trap", "delta_z_m", float),
            scale_r=get("trap", "scale_r", float),
            cutoff_s=get("trap", "cutoff_s", float),
            omega_x=two_pi * get("trap", "omega_x_hz", float),
            ion_mass=get("trap", "ion_mass_kg", float),
            charge=get("trap", "charge_c", float),
            **({"raman_wavevector": float(raman)} if raman else {}),
        )
    except ValueError as exc:
        raise ConfigError(f"bad trap configuration: {exc}") from exc

    shape_kind = get("pulse", "shape", str).strip().upper()
    if shape_kind not in ("A", "B"):
        raise ConfigError(f"pulse shape must be A or B, got {shape_kind!r}")
    mu_mode = get_count("pulse", "mu_mode", "uniform")
    levels = get("pulse", "shape_b_levels", lambda s: tuple(float(v) for v in s.split(",")))
    targets = get(
        "optimize", "target_modes",
        lambda s: tuple(int(v) for v in s.split(",")) if s.strip() else (),
    )
    traj_modes = get("analysis", "trajectory_modes", str).strip().lower()
    if traj_modes not in ("targets", "all", "none"):
        raise ConfigError(
            f"trajectory_modes must be targets, all or none, got {traj_modes!r}"
        )
    sweep_min = get("analysis", "sweep_min_hz", float)
    sweep_max = get("analysis", "sweep_max_hz", float)
    if not 0 < sweep_min < sweep_max < np.inf:
        raise ConfigError(f"[analysis] sweep_min_hz and sweep_max_hz must satisfy "
                          f"0 < min < max < inf, got {sweep_min!r} and {sweep_max!r}")
    get("output", "threads", int)  # accepted for compatibility and ignored, but must parse

    return RunConfig(
        trap=trap,
        shape_kind=shape_kind,
        gate_time=get("pulse", "gate_time_s", float),
        n_oscillations=get("pulse", "n_oscillations", int),
        mu_mode=mu_mode,
        mu_offset=two_pi * get("pulse", "mu_offset_hz", float),
        amp_scale=two_pi * get("pulse", "amp_hz", float),
        shape_b_levels=levels,
        shape_b_ramp_fraction=get("pulse", "shape_b_ramp_fraction", float),
        ion_i=get("optimize", "ion_i", int),
        ion_j=get("optimize", "ion_j", int),
        seed=get("optimize", "seed", int),
        max_evals=get("optimize", "max_evals", int),
        n_starts=get("optimize", "n_starts", int),
        target_modes=targets,
        sweep_points=get("analysis", "sweep_points", int),
        sweep_min=two_pi * sweep_min,
        sweep_max=two_pi * sweep_max,
        powermap_pairs=get_count("analysis", "powermap_pairs", "all"),
        alpha_intervals=get_intervals("alpha_intervals"),
        beta_intervals=get_intervals("beta_intervals"),
        waveform_samples=get("analysis", "waveform_samples", int),
        trajectory_samples=get("analysis", "trajectory_samples", int),
        trajectory_modes=traj_modes,
        output_dir=get("output", "dir", str),
        config_text=text,
    )


def _sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _check_writable(out_dir):
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir!r} is not writable: {exc}") from exc


def _require(out_dir, names, stage, inputs):
    """Check that the files `stage` writes all exist; record and return their paths."""
    paths = [os.path.join(out_dir, name) for name in names]
    for path in paths:
        if not os.path.exists(path):
            raise MissingPrerequisite(
                f"missing prerequisite {os.path.basename(path)!r}; run `ionpulse {stage}` "
                "first or pass --recompute"
            )
    inputs.extend(paths)
    return paths


def _check_ion_count(count, name, stage, cfg):
    if count != cfg.trap.n_ions:
        raise MissingPrerequisite(
            f"stale prerequisite {name!r} holds {count} ions but [trap] n_ions is "
            f"{cfg.trap.n_ions}; rerun `ionpulse {stage}` or pass --recompute"
        )


def _check_indices(cfg, stage, recompute):
    """Check the ion and mode indices `stage` reads against [trap] n_ions."""
    # optimize, or a later stage that rebuilds its schedule under --recompute
    optimizes = stage == "optimize" or (recompute and stage not in ("crystal", "modes"))
    if not (optimizes or stage in ("report", "sweep")):
        return
    indices = [("ion_i", cfg.ion_i), ("ion_j", cfg.ion_j)]
    if optimizes or stage == "report":  # report picks the target modes it writes
        indices += [("mu_mode", cfg.mu_mode)] if cfg.mu_mode is not None else []
        indices += [("target_modes", k) for k in cfg.target_modes]
    n = cfg.trap.n_ions
    for label, k in indices:
        if not 1 <= k <= n:
            raise ConfigError(f"{label} index {k} outside 1..{n}")
    if cfg.ion_i == cfg.ion_j:
        raise ConfigError("ion_i and ion_j must differ")


def _load_crystal(cfg, out_dir, recompute, inputs):
    if recompute:
        return solve_equilibrium(cfg.trap)
    crystal = load_crystal(*_require(out_dir, ["positions.csv", "crystal.json"], "crystal", inputs))
    _check_ion_count(crystal.n_ions, "crystal.json", "crystal", cfg)
    return crystal


def _load_modes(cfg, out_dir, recompute, inputs):
    if recompute:
        crystal = _load_crystal(cfg, out_dir, recompute, inputs)
        return solve_modes(build_transverse_matrix(crystal, cfg.trap), cfg.trap)
    try:
        modes = load_modes(*_require(out_dir, ["modes.json"], "modes", inputs))
    except StaleModesFile as exc:
        raise MissingPrerequisite(
            "stale prerequisite 'modes.json' stores no frequencies in rad/s; "
            "rerun `ionpulse modes` or pass --recompute"
        ) from exc
    _check_ion_count(modes.n_modes, "modes.json", "modes", cfg)
    return modes


def _load_schedule(cfg, out_dir, recompute, inputs):
    """Returns (schedule, modes); under --recompute the schedule is optimized and saved."""
    if recompute:
        modes = _load_modes(cfg, out_dir, recompute, inputs)
        schedule, _, _, exhausted = _optimize_and_save(cfg, out_dir, _make_problem(cfg, modes))
        if exhausted is not None:
            raise exhausted
        return schedule, modes
    name = f"schedule_{cfg.shape_kind}.json"
    schedule = load_schedule(*_require(out_dir, [name], "optimize", inputs))
    return schedule, _load_modes(cfg, out_dir, recompute, inputs)


def _make_problem(cfg, modes):
    base = PulseSchedule(
        gate_time=cfg.gate_time,
        amp_shape=cfg.amp_shape(),
        amp_scale=cfg.amp_scale,
        mu_ref=default_mu_ref(modes, mode=cfg.mu_mode, offset=cfg.mu_offset),
        fm_points=np.zeros(cfg.n_oscillations),
        n_oscillations=cfg.n_oscillations,
    )
    return OptimizationProblem(
        base_schedule=base,
        modes=modes,
        ion_pair=(cfg.ion_i, cfg.ion_j),
        target_modes=cfg.target_modes or None,
        max_evals=cfg.max_evals,
        seed=cfg.seed,
        n_starts=cfg.n_starts,
        n_intervals=cfg.alpha_intervals,
    )


def _optimize_and_save(cfg, out_dir, problem):
    """Optimize, then write the schedule, its eval/cost trace and its waveform.

    A spent budget keeps the best point seen: it is written like a converged
    result, and the BudgetExhausted comes back for the caller to raise (exit
    code 2) once its own outputs are written. Returns (schedule, trace,
    written paths, BudgetExhausted or None).
    """
    trace = []
    exhausted = None
    try:
        schedule = optimize(problem, callback=lambda n, c, _x: trace.append((n, c)))
    except BudgetExhausted as exc:
        exhausted = exc
        schedule = replace(problem.base_schedule, fm_points=exc.best_fm_points)
    sched_path = os.path.join(out_dir, f"schedule_{cfg.shape_kind}.json")
    save_schedule(schedule, sched_path)
    trace_path = os.path.join(out_dir, f"optimize_trace_{cfg.shape_kind}.csv")
    with open(trace_path, "w", newline="") as fh:
        fh.write("eval,cost\n")
        for n, c in trace:
            fh.write(f"{n},{c!r}\n")
    wave_path = os.path.join(out_dir, f"waveform_{cfg.shape_kind}.csv")
    save_waveform_csv(schedule, wave_path, samples=cfg.waveform_samples)
    return schedule, trace, [sched_path, trace_path, wave_path], exhausted


class StageResult(NamedTuple):
    """What a stage hands back to run_stage."""

    line: str  # the one stdout summary line
    outputs: list
    parameters: dict
    timings: dict
    deferred: Exception = None  # raised once the manifest is written


def cmd_crystal(cfg, out_dir, recompute, inputs):
    t0 = time.perf_counter()
    crystal = solve_equilibrium(cfg.trap)
    t1 = time.perf_counter()
    csv_path = os.path.join(out_dir, "positions.csv")
    json_path = os.path.join(out_dir, "crystal.json")
    save_crystal(crystal, csv_path, json_path)
    spacing = crystal.spacings
    mean_um = spacing.mean() * 1e6
    variation = (spacing.max() - spacing.min()) / spacing.mean() * 100.0
    return StageResult(
        f"crystal: {crystal.n_ions} ions, mean spacing {mean_um:.3f} um, "
        f"variation {variation:.2f} %, {crystal.iterations} iterations",
        [csv_path, json_path],
        {
            "n_ions": crystal.n_ions,
            "mean_spacing_um": mean_um,
            "spacing_variation_pct": variation,
            "residual_force_n": crystal.residual_force,
            "iterations": crystal.iterations,
        },
        {"solve": t1 - t0},
    )


def cmd_modes(cfg, out_dir, recompute, inputs):
    t0 = time.perf_counter()
    crystal = _load_crystal(cfg, out_dir, recompute, inputs)
    modes = solve_modes(build_transverse_matrix(crystal, cfg.trap), cfg.trap)
    t1 = time.perf_counter()
    json_path = os.path.join(out_dir, "modes.json")
    csv_path = os.path.join(out_dir, "spectrum.csv")
    save_modes(modes, json_path)
    save_spectrum_csv(modes, csv_path)
    lo = modes.frequencies[0] / (2 * np.pi)
    hi = modes.frequencies[-1] / (2 * np.pi)
    return StageResult(
        f"modes: {modes.n_modes} transverse modes, {lo / 1e6:.4f} to {hi / 1e6:.4f} MHz",
        [json_path, csv_path],
        {"lowest_hz": lo, "highest_hz": hi},
        {"solve": t1 - t0},
    )


def cmd_optimize(cfg, out_dir, recompute, inputs):
    modes = _load_modes(cfg, out_dir, recompute, inputs)
    problem = _make_problem(cfg, modes)
    t0 = time.perf_counter()
    schedule, trace, outputs, exhausted = _optimize_and_save(cfg, out_dir, problem)
    t1 = time.perf_counter()
    report = build_gate_report(
        schedule, modes, cfg.ion_i, cfg.ion_j,
        alpha_intervals=cfg.alpha_intervals, beta_intervals=cfg.beta_intervals,
        include_trajectories=False,
    )
    t2 = time.perf_counter()
    final_cost = min(c for _, c in trace)
    omega_max_hz = report.omega_max / (2 * np.pi)
    return StageResult(
        f"optimize[{cfg.shape_kind}]: {len(trace)} evaluations, "
        f"final cost {final_cost:.3e}, motional error {report.motional_error:.3e}, "
        f"omega_max {omega_max_hz / 1e3:.1f} kHz",
        outputs,
        {
            "shape": cfg.shape_kind,
            "pair": [cfg.ion_i, cfg.ion_j],
            "target_modes": list(resolve_target_modes(problem)),
            "evaluations": len(trace),
            "final_cost": final_cost,
            "motional_error": report.motional_error,
            "beta_rad": report.beta,
            "omega_max_hz": omega_max_hz,
            "seed": cfg.seed,
            "budget_exhausted": exhausted is not None,
        },
        {"optimize": t1 - t0, "report": t2 - t1},
        exhausted,
    )


def cmd_report(cfg, out_dir, recompute, inputs):
    schedule, modes = _load_schedule(cfg, out_dir, recompute, inputs)
    selected = ()
    if cfg.trajectory_modes == "all":
        selected = range(1, modes.n_modes + 1)
    elif cfg.trajectory_modes == "targets":
        selected = resolve_target_modes(_make_problem(cfg, modes))
    t0 = time.perf_counter()
    report = build_gate_report(
        schedule, modes, cfg.ion_i, cfg.ion_j,
        alpha_intervals=cfg.alpha_intervals, beta_intervals=cfg.beta_intervals,
        include_trajectories=bool(selected), trajectory_modes=selected,
    )
    t1 = time.perf_counter()
    outputs = []
    for traj in report.trajectories:
        path = os.path.join(out_dir, f"trajectory_mode_{traj.mode:02d}_{cfg.shape_kind}.csv")
        save_trajectory_csv(traj, path, samples=cfg.trajectory_samples)
        outputs.append(path)

    report_path = os.path.join(out_dir, f"report_{cfg.shape_kind}.json")
    omega_max_hz = report.omega_max / (2 * np.pi)
    payload = {
        "pair": list(report.pair),
        "beta_rad": report.beta,
        "motional_error": report.motional_error,
        "omega_max_hz": omega_max_hz,
        "mode_endpoint_sq": list(report.mode_errors),
    }
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(report_path)
    return StageResult(
        f"report[{cfg.shape_kind}]: pair ({cfg.ion_i},{cfg.ion_j}) "
        f"beta {report.beta:+.6f} rad, motional error {report.motional_error:.3e}, "
        f"omega_max {omega_max_hz / 1e3:.1f} kHz",
        outputs,
        {
            "shape": cfg.shape_kind,
            "pair": [cfg.ion_i, cfg.ion_j],
            "motional_error": report.motional_error,
            "omega_max_hz": omega_max_hz,
        },
        {"report": t1 - t0},
    )


def cmd_sweep(cfg, out_dir, recompute, inputs):
    schedule, modes = _load_schedule(cfg, out_dir, recompute, inputs)
    offsets = default_offsets(cfg.sweep_points, cfg.sweep_min, cfg.sweep_max)
    t0 = time.perf_counter()
    # sweep at the power `report` calibrates, so the baseline is the reported gate error
    omega_max = calibrate_power(schedule, modes, cfg.ion_i, cfg.ion_j, cfg.beta_intervals)
    sweep = offset_sweep(
        with_amplitude(schedule, omega_max), modes, (cfg.ion_i, cfg.ion_j), offsets,
        n_intervals=cfg.alpha_intervals,
    )
    t1 = time.perf_counter()
    csv_path = os.path.join(out_dir, f"sweep_{cfg.shape_kind}.csv")
    save_sweep_csv(sweep, csv_path)
    if sweep.fitted_slope is not None:
        fit = f"slope {sweep.fitted_slope:.2f} +/- {sweep.slope_stderr:.2f}"
    else:
        fit = "too few points in the fit window for a slope"
    return StageResult(
        f"sweep[{cfg.shape_kind}]: baseline {sweep.baseline:.3e}, {fit}",
        [csv_path],
        {
            "shape": cfg.shape_kind,
            "pair": [cfg.ion_i, cfg.ion_j],
            "baseline_error": sweep.baseline,
            "fitted_slope": sweep.fitted_slope,
            "slope_stderr": sweep.slope_stderr,
        },
        {"sweep": t1 - t0},
    )


def cmd_powermap(cfg, out_dir, recompute, inputs):
    schedule, modes = _load_schedule(cfg, out_dir, recompute, inputs)
    pairs = all_pairs(modes.n_modes)
    if cfg.powermap_pairs is not None:
        rng = np.random.default_rng(cfg.seed)
        size = min(cfg.powermap_pairs, len(pairs))
        pairs = [pairs[i] for i in sorted(rng.choice(len(pairs), size=size, replace=False))]
    t0 = time.perf_counter()
    pmap = power_map(schedule, modes, pairs, n_intervals=cfg.beta_intervals)
    t1 = time.perf_counter()
    csv_path = os.path.join(out_dir, f"powermap_{cfg.shape_kind}.csv")
    save_power_map_csv(pmap, csv_path)
    values = np.array([v for _, _, v in pmap.computed_pairs()])
    hz = dict.fromkeys(("min", "max", "mean"))  # null when every pair is degenerate
    summary = f"powermap[{cfg.shape_kind}]: {len(values)} pairs"
    if len(values):
        hz = {stat: float(getattr(values, stat)()) / (2 * np.pi) for stat in hz}
        summary += f", omega_max {hz['min'] / 1e3:.1f} to {hz['max'] / 1e3:.1f} kHz"
    return StageResult(
        f"{summary} ({len(pmap.degenerate_pairs)} degenerate)",
        [csv_path],
        {
            "shape": cfg.shape_kind,
            "pairs": len(values),
            "degenerate_pairs": [list(p) for p in pmap.degenerate_pairs],
            "omega_max_min_hz": hz["min"],
            "omega_max_max_hz": hz["max"],
            "omega_max_mean_hz": hz["mean"],
        },
        {"map": t1 - t0},
    )


_COMMANDS = {
    "crystal": cmd_crystal,
    "modes": cmd_modes,
    "optimize": cmd_optimize,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "powermap": cmd_powermap,
}


def run_stage(name, cfg, out_dir, recompute):
    """Run one stage, print its summary line and write <name>_manifest.json."""
    _check_indices(cfg, name, recompute)
    inputs = []
    result = _COMMANDS[name](cfg, out_dir, recompute, inputs)
    print(result.line)
    manifest = {
        "command": name,
        "version": __version__,
        "config_sha256": hashlib.sha256(cfg.config_text.encode()).hexdigest(),
        "inputs": {os.path.basename(p): _sha256_file(p) for p in inputs},
        "outputs": sorted(os.path.basename(p) for p in result.outputs),
        "parameters": result.parameters,
        "timings_s": result.timings,
    }
    with open(os.path.join(out_dir, f"{name}_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if result.deferred is not None:
        raise result.deferred
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ionpulse",
        description="Ion chain modeling and FM entangling-pulse synthesis",
    )
    parser.add_argument("--config", "-c", help="INI config file (defaults used when omitted)")
    parser.add_argument("--output-dir", "-o", help="output directory override")
    parser.add_argument("--seed", type=int, help="optimizer seed override")
    parser.add_argument("--threads", type=int, help="accepted for compatibility; ignored")
    parser.add_argument("--shape", choices=["A", "B"], help="pulse shape override")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} stage")
        cmd.add_argument(
            "--recompute", action="store_true",
            help="rebuild missing prerequisites in-process instead of failing",
        )
        if name == "powermap":
            cmd.add_argument(
                "--pairs", default=None,
                help="'all' or a pair sample count (seeded subset)",
            )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides[("optimize", "seed")] = str(args.seed)
    if args.shape is not None:
        overrides[("pulse", "shape")] = args.shape
    if getattr(args, "pairs", None) is not None:
        overrides[("analysis", "powermap_pairs")] = args.pairs
    try:
        cfg = load_config(args.config, overrides)
        out_dir = args.output_dir or os.environ.get(ENV_OUTPUT_DIR) or cfg.output_dir
        _check_writable(out_dir)
        return run_stage(args.command, cfg, out_dir, args.recompute)
    except MissingPrerequisite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_PREREQ
    except (
        ConfigError,
        NonConvergence,
        IonEscape,
        DegenerateSpacing,
        ImaginaryMode,
        BudgetExhausted,
        DegeneratePair,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
