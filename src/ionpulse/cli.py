"""Command-line front end.

Wires a structured key-value config file (INI sections: trap, pulse,
optimize, analysis, output) to the pipeline and emits plot-ready CSV/JSON
artifacts plus a manifest per command. All frequencies at this interface are
ordinary frequencies in Hz; the library converts to rad/s internally.

Subcommands: crystal, modes, optimize, report, sweep, powermap. Each command
expects its upstream artifacts in the output directory and exits with code 3
when they are missing; pass --recompute to rebuild prerequisites in-process.
Validation and solver failures exit with code 2.

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

import numpy as np

from . import __version__
from .analysis import (
    all_pairs,
    default_offsets,
    fit_slope,
    offset_sweep,
    power_map,
    save_power_map_csv,
    save_sweep_csv,
    InsufficientPoints,
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
)
from .trajectory import save_trajectory_csv

EXIT_ERROR = 2
EXIT_MISSING_PREREQ = 3

ENV_OUTPUT_DIR = "IONPULSE_OUTPUT_DIR"


class ConfigError(Exception):
    """Bad or inconsistent configuration input."""


class MissingPrerequisite(Exception):
    """An upstream artifact file is absent."""


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
    powermap_pairs: str
    alpha_intervals: int
    beta_intervals: int
    waveform_samples: int
    trajectory_samples: int
    trajectory_modes: str
    output_dir: str
    threads: int
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
    mu_mode_raw = get("pulse", "mu_mode", str).strip().lower()
    if mu_mode_raw == "uniform":
        mu_mode = None
    else:
        try:
            mu_mode = int(mu_mode_raw)
        except ValueError:
            raise ConfigError(
                f"mu_mode must be a mode index or 'uniform', got {mu_mode_raw!r}"
            ) from None
    levels = tuple(
        float(v) for v in get("pulse", "shape_b_levels", str).split(",")
    )
    targets_raw = get("optimize", "target_modes", str).strip()
    targets = tuple(int(v) for v in targets_raw.split(",")) if targets_raw else ()
    ppairs = get("analysis", "powermap_pairs", str).strip().lower()
    if ppairs != "all":
        try:
            int(ppairs)
        except ValueError:
            raise ConfigError(
                f"powermap_pairs must be 'all' or a pair count, got {ppairs!r}"
            ) from None
    traj_modes = get("analysis", "trajectory_modes", str).strip().lower()
    if traj_modes not in ("targets", "all", "none"):
        raise ConfigError(
            f"trajectory_modes must be targets, all or none, got {traj_modes!r}"
        )
    threads = get("output", "threads", int)
    if threads <= 0:
        threads = os.cpu_count() or 1

    n = trap.n_ions
    ion_i, ion_j = get("optimize", "ion_i", int), get("optimize", "ion_j", int)
    indices = [("ion_i", ion_i), ("ion_j", ion_j)]
    if mu_mode is not None:
        indices.append(("mu_mode", mu_mode))
    indices += [("target_modes", k) for k in targets]
    for label, k in indices:
        if not 1 <= k <= n:
            raise ConfigError(f"{label} index {k} outside 1..{n}")
    if ion_i == ion_j:
        raise ConfigError("ion_i and ion_j must differ")

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
        ion_i=ion_i,
        ion_j=ion_j,
        seed=get("optimize", "seed", int),
        max_evals=get("optimize", "max_evals", int),
        n_starts=get("optimize", "n_starts", int),
        target_modes=targets,
        sweep_points=get("analysis", "sweep_points", int),
        sweep_min=two_pi * get("analysis", "sweep_min_hz", float),
        sweep_max=two_pi * get("analysis", "sweep_max_hz", float),
        powermap_pairs=ppairs,
        alpha_intervals=get("analysis", "alpha_intervals", int),
        beta_intervals=get("analysis", "beta_intervals", int),
        waveform_samples=get("analysis", "waveform_samples", int),
        trajectory_samples=get("analysis", "trajectory_samples", int),
        trajectory_modes=traj_modes,
        output_dir=get("output", "dir", str),
        threads=threads,
        config_text=text,
    )


def _sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


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


def _write_manifest(out_dir, command, cfg, inputs, outputs, parameters, timings):
    manifest = {
        "command": command,
        "version": __version__,
        "config_sha256": _sha256_text(cfg.config_text),
        "inputs": {os.path.basename(p): _sha256_file(p) for p in inputs},
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "parameters": parameters,
        "timings_s": timings,
    }
    path = os.path.join(out_dir, f"{command}_manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _artifact(out_dir, name):
    return os.path.join(out_dir, name)


def _require(path, hint):
    if not os.path.exists(path):
        raise MissingPrerequisite(
            f"missing prerequisite {os.path.basename(path)!r}; run `ionpulse {hint}` "
            "first or pass --recompute"
        )
    return path


def _load_or_build_crystal(cfg, out_dir, recompute, inputs):
    csv_path = _artifact(out_dir, "positions.csv")
    json_path = _artifact(out_dir, "crystal.json")
    if recompute or not (os.path.exists(csv_path) and os.path.exists(json_path)):
        if not recompute:
            _require(csv_path, "crystal")
        return solve_equilibrium(cfg.trap)
    inputs.extend([csv_path, json_path])
    return load_crystal(csv_path, json_path)


def _load_or_build_modes(cfg, out_dir, recompute, inputs):
    path = _artifact(out_dir, "modes.json")
    if recompute or not os.path.exists(path):
        if not recompute:
            _require(path, "modes")
        crystal = _load_or_build_crystal(cfg, out_dir, recompute, inputs)
        return solve_modes(build_transverse_matrix(crystal, cfg.trap), cfg.trap)
    inputs.append(path)
    return load_modes(path)


def _schedule_name(cfg):
    return f"schedule_{cfg.shape_kind}.json"


def _base_schedule(cfg, modes):
    mu_ref = default_mu_ref(modes, mode=cfg.mu_mode, offset=cfg.mu_offset)
    return PulseSchedule(
        gate_time=cfg.gate_time,
        amp_shape=cfg.amp_shape(),
        amp_scale=cfg.amp_scale,
        mu_ref=mu_ref,
        fm_points=np.zeros(cfg.n_oscillations),
        n_oscillations=cfg.n_oscillations,
    )


def _load_or_build_schedule(cfg, out_dir, recompute, inputs):
    path = _artifact(out_dir, _schedule_name(cfg))
    if recompute or not os.path.exists(path):
        if not recompute:
            _require(path, "optimize")
        modes = _load_or_build_modes(cfg, out_dir, recompute, inputs)
        schedule, _, _, exhausted = _optimize_and_save(cfg, out_dir, _make_problem(cfg, modes))
        if exhausted is not None:
            raise exhausted
        return schedule, modes
    inputs.append(path)
    modes = _load_or_build_modes(cfg, out_dir, recompute, inputs)
    return load_schedule(path), modes


def _make_problem(cfg, modes):
    return OptimizationProblem(
        base_schedule=_base_schedule(cfg, modes),
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
    sched_path = _artifact(out_dir, _schedule_name(cfg))
    save_schedule(schedule, sched_path)
    trace_path = _artifact(out_dir, f"optimize_trace_{cfg.shape_kind}.csv")
    with open(trace_path, "w", newline="") as fh:
        fh.write("eval,cost\n")
        for n, c in trace:
            fh.write(f"{n},{c!r}\n")
    wave_path = _artifact(out_dir, f"waveform_{cfg.shape_kind}.csv")
    save_waveform_csv(schedule, wave_path, samples=cfg.waveform_samples)
    return schedule, trace, [sched_path, trace_path, wave_path], exhausted


def cmd_crystal(cfg, out_dir, recompute):
    t0 = time.perf_counter()
    crystal = solve_equilibrium(cfg.trap)
    t1 = time.perf_counter()
    csv_path = _artifact(out_dir, "positions.csv")
    json_path = _artifact(out_dir, "crystal.json")
    save_crystal(crystal, csv_path, json_path)
    spacing = crystal.spacings
    mean_um = spacing.mean() * 1e6
    variation = (spacing.max() - spacing.min()) / spacing.mean() * 100.0
    print(f"crystal: {crystal.n_ions} ions, mean spacing {mean_um:.3f} um, "
          f"variation {variation:.2f} %, {crystal.iterations} iterations")
    _write_manifest(
        out_dir, "crystal", cfg, [], [csv_path, json_path],
        {
            "n_ions": crystal.n_ions,
            "mean_spacing_um": mean_um,
            "spacing_variation_pct": variation,
            "residual_force_n": crystal.residual_force,
            "iterations": crystal.iterations,
        },
        {"solve": t1 - t0},
    )
    return 0


def cmd_modes(cfg, out_dir, recompute):
    inputs = []
    t0 = time.perf_counter()
    crystal = _load_or_build_crystal(cfg, out_dir, recompute, inputs)
    modes = solve_modes(build_transverse_matrix(crystal, cfg.trap), cfg.trap)
    t1 = time.perf_counter()
    json_path = _artifact(out_dir, "modes.json")
    csv_path = _artifact(out_dir, "spectrum.csv")
    save_modes(modes, json_path)
    save_spectrum_csv(modes, csv_path)
    lo = modes.frequencies[0] / (2 * np.pi)
    hi = modes.frequencies[-1] / (2 * np.pi)
    print(f"modes: {modes.n_modes} transverse modes, "
          f"{lo / 1e6:.4f} to {hi / 1e6:.4f} MHz")
    _write_manifest(
        out_dir, "modes", cfg, inputs, [json_path, csv_path],
        {"lowest_hz": lo, "highest_hz": hi},
        {"solve": t1 - t0},
    )
    return 0


def cmd_optimize(cfg, out_dir, recompute):
    inputs = []
    modes = _load_or_build_modes(cfg, out_dir, recompute, inputs)
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
    print(f"optimize[{cfg.shape_kind}]: {len(trace)} evaluations, "
          f"final cost {final_cost:.3e}, motional error {report.motional_error:.3e}, "
          f"omega_max {report.omega_max / (2 * np.pi) / 1e3:.1f} kHz")
    _write_manifest(
        out_dir, "optimize", cfg, inputs, outputs,
        {
            "shape": cfg.shape_kind,
            "pair": [cfg.ion_i, cfg.ion_j],
            "target_modes": list(resolve_target_modes(problem)),
            "evaluations": len(trace),
            "final_cost": final_cost,
            "motional_error": report.motional_error,
            "beta_rad": report.beta,
            "omega_max_hz": report.omega_max / (2 * np.pi),
            "seed": cfg.seed,
            "budget_exhausted": exhausted is not None,
        },
        {"optimize": t1 - t0, "report": t2 - t1},
    )
    if exhausted is not None:
        raise exhausted
    return 0


def cmd_report(cfg, out_dir, recompute):
    inputs = []
    schedule, modes = _load_or_build_schedule(cfg, out_dir, recompute, inputs)
    t0 = time.perf_counter()
    report = build_gate_report(
        schedule, modes, cfg.ion_i, cfg.ion_j,
        alpha_intervals=cfg.alpha_intervals, beta_intervals=cfg.beta_intervals,
    )
    t1 = time.perf_counter()

    outputs = []
    if cfg.trajectory_modes != "none":
        if cfg.trajectory_modes == "all":
            selected = range(1, modes.n_modes + 1)
        else:
            problem = _make_problem(cfg, modes)
            selected = resolve_target_modes(problem)
        for k in selected:
            path = _artifact(out_dir, f"trajectory_mode_{k:02d}_{cfg.shape_kind}.csv")
            save_trajectory_csv(
                report.trajectories[k - 1], path, samples=cfg.trajectory_samples
            )
            outputs.append(path)

    report_path = _artifact(out_dir, f"report_{cfg.shape_kind}.json")
    payload = {
        "pair": list(report.pair),
        "beta_rad": report.beta,
        "motional_error": report.motional_error,
        "omega_max_hz": report.omega_max / (2 * np.pi),
        "mode_endpoint_sq": [
            float(np.abs(traj.endpoint) ** 2) for traj in report.trajectories
        ],
    }
    with open(report_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(report_path)

    print(f"report[{cfg.shape_kind}]: pair ({cfg.ion_i},{cfg.ion_j}) "
          f"beta {report.beta:+.6f} rad, motional error {report.motional_error:.3e}, "
          f"omega_max {report.omega_max / (2 * np.pi) / 1e3:.1f} kHz")
    _write_manifest(
        out_dir, "report", cfg, inputs, outputs,
        {
            "shape": cfg.shape_kind,
            "pair": [cfg.ion_i, cfg.ion_j],
            "motional_error": report.motional_error,
            "omega_max_hz": report.omega_max / (2 * np.pi),
        },
        {"report": t1 - t0},
    )
    return 0


def cmd_sweep(cfg, out_dir, recompute):
    inputs = []
    schedule, modes = _load_or_build_schedule(cfg, out_dir, recompute, inputs)
    offsets = default_offsets(cfg.sweep_points, cfg.sweep_min, cfg.sweep_max)
    t0 = time.perf_counter()
    sweep = offset_sweep(
        schedule, modes, (cfg.ion_i, cfg.ion_j), offsets,
        n_intervals=cfg.alpha_intervals, threads=cfg.threads,
    )
    t1 = time.perf_counter()
    csv_path = _artifact(out_dir, f"sweep_{cfg.shape_kind}.csv")
    save_sweep_csv(sweep, csv_path)
    if sweep.fitted_slope is not None:
        print(f"sweep[{cfg.shape_kind}]: baseline {sweep.baseline:.3e}, "
              f"slope {sweep.fitted_slope:.2f} +/- {sweep.slope_stderr:.2f}")
    else:
        print(f"sweep[{cfg.shape_kind}]: baseline {sweep.baseline:.3e}, "
              "too few points in the fit window for a slope")
    _write_manifest(
        out_dir, "sweep", cfg, inputs, [csv_path],
        {
            "shape": cfg.shape_kind,
            "pair": [cfg.ion_i, cfg.ion_j],
            "baseline_error": sweep.baseline,
            "fitted_slope": sweep.fitted_slope,
            "slope_stderr": sweep.slope_stderr,
        },
        {"sweep": t1 - t0},
    )
    return 0


def cmd_powermap(cfg, out_dir, recompute, pairs_override=None):
    inputs = []
    schedule, modes = _load_or_build_schedule(cfg, out_dir, recompute, inputs)
    spec = pairs_override if pairs_override is not None else cfg.powermap_pairs
    if spec == "all":
        pairs = all_pairs(modes.n_modes)
    else:
        count = int(spec)
        rng = np.random.default_rng(cfg.seed)
        candidates = all_pairs(modes.n_modes)
        chosen = rng.choice(len(candidates), size=min(count, len(candidates)), replace=False)
        pairs = [candidates[i] for i in sorted(chosen)]
    t0 = time.perf_counter()
    pmap = power_map(
        schedule, modes, pairs, n_intervals=cfg.beta_intervals, threads=cfg.threads
    )
    t1 = time.perf_counter()
    csv_path = _artifact(out_dir, f"powermap_{cfg.shape_kind}.csv")
    save_power_map_csv(pmap, csv_path)
    values = np.array([v for _, _, v in pmap.computed_pairs()])
    print(f"powermap[{cfg.shape_kind}]: {len(values)} pairs, omega_max "
          f"{values.min() / (2 * np.pi) / 1e3:.1f} to "
          f"{values.max() / (2 * np.pi) / 1e3:.1f} kHz "
          f"({len(pmap.degenerate_pairs)} degenerate)")
    _write_manifest(
        out_dir, "powermap", cfg, inputs, [csv_path],
        {
            "shape": cfg.shape_kind,
            "pairs": len(values),
            "degenerate_pairs": [list(p) for p in pmap.degenerate_pairs],
            "omega_max_min_hz": float(values.min()) / (2 * np.pi),
            "omega_max_max_hz": float(values.max()) / (2 * np.pi),
            "omega_max_mean_hz": float(values.mean()) / (2 * np.pi),
        },
        {"map": t1 - t0},
    )
    return 0


_COMMANDS = {
    "crystal": cmd_crystal,
    "modes": cmd_modes,
    "optimize": cmd_optimize,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "powermap": cmd_powermap,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ionpulse",
        description="Ion chain modeling and FM entangling-pulse synthesis",
    )
    parser.add_argument("--config", "-c", help="INI config file (defaults used when omitted)")
    parser.add_argument("--output-dir", "-o", help="output directory override")
    parser.add_argument("--seed", type=int, help="optimizer seed override")
    parser.add_argument("--threads", type=int, help="worker thread bound override")
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
    if args.threads is not None:
        overrides[("output", "threads")] = str(args.threads)
    if args.shape is not None:
        overrides[("pulse", "shape")] = args.shape
    try:
        cfg = load_config(args.config, overrides)
        out_dir = (
            args.output_dir
            or os.environ.get(ENV_OUTPUT_DIR)
            or cfg.output_dir
        )
        _check_writable(out_dir)
        if args.command == "powermap" and args.pairs is not None:
            return cmd_powermap(cfg, out_dir, args.recompute, pairs_override=args.pairs)
        return _COMMANDS[args.command](cfg, out_dir, args.recompute)
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
        InsufficientPoints,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
