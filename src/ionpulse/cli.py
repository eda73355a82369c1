"""Command-line front end.

Wires a structured key-value config file (INI sections: trap, pulse,
optimize, analysis, output; values read literally, so `%` is an ordinary
character) to the pipeline and emits plot-ready CSV/JSON artifacts, the
crystal and the modes as one exact .npz file each, one .npz of the optimized
waveform and one of the report's trajectories per shape, and a manifest per
command. All frequencies at this interface are ordinary frequencies in Hz; the
library converts to rad/s internally.

Subcommands: crystal, modes, optimize, report, sweep, powermap. One table,
_STAGES, declares each: its command, the stages whose files it loads, the ion
and mode indices it checks and the one file it hands on with its loader.
run_stage reads the upstream files from the output directory and exits with
code 3 when one is missing, does not parse or was built for another ion count.
--recompute runs the stages it depends on first, each writing its files and
manifest and printing its line, so the command then reads what they wrote.
Validation and solver failures exit with code 2.

The output directory resolves in order: --output-dir flag, IONPULSE_OUTPUT_DIR
environment variable, [output] dir config key, ./ionpulse_out.
"""

import argparse
import configparser
import functools
import hashlib
import json
import os
import sys
import time
import zipfile
from dataclasses import make_dataclass
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
from .artifacts import write_json, write_text
from .crystal import (
    IonEscape,
    NonConvergence,
    TrapConfig,
    load_crystal,
    save_crystal,
    save_positions_csv,
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
    save_waveform,
    with_amplitude,
)
from .trajectory import (
    DEFAULT_ALPHA_INTERVALS,
    DEFAULT_BETA_INTERVALS,
    DEFAULT_TRAJECTORY_SAMPLES,
    max_offset,
    save_trajectories,
)

EXIT_ERROR = 2
EXIT_MISSING_PREREQ = 3

ENV_OUTPUT_DIR = "IONPULSE_OUTPUT_DIR"


class ConfigError(Exception):
    """Bad or inconsistent configuration input."""


class MissingPrerequisite(Exception):
    """An upstream artifact file is absent or does not match the config."""


class _Parser(NamedTuple):
    """Reads a config value's text: `parse` raises ValueError on text it cannot
    read, and `accept` says whether the value lies in the range `allowed` names."""

    allowed: str
    parse: object
    accept: object = lambda value: True


def _number(positive=False, hz=False):
    """A finite float, > 0 when `positive`; `hz` converts Hz to rad/s (2 pi f)."""
    low = 0.0 if positive else -np.inf
    return _Parser("a finite number" + (" > 0" if positive else ""),
                   (lambda text: 2 * np.pi * float(text)) if hz else float,
                   lambda value: low < value < np.inf)


def _integer(least=None, even=False):
    """An integer >= `least`; `even` asks for an even one (composite Simpson)."""
    allowed = ("an even integer" if even else "an integer") + (
        f" >= {least}" if least is not None else "")
    return _Parser(allowed, int,
                   lambda value: (least is None or value >= least) and not (even and value % 2))


def _word(*words):
    """One of `words`, in any letter case."""
    by_lower = {word.lower(): word for word in words}
    return _Parser(f"{', '.join(words[:-1])} or {words[-1]}",
                   lambda text: by_lower.get(text.lower()), lambda value: value is not None)


def _count_or(word):
    """An integer >= 1, or None for `word`."""
    return _Parser(f"an integer >= 1 or {word!r}",
                   lambda text: None if text.lower() == word else int(text),
                   lambda value: value is None or value >= 1)


def _list(item):
    """Comma-separated values, each read by `item`."""
    return _Parser(f"comma-separated, each {item.allowed}",
                   lambda text: tuple(item.parse(v) for v in text.split(",")),
                   lambda values: all(map(item.accept, values)))


class Key(NamedTuple):
    """One config key. `field` names what its value fills: a RunConfig field,
    `trap.<TrapConfig field>`, `shape_b.<ShapeB field>`, or nothing ("")."""

    section: str
    name: str
    default: str  # the text the README's config block shows
    field: str
    parser: _Parser


# Every config key, in README order. A key whose default is empty reads an empty
# value as None: TrapConfig's own default, or the optimizer's automatic choice.
# TrapConfig and ShapeB check the ranges of the values they take.
KEYS = (
    Key("trap", "n_ions", "50", "trap.n_ions", _integer(2)),  # a gate needs a pair
    Key("trap", "delta_z_m", "3e-6", "trap.delta_z", _number()),
    Key("trap", "scale_r", "0.95", "trap.scale_r", _number()),
    Key("trap", "cutoff_s", "0.98", "trap.cutoff_s", _number()),
    Key("trap", "omega_x_hz", "3.07e6", "trap.omega_x", _number(hz=True)),
    Key("trap", "ion_mass_kg", "2.838e-25", "trap.ion_mass", _number()),
    Key("trap", "charge_c", "1.602176634e-19", "trap.charge", _number()),
    Key("trap", "raman_wavevector_per_m", "", "trap.raman_wavevector", _number()),
    Key("pulse", "shape", "A", "shape_kind", _word("A", "B")),
    Key("pulse", "gate_time_s", "500e-6", "gate_time", _number(positive=True)),
    Key("pulse", "n_oscillations", "8", "n_oscillations", _integer(1)),
    Key("pulse", "mu_mode", "uniform", "mu_mode", _count_or("uniform")),  # None: evenest mode
    Key("pulse", "mu_offset_hz", "-3700", "mu_offset", _number(hz=True)),
    Key("pulse", "amp_hz", "100e3", "amp_scale", _number(positive=True, hz=True)),
    Key("pulse", "shape_b_levels", "0.55, 1.0, 0.55", "shape_b.step_levels", _list(_number())),
    Key("pulse", "shape_b_ramp_fraction", "0.16", "shape_b.ramp_fraction", _number()),
    Key("optimize", "ion_i", "25", "ion_i", _integer()),  # indices: see _STAGES
    Key("optimize", "ion_j", "26", "ion_j", _integer()),
    Key("optimize", "seed", "1", "seed", _integer(0)),
    Key("optimize", "max_evals", "120000", "max_evals", _integer(1)),
    Key("optimize", "n_starts", "3", "n_starts", _integer(1)),
    Key("optimize", "target_modes", "", "target_modes", _list(_integer())),
    Key("analysis", "sweep_points", "20", "sweep_points", _integer(2)),
    Key("analysis", "sweep_min_hz", "10", "sweep_min", _number(positive=True, hz=True)),
    Key("analysis", "sweep_max_hz", "2000", "sweep_max", _number(positive=True, hz=True)),
    Key("analysis", "powermap_pairs", "all", "powermap_pairs", _count_or("all")),  # None: all
    Key("analysis", "alpha_intervals", str(DEFAULT_ALPHA_INTERVALS), "alpha_intervals",
        _integer(2, even=True)),
    Key("analysis", "beta_intervals", str(DEFAULT_BETA_INTERVALS), "beta_intervals",
        _integer(2, even=True)),
    Key("analysis", "waveform_samples", "2001", "waveform_samples", _integer(2)),
    Key("analysis", "trajectory_samples", str(DEFAULT_TRAJECTORY_SAMPLES), "trajectory_samples",
        _integer(2)),
    Key("analysis", "trajectory_modes", "targets", "trajectory_modes",
        _word("targets", "all", "none")),
    Key("output", "dir", "ionpulse_out", "output_dir", _Parser("a path", str)),
    Key("output", "threads", "0", "", _integer()),  # accepted for compatibility and ignored
)

RunConfig = make_dataclass(
    "RunConfig",
    [key.field for key in KEYS if key.field and "." not in key.field]
    + ["trap", "amp_shape", "config_sha256"],
    frozen=True,
)
RunConfig.__doc__ = """Parsed configuration for one CLI invocation (fields: see KEYS).

config_sha256 hashes the resolved text of every key, so two runs with the same
hash ran with the same settings."""


def _build(cls, owner, values, texts):
    """cls(**values), `values` holding what the `<owner>.` KEYS read (None: the
    field's default) and `texts` every key's text.

    On a refusal only, each value is built alone to find the key it refuses: the
    message names that key and quotes its text as written, in place of the field's
    name and its value in library units.
    """
    given = {name: value for name, value in values.items() if value is not None}
    try:
        return cls(**given)
    except ValueError as exc:
        keys = [key for key in KEYS if key.field.startswith(f"{owner}.")]
        for key in keys:
            name = key.field.partition(".")[2]
            if name not in given:
                continue
            try:
                cls(**{name: given[name]})
            except ValueError as alone:
                reason = str(alone).removeprefix(f"{name} ").split(", got ")[0]
                raise ConfigError(f"bad value for [{key.section}] {key.name}: "
                                  f"{texts[key.section, key.name]!r} ({reason})") from exc
        raise ConfigError(f"bad [{keys[0].section}] configuration: {exc}") from exc


def load_config(path=None, overrides=None):
    """Read the INI config (every section and key optional) under CLI overrides.

    Every value is parsed and checked here, so a bad one fails every command.
    Values are read literally: no `%` interpolation, so `%%` is two characters.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:
                raise ConfigError(f"cannot parse config: {exc}") from exc
    if parser.defaults():  # configparser would copy them into every section
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    names = {(key.section, key.name) for key in KEYS}
    for section in parser.sections():
        if section not in {s for s, _ in names}:
            raise ConfigError(f"unknown config section [{section}]")
        for name in parser[section]:
            if (section, name) not in names:
                raise ConfigError(f"unknown config key {name!r} in [{section}]")
    overrides = overrides or {}
    texts = {
        (key.section, key.name): str(overrides.get(
            (key.section, key.name), parser.get(key.section, key.name, fallback=key.default)
        )).strip()
        for key in KEYS
    }

    values = {"": {}, "trap": {}, "shape_b": {}}
    for key in KEYS:
        text = texts[key.section, key.name]
        empty = text == key.default == ""
        try:
            value = None if empty else key.parser.parse(text)
            accepted = empty or key.parser.accept(value)
        except ValueError:
            accepted = False
        if not accepted:
            raise ConfigError(f"bad value for [{key.section}] {key.name}: {text!r} "
                              f"({key.parser.allowed})")
        if key.field:
            owner, _, name = key.field.rpartition(".")
            values[owner][name] = value
    fields = values[""]
    if not fields["sweep_min"] < fields["sweep_max"]:
        raise ConfigError("[analysis] sweep_min_hz must be below sweep_max_hz, got "
                          f"{texts['analysis', 'sweep_min_hz']!r} and "
                          f"{texts['analysis', 'sweep_max_hz']!r}")
    limit = max_offset(fields["gate_time"], fields["alpha_intervals"])
    if fields["sweep_max"] > limit:
        raise ConfigError(f"[analysis] sweep_max_hz {texts['analysis', 'sweep_max_hz']!r} is above "
                          f"{limit / (2 * np.pi):.6g} Hz, the largest offset the sweep takes on "
                          f"alpha_intervals = {fields['alpha_intervals']} over gate_time_s = "
                          f"{texts['pulse', 'gate_time_s']}")
    trap = _build(TrapConfig, "trap", values["trap"], texts)
    shape_b = _build(ShapeB, "shape_b", values["shape_b"], texts)  # checked for shape A too
    resolved = json.dumps([[*name, text] for name, text in texts.items()])
    return RunConfig(
        **fields,
        trap=trap,
        amp_shape=ShapeA() if fields["shape_kind"] == "A" else shape_b,
        config_sha256=hashlib.sha256(resolved.encode()).hexdigest(),
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


def _check_indices(cfg, fields):
    """Check the ion and mode indices in the RunConfig `fields` against [trap] n_ions;
    a list may not repeat one."""
    n = cfg.trap.n_ions
    for field in fields:
        value = getattr(cfg, field)  # an index, a tuple of them, or None
        indices = (value,) if isinstance(value, int) else value or ()
        for k in indices:
            if not 1 <= k <= n:
                raise ConfigError(f"{field} index {k} outside 1..{n}")
            if indices.count(k) > 1:
                raise ConfigError(f"{field} index {k} is given twice")
    if "ion_j" in fields and cfg.ion_i == cfg.ion_j:
        raise ConfigError("ion_i and ion_j must differ")


def _hand_off(cfg, out_dir, stage):
    """Path of the file `stage` hands on, its _STAGES `file` under [pulse] shape."""
    return os.path.join(out_dir, _STAGES[stage].file.format(shape=cfg.shape_kind))


# what a loader raises on a truncated or unparsable file (json's errors are ValueErrors;
# np.load raises EOFError on an empty .npz and BadZipFile on a cut one)
_MALFORMED = (ValueError, LookupError, TypeError, EOFError, zipfile.BadZipFile)


def _load(cfg, out_dir, stage):
    """Read back what `stage` hands on; a missing, malformed or stale file raises
    MissingPrerequisite."""
    row = _STAGES[stage]
    path = _hand_off(cfg, out_dir, stage)
    name = os.path.basename(path)
    if not os.path.exists(path):
        raise MissingPrerequisite(f"missing prerequisite {name!r}; "
                                  f"run `ionpulse {stage}` first or pass --recompute")
    rerun = f"rerun `ionpulse {stage}` or pass --recompute"
    try:
        loaded = row.load(path)
    except _MALFORMED as exc:
        raise MissingPrerequisite(f"malformed prerequisite {name!r} ({exc}); {rerun}") from exc
    count = getattr(loaded, row.count) if row.count else cfg.trap.n_ions
    if count != cfg.trap.n_ions:
        raise MissingPrerequisite(f"stale prerequisite {name!r} holds {count} ions but "
                                  f"[trap] n_ions is {cfg.trap.n_ions}; {rerun}")
    return loaded


def _make_problem(cfg, modes):
    base = PulseSchedule(
        gate_time=cfg.gate_time,
        amp_shape=cfg.amp_shape,
        amp_scale=cfg.amp_scale,
        mu_ref=default_mu_ref(modes, mode=cfg.mu_mode, offset=cfg.mu_offset),
        fm_points=np.zeros(cfg.n_oscillations),
        n_oscillations=cfg.n_oscillations,
    )
    return OptimizationProblem(
        base_schedule=base,
        modes=modes,
        ion_pair=(cfg.ion_i, cfg.ion_j),
        target_modes=cfg.target_modes,
        max_evals=cfg.max_evals,
        seed=cfg.seed,
        n_starts=cfg.n_starts,
    )


class StageResult(NamedTuple):
    """What a stage hands back to run_stage."""

    line: str  # the one stdout summary line
    outputs: list
    parameters: dict
    timings: dict
    deferred: Exception = None  # raised once the manifest is written


def cmd_crystal(cfg, out_dir):
    t0 = time.perf_counter()
    crystal = solve_equilibrium(cfg.trap)
    t1 = time.perf_counter()
    npz_path = _hand_off(cfg, out_dir, "crystal")
    csv_path = os.path.join(out_dir, "positions.csv")
    save_crystal(crystal, npz_path)
    save_positions_csv(crystal, csv_path)
    spacing = crystal.spacings
    mean_um = spacing.mean() * 1e6
    variation = (spacing.max() - spacing.min()) / spacing.mean() * 100.0
    return StageResult(
        f"crystal: {crystal.n_ions} ions, mean spacing {mean_um:.3f} um, "
        f"variation {variation:.2f} %, {crystal.iterations} iterations",
        [npz_path, csv_path],
        {
            "n_ions": crystal.n_ions,
            "mean_spacing_um": mean_um,
            "spacing_variation_pct": variation,
            "residual_force_n": crystal.residual_force,
            "iterations": crystal.iterations,
        },
        {"solve": t1 - t0},
    )


def cmd_modes(cfg, out_dir, crystal):
    t0 = time.perf_counter()
    modes = solve_modes(build_transverse_matrix(crystal, cfg.trap), cfg.trap)
    t1 = time.perf_counter()
    npz_path = _hand_off(cfg, out_dir, "modes")
    csv_path = os.path.join(out_dir, "spectrum.csv")
    save_modes(modes, npz_path)
    save_spectrum_csv(modes, csv_path)
    lo = modes.frequencies[0] / (2 * np.pi)
    hi = modes.frequencies[-1] / (2 * np.pi)
    return StageResult(
        f"modes: {modes.n_modes} transverse modes, {lo / 1e6:.4f} to {hi / 1e6:.4f} MHz",
        [npz_path, csv_path],
        {"lowest_hz": lo, "highest_hz": hi},
        {"solve": t1 - t0},
    )


def cmd_optimize(cfg, out_dir, modes):
    """Optimize, then write the run's schedule, its eval/cost trace and its waveform.

    The waveform is waveform_<shape>.npz (pulse.save_waveform): the saved
    schedule sampled at [analysis] waveform_samples times, its floats unrounded.

    A spent budget keeps the run at the best point seen, which the
    BudgetExhausted carries: it is written like a converged run, and the
    exception is raised (exit code 2) once the manifest is written. The run's
    schedule is in its saved form (pulse.saved_form), so the manifest's gate
    figures are the ones report computes from the file.
    """
    problem = _make_problem(cfg, modes)
    t0 = time.perf_counter()
    exhausted = None
    try:
        run = optimize(problem)
    except BudgetExhausted as exc:
        exhausted, run = exc, exc.result
    sched_path = _hand_off(cfg, out_dir, "optimize")
    save_schedule(run.schedule, sched_path)
    trace_path = os.path.join(out_dir, f"optimize_trace_{cfg.shape_kind}.csv")
    write_text(trace_path, ["eval,cost\n", *(f"{n},{c!r}\n" for n, c in enumerate(run.costs, 1))])
    wave_path = os.path.join(out_dir, f"waveform_{cfg.shape_kind}.npz")
    save_waveform(run.schedule, wave_path, samples=cfg.waveform_samples)
    t1 = time.perf_counter()
    report = build_gate_report(
        run.schedule, modes, cfg.ion_i, cfg.ion_j,
        alpha_intervals=cfg.alpha_intervals, beta_intervals=cfg.beta_intervals,
        trajectory_modes=(),
    )
    t2 = time.perf_counter()
    omega_max_hz = report.omega_max / (2 * np.pi)
    return StageResult(
        f"optimize[{cfg.shape_kind}]: {len(run.costs)} evaluations, "
        f"final cost {run.final_cost:.3e}, motional error {report.motional_error:.3e}, "
        f"omega_max {omega_max_hz / 1e3:.1f} kHz",
        [sched_path, trace_path, wave_path],
        {
            "shape": cfg.shape_kind,
            "pair": [cfg.ion_i, cfg.ion_j],
            "target_modes": list(resolve_target_modes(problem)),
            "evaluations": len(run.costs),
            "final_cost": run.final_cost,
            "rule_nodes": run.rule_nodes,
            "rule_gap": run.rule_gap,
            "motional_error": report.motional_error,
            "beta_rad": report.beta,
            "omega_max_hz": omega_max_hz,
            "seed": cfg.seed,
            "budget_exhausted": exhausted is not None,
        },
        {"optimize": t1 - t0, "report": t2 - t1},
        exhausted,
    )


def cmd_report(cfg, out_dir, schedule, modes):
    selected = ()
    if cfg.trajectory_modes == "all":
        selected = range(1, modes.n_modes + 1)
    elif cfg.trajectory_modes == "targets":
        selected = resolve_target_modes(_make_problem(cfg, modes))
    t0 = time.perf_counter()
    report = build_gate_report(
        schedule, modes, cfg.ion_i, cfg.ion_j,
        alpha_intervals=cfg.alpha_intervals, beta_intervals=cfg.beta_intervals,
        trajectory_modes=selected, trajectory_samples=cfg.trajectory_samples,
    )
    t1 = time.perf_counter()
    # written under every selection, `none` included, so no earlier run's file outlives it
    trajectories_path = os.path.join(out_dir, f"trajectories_{cfg.shape_kind}.npz")
    save_trajectories(report, trajectories_path)

    report_path = os.path.join(out_dir, f"report_{cfg.shape_kind}.json")
    omega_max_hz = report.omega_max / (2 * np.pi)
    write_json(report_path, {
        "pair": list(report.pair),
        "beta_rad": report.beta,
        "motional_error": report.motional_error,
        "omega_max_hz": omega_max_hz,
        "mode_endpoint_sq": list(report.mode_errors),
    })
    return StageResult(
        f"report[{cfg.shape_kind}]: pair ({cfg.ion_i},{cfg.ion_j}) "
        f"beta {report.beta:+.6f} rad, motional error {report.motional_error:.3e}, "
        f"omega_max {omega_max_hz / 1e3:.1f} kHz",
        [trajectories_path, report_path],
        {
            "shape": cfg.shape_kind,
            "pair": [cfg.ion_i, cfg.ion_j],
            "motional_error": report.motional_error,
            "omega_max_hz": omega_max_hz,
        },
        {"report": t1 - t0},
    )


def cmd_sweep(cfg, out_dir, schedule, modes):
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


def cmd_powermap(cfg, out_dir, schedule, modes):
    pairs = None  # every pair
    if cfg.powermap_pairs is not None:
        every = all_pairs(modes.n_modes)
        rng = np.random.default_rng(cfg.seed)
        size = min(cfg.powermap_pairs, len(every))
        pairs = [every[i] for i in sorted(rng.choice(len(every), size=size, replace=False))]
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


class Stage(NamedTuple):
    """One row of _STAGES. run_stage checks `indices`, loads what each stage in
    `reads` hands on (see _load) and passes it to `command`."""

    command: object  # (cfg, out_dir, *what the `reads` stages hand on) -> StageResult
    reads: tuple = ()  # in argument order; --recompute runs the first one before this
    indices: tuple = ()  # RunConfig index fields checked against [trap] n_ions
    file: str = ""  # the file it hands on, "{shape}" being [pulse] shape
    load: object = None  # (path of `file`) -> what it hands on
    count: str = ""  # the attribute of what `load` returns that must equal [trap] n_ions


_PAIR = ("ion_i", "ion_j")
_DRIVE = ("mu_mode", "target_modes")  # report resolves the target modes it writes

# Each stage's inputs, index checks and hand-off files, declared here and
# nowhere else. The loaders are lambdas, so each library name is looked up
# when it is called.
_STAGES = {
    "crystal": Stage(cmd_crystal, file="crystal.npz", load=lambda path: load_crystal(path),
                     count="n_ions"),
    "modes": Stage(cmd_modes, ("crystal",), file="modes.npz",
                   load=lambda path: load_modes(path), count="n_modes"),
    "optimize": Stage(cmd_optimize, ("modes",), _PAIR + _DRIVE, "schedule_{shape}.json",
                      lambda path: load_schedule(path)),
    "report": Stage(cmd_report, ("optimize", "modes"), _PAIR + _DRIVE),
    "sweep": Stage(cmd_sweep, ("optimize", "modes"), _PAIR),
    "powermap": Stage(cmd_powermap, ("optimize", "modes")),
}


def run_stage(name, cfg, out_dir, recompute):
    """Run stage `name`, under `recompute` after every stage it depends on.

    Each stage prints its summary line and writes <stage>_manifest.json, which
    hashes the files it loaded. The indices of every stage in the chain are
    checked before the first runs.
    """
    chain = [name]
    while recompute and _STAGES[chain[0]].reads:
        chain.insert(0, _STAGES[chain[0]].reads[0])
    for stage in chain:
        _check_indices(cfg, _STAGES[stage].indices)
    for stage in chain:
        reads = _STAGES[stage].reads
        result = _STAGES[stage].command(cfg, out_dir, *[_load(cfg, out_dir, up) for up in reads])
        print(result.line)
        inputs = [_hand_off(cfg, out_dir, upstream) for upstream in reads]
        write_json(os.path.join(out_dir, f"{stage}_manifest.json"), {
            "command": stage,
            "version": __version__,
            "config_sha256": cfg.config_sha256,
            "inputs": {os.path.basename(p): _sha256_file(p) for p in inputs},
            "outputs": sorted(os.path.basename(p) for p in result.outputs),
            "parameters": result.parameters,
            "timings_s": result.timings,
        })
        if result.deferred is not None:
            raise result.deferred
    return 0


@functools.cache
def build_parser():
    # built once per process: parse_args makes a new namespace on every call
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
    for name in _STAGES:
        cmd = sub.add_parser(name, help=f"run the {name} stage")
        cmd.add_argument(
            "--recompute", action="store_true",
            help="run the stages this one depends on first, writing their files",
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
