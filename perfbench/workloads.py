"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in __init__ (that is the set-up
that setup_s times) and then runs whole rounds of fixed work. round() times
only the calls into ionpulse; the output checks run after the clock stops and
feed Outcomes, so a failed check counts against fail_ratio without aborting
the run.

Every call into the package goes through a module attribute
(``analysis.power_map(...)``), so a tracer that replaces those attributes
sees the benchmark's own calls as well as the package's internal ones.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from ionpulse import analysis, cli, crystal, modes, optimizer, pulse

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

DESIGN_PAIR = (25, 26)  # the pair the checked-in schedules were optimized for
REL_TOL = 1e-6  # the repo's tests compare beta, errors and powers at this tolerance
CLI_STAGES = ("crystal", "modes", "optimize", "report", "sweep", "powermap")

# gate_design: a pair and its mirror image, which pose the same optimization (see README.md)
DESIGN_PAIRS = ((24, 25), (26, 27))

# gate_analysis: the 48-point sweep over the CLI's default 10 Hz - 2 kHz range
SWEEP_POINTS = 48
SCHEDULE_SHAPES = ("A", "B")

# chain_scan grid: 61 chain lengths, 5 x 3 trap knobs
CHAIN_N_RANGE = range(2, 63)
SCALE_R = (0.85, 0.90, 0.95, 1.00, 1.05)
CUTOFF_S = (0.97, 0.98, 0.99)
FORCE_TOL = 1e-20  # solve_equilibrium's default convergence tolerance


def nproc():
    """Cores this process may run on, as nproc counts them."""
    return len(os.sched_getaffinity(0))


def close(value, reference, rel=REL_TOL):
    return value is not None and math.isclose(value, reference, rel_tol=rel, abs_tol=0.0)


class Outcomes:
    """Counts operations and the ones that failed a check or raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    @contextlib.contextmanager
    def operation(self, name):
        """One checked operation; yields a list to append failed check labels to."""
        self.attempted += 1
        problems = []
        try:
            yield problems
        except Exception as exc:  # a broken operation is a failure to count, not a crash
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: {'; '.join(problems)}")


def attempt(fn, *args, **kwargs):
    """fn's result, or the exception it raised; checking it later counts the failure."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the run goes on; unwrap() re-raises inside the operation
        return exc


def unwrap(result):
    if isinstance(result, Exception):
        raise result
    return result


def _check(problems, ok, label):
    if not ok:
        problems.append(label)


def _spanner(tracer):
    return tracer.span if tracer is not None else (lambda _layer: nullcontext())


class GateDesign:
    """The CLI pipeline crystal -> modes -> optimize -> report -> sweep -> powermap.

    Shape A on the default trap, one optimizer start (the flat pattern),
    --threads set to the number of usable cores. The seed picks the pair from
    `pairs` and the optimizer seed.
    """

    def __init__(self, seed, workdir, n_ions=50, pairs=None, power_range_hz=(70e3, 800e3)):
        rng = np.random.default_rng(seed)
        pairs = pairs or DESIGN_PAIRS
        self.pair = tuple(pairs[int(rng.integers(len(pairs)))])
        self.optimizer_seed = int(rng.integers(1, 2**31))
        self.n_ions = n_ions
        self.threads = nproc()
        self.power_range_hz = power_range_hz
        self.workdir = Path(tempfile.mkdtemp(prefix="gate_design_", dir=workdir))
        self.config_path = self.workdir / "run.ini"
        self.config_path.write_text(
            "[trap]\n"
            f"n_ions = {n_ions}\n"
            "[optimize]\n"
            f"ion_i = {self.pair[0]}\n"
            f"ion_j = {self.pair[1]}\n"
            "n_starts = 1\n"
        )
        self.gate_error = None
        self.facts = {}

    def round(self, outcomes, tracer=None):
        span = _spanner(tracer)
        out = Path(tempfile.mkdtemp(prefix="out_", dir=self.workdir))
        common = ["-c", str(self.config_path), "-o", str(out), "--seed", str(self.optimizer_seed),
                  "--threads", str(self.threads), "--shape", "A"]
        codes, stage_s = {}, {}
        for stage in CLI_STAGES:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                with span(f"cli.{stage}"):
                    codes[stage] = attempt(cli.main, common + [stage])
                stage_s[stage] = time.perf_counter() - t0
        elapsed = sum(stage_s.values())
        self._check(out, codes, outcomes)
        files = [p for p in out.iterdir() if p.is_file()]
        self.facts["bytes_written"] = sum(p.stat().st_size for p in files)
        self.facts["files_written"] = len(files)
        shutil.rmtree(out)
        return elapsed

    def _check(self, out, codes, outcomes):
        n = self.n_ions
        for stage in CLI_STAGES:
            with outcomes.operation(f"gate_design {stage}") as problems:
                _check(problems, unwrap(codes[stage]) == 0, f"exit code {codes[stage]}")
                if codes[stage] != 0:
                    continue
                if stage == "optimize":
                    with open(out / "optimize_trace_A.csv", newline="") as fh:
                        rows = list(csv.reader(fh))[1:]
                    self.facts["trace_costs"] = [float(c) for _, c in rows]
                    _check(problems, len(rows) > 0, "empty optimizer trace")
                elif stage == "report":
                    report = json.loads((out / "report_A.json").read_text())
                    self.gate_error = report["motional_error"]
                    _check(problems, close(abs(report["beta_rad"]), math.pi / 4), "|beta| != pi/4")
                    _check(problems, self.gate_error < 1e-4, f"gate error {self.gate_error:.3e} >= 1e-4")
                elif stage == "sweep":
                    slope = json.loads((out / "sweep_manifest.json").read_text())["parameters"]["fitted_slope"]
                    _check(problems, slope is not None and slope >= 3.5, f"sweep slope {slope} < 3.5")
                elif stage == "powermap":
                    with open(out / "powermap_A.csv", newline="") as fh:
                        values = np.array([float(r[2]) for r in list(csv.reader(fh))[1:]])
                    lo, hi = self.power_range_hz
                    _check(problems, len(values) == n * (n - 1) // 2, f"{len(values)} power map entries")
                    _check(problems, bool(np.all(np.isfinite(values))), "non-finite power map entry")
                    _check(problems, bool(np.all((values >= lo) & (values <= hi))),
                           f"power map outside {lo / 1e3:.0f}-{hi / 1e3:.0f} kHz")

    def final_gate_error(self):
        return self.gate_error

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class GateAnalysis:
    """Characterize the two checked-in schedules through the library, one thread.

    Per schedule and round: build_gate_report with every mode's trajectory
    for seed-drawn pairs, a 48-point offset sweep at the design pair, and the
    all-pairs power map. Outputs are compared with a reference recorded from
    the same schedules (data/reference_gate_analysis.json).
    """

    def __init__(self, seed, workdir=None, sweep_stride=1, report_pairs=2):
        trap = crystal.TrapConfig()
        chain = crystal.solve_equilibrium(trap)
        self.modes = modes.solve_modes(modes.build_transverse_matrix(chain, trap), trap)
        self.schedules = load_schedules()
        self.reference = json.loads((DATA / "reference_gate_analysis.json").read_text())
        self.all_pairs = analysis.all_pairs(self.modes.n_modes)
        self.rng = np.random.default_rng(seed)
        self.offset_index = np.arange(0, SWEEP_POINTS, sweep_stride)
        self.offsets = sweep_offsets()[self.offset_index]
        self.report_pairs = report_pairs
        self.gate_error = None
        self.facts = {}

    def round(self, outcomes, tracer=None):
        results = {}
        draws = {shape: [self.all_pairs[k] for k in self.rng.choice(
            len(self.all_pairs), self.report_pairs, replace=False)] for shape in self.schedules}
        t0 = time.perf_counter()
        for shape, sched in self.schedules.items():
            reports = [attempt(optimizer.build_gate_report, sched, self.modes, i, j) for i, j in draws[shape]]
            sweep = attempt(analysis.offset_sweep, sched, self.modes, DESIGN_PAIR, self.offsets, threads=1)
            pmap = attempt(analysis.power_map, sched, self.modes, threads=1)
            results[shape] = (reports, sweep, pmap)
        elapsed = time.perf_counter() - t0
        errors = []
        for shape, (reports, sweep, pmap) in results.items():
            self._check(shape, zip(draws[shape], reports), sweep, pmap, outcomes)
            if not isinstance(sweep, Exception) and not isinstance(pmap, Exception):
                i, j = DESIGN_PAIR
                scale = pmap.omega_max[i - 1, j - 1] / self.schedules[shape].amp_scale
                errors.append(sweep.baseline * scale**2)  # the error is quadratic in the amplitude
        self.gate_error = max(errors, default=None)
        return elapsed

    def final_gate_error(self):
        return self.gate_error

    def _check(self, shape, reports, sweep, pmap, outcomes):
        ref = self.reference[shape]
        index = {pair: k for k, pair in enumerate(self.all_pairs)}
        for pair, report in reports:
            k = index[pair]
            with outcomes.operation(f"gate_analysis {shape} report {pair}") as problems:
                report = unwrap(report)
                _check(problems, close(abs(report.beta), math.pi / 4), "|beta| != pi/4")
                _check(problems, close(report.motional_error, ref["motional_error"][k]),
                       "motional error differs from the reference")
                _check(problems, close(report.omega_max / (2 * math.pi), ref["omega_max_hz"][k]),
                       "omega_max differs from the reference")
                _check(problems, len(report.trajectories) == self.modes.n_modes, "trajectory count")
                i, j = pair
                _check(problems, close(unwrap(pmap).omega_max[i - 1, j - 1], report.omega_max),
                       "power map differs from calibrate_power")
        with outcomes.operation(f"gate_analysis {shape} sweep") as problems:
            sweep = unwrap(sweep)
            _check(problems, close(sweep.baseline, ref["sweep_baseline"]), "baseline differs from the reference")
            expected = np.array(ref["sweep_errors"])[self.offset_index]
            _check(problems, bool(np.allclose(sweep.errors, expected, rtol=REL_TOL, atol=0.0)),
                   "sweep errors differ from the reference")
            if len(self.offset_index) == SWEEP_POINTS:
                _check(problems, close(sweep.fitted_slope, ref["sweep_slope"]), "slope differs from the reference")
        with outcomes.operation(f"gate_analysis {shape} power map") as problems:
            pmap = unwrap(pmap)
            values = np.array([pmap.omega_max[i - 1, j - 1] for i, j in self.all_pairs]) / (2 * math.pi)
            _check(problems, not pmap.degenerate_pairs, "degenerate pairs")
            _check(problems, bool(np.allclose(values, ref["omega_max_hz"], rtol=REL_TOL, atol=0.0)),
                   "power map differs from the reference")

    def close(self):
        pass


class ChainScan:
    """Trap design: every chain length in `n_range` at every cutoff, scale_r drawn by seed.

    Each configuration runs solve_equilibrium -> solve_modes ->
    most_uniform_mode -> power_map with a flat FM schedule. The grid holds
    chains the trap cannot hold; for those a refusal is the correct outcome.
    The cutoff moves a configuration's cost the most (a refusal is cheap), so
    each round takes every cutoff for every length and the seed draws only
    scale_r. Outcomes are compared with data/reference_chain_scan.json.
    """

    def __init__(self, seed, workdir=None, n_range=None):
        self.rng = np.random.default_rng(seed)
        self.n_range = n_range or CHAIN_N_RANGE
        reference = json.loads((DATA / "reference_chain_scan.json").read_text())
        self.reference = {config_key(*row[:3]): row[3:] for row in reference["configs"]}
        self.gate_error = None  # no gate is designed here: the flat FM gate's error stands in
        self.facts = {}

    def final_gate_error(self):
        return self.gate_error

    def draw(self):
        return [(n, float(self.rng.choice(SCALE_R)), cutoff_s)
                for n in self.n_range for cutoff_s in CUTOFF_S]

    def round(self, outcomes, tracer=None):
        configs = self.draw()
        results = []
        t0 = time.perf_counter()
        for n, scale_r, cutoff_s in configs:
            results.append(attempt(scan_config, n, scale_r, cutoff_s))
        elapsed = time.perf_counter() - t0
        for (n, scale_r, cutoff_s), result in zip(configs, results):
            with outcomes.operation(f"chain_scan {config_key(n, scale_r, cutoff_s)}") as problems:
                self._check(config_key(n, scale_r, cutoff_s), result, problems)
        if self.gate_error is None and tracer is None:
            # once, after the first round's clock, so the traced layers and the peak memory
            # do not depend on how many rounds ran
            self.gate_error = flat_gate_error()
        return elapsed

    def _check(self, key, result, problems):
        trap, chain, mode_data, pmap, refusal = unwrap(result)
        expected = self.reference[key]
        if refusal is not None or expected[0] == "refused":
            _check(problems, refusal is not None and expected[0] == "refused",
                   f"outcome {'refused' if refusal else 'held'}, reference {expected[0]}")
            return
        z = chain.positions
        dz = trap.delta_z
        _check(problems, bool(np.all(np.diff(z) > 0)), "positions not sorted")
        _check(problems, float(np.abs(z + z[::-1]).max()) < 1e-3 * dz, "chain not mirror symmetric")
        _check(problems, float(np.abs(z).max()) < trap.cutoff_s * trap.half_length, "ion beyond the cutoff")
        _check(problems, chain.residual_force < FORCE_TOL, f"residual force {chain.residual_force:.2e}")
        v = mode_data.vectors
        _check(problems, float(np.abs(v @ v.T - np.eye(len(v))).max()) < 1e-10, "modes not orthonormal")
        _check(problems, close(mode_data.frequencies[-1], trap.omega_x, 1e-9), "top mode not at omega_x")
        values = np.array([value for _, _, value in pmap.computed_pairs()]) / (2 * math.pi)
        _, n_degenerate, lo_hz, hi_hz = expected
        _check(problems, len(pmap.degenerate_pairs) == n_degenerate, "degenerate pair count")
        if len(values):
            _check(problems, close(values.min(), lo_hz) and close(values.max(), hi_hz),
                   "power map range differs from the reference")

    def close(self):
        pass


WORKLOADS = {"gate_design": GateDesign, "gate_analysis": GateAnalysis, "chain_scan": ChainScan}

def sweep_offsets():
    return analysis.default_offsets(SWEEP_POINTS, 2 * math.pi * 10.0, 2 * math.pi * 2000.0)


def load_schedules():
    """The checked-in schedules, refused when their sha256 does not match."""
    provenance = json.loads((DATA / "schedules.json").read_text())
    out = {}
    for shape in SCHEDULE_SHAPES:
        path = DATA / f"schedule_{shape}.json"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest != provenance["sha256"][path.name]:
            raise ValueError(f"{path.name} does not match its recorded sha256")
        out[shape] = pulse.load_schedule(str(path))
    return out


def config_key(n, scale_r, cutoff_s):
    return f"n{n}_r{scale_r:.2f}_s{cutoff_s:.2f}"


def is_refusal(exc):
    """A trap refusal is an exception type the package defines, such as IonEscape."""
    return type(exc).__module__.startswith("ionpulse")


def scan_config(n, scale_r, cutoff_s):
    """(trap, chain, modes, power map, refusal) for one configuration."""
    trap = crystal.TrapConfig(n_ions=n, scale_r=scale_r, cutoff_s=cutoff_s)
    try:
        chain = crystal.solve_equilibrium(trap)
    except Exception as exc:
        if not is_refusal(exc):
            raise
        return trap, None, None, None, exc
    mode_data = modes.solve_modes(modes.build_transverse_matrix(chain, trap), trap)
    sched = flat_schedule(mode_data)
    pmap = analysis.power_map(sched, mode_data, threads=1)
    return trap, chain, mode_data, pmap, None


def flat_schedule(mode_data):
    """Shape A with a flat FM pattern, driven next to the most uniform mode."""
    mu_ref = float(mode_data.frequencies[modes.most_uniform_mode(mode_data) - 1] - 2 * math.pi * 3.7e3)
    return pulse.PulseSchedule(
        gate_time=500e-6, amp_shape=pulse.ShapeA(), amp_scale=2 * math.pi * 100e3,
        mu_ref=mu_ref, fm_points=np.zeros(8), n_oscillations=8,
    )


def flat_gate_error():
    """Calibrated motional error of the flat FM gate on the default chain at the design pair."""
    trap = crystal.TrapConfig()
    chain = crystal.solve_equilibrium(trap)
    mode_data = modes.solve_modes(modes.build_transverse_matrix(chain, trap), trap)
    sched = flat_schedule(mode_data)
    omega_max = optimizer.calibrate_power(sched, mode_data, *DESIGN_PAIR)
    return optimizer.motional_error(pulse.with_amplitude(sched, omega_max), mode_data, *DESIGN_PAIR)
