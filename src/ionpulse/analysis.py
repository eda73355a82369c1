"""Robustness sweeps, log-log slope fits and the all-pairs power map.

A constant offset added to the drive frequency models a slow trap drift. For
an optimized schedule the extra gate error grows as a high power of the
offset (quartic or steeper), which the sweep quantifies through a log-log
linear fit. The power map calibrates the peak Rabi frequency needed to
entangle every ion pair; the per-mode double integrals are shared across
pairs, so the full 1225-pair map costs little more than a single pair.
"""

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .optimizer import DEGENERATE_BETA
from .trajectory import (
    DEFAULT_ALPHA_INTERVALS,
    DEFAULT_BETA_INTERVALS,
    endpoint_errors,
    mode_angle_integrals,
    mode_displacement_integrals,
)

ERROR_FLOOR = 1e-12  # extra error below this is quadrature noise
ERROR_CEILING = 1e-2  # above this the small-displacement error formula is invalid


class InsufficientPoints(Exception):
    """Fewer than 5 sweep points survive the fit-window selection."""


@dataclass(frozen=True)
class RobustnessSweep:
    """Gate error versus constant drive-frequency offset.

    offsets are positive ascending (rad/s); baseline is the error at zero
    offset. fitted_slope/slope_stderr hold the log-log fit over the valid
    window, or None when too few points qualify.
    """

    offsets: np.ndarray
    errors: np.ndarray
    baseline: float
    fitted_slope: object = None
    slope_stderr: object = None

    def __post_init__(self):
        offsets = np.array(self.offsets, dtype=float)  # copy: freezing must not leak
        errors = np.array(self.errors, dtype=float)
        if np.any(offsets <= 0) or np.any(np.diff(offsets) <= 0):
            raise ValueError("offsets must be positive and ascending")
        if np.any(errors < 0) or self.baseline < 0:
            raise ValueError("errors must be non-negative")
        offsets.setflags(write=False)
        errors.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "errors", errors)


@dataclass(frozen=True)
class PowerMap:
    """Symmetric matrix of calibrated peak Rabi frequencies in rad/s.

    Entries are NaN on the diagonal, for uncomputed pairs, and for pairs
    flagged degenerate (listed 1-based in degenerate_pairs).
    """

    omega_max: np.ndarray
    degenerate_pairs: tuple = ()

    def __post_init__(self):
        m = np.array(self.omega_max, dtype=float)  # copy: freezing must not leak
        m.setflags(write=False)
        object.__setattr__(self, "omega_max", m)

    @property
    def n_ions(self):
        return self.omega_max.shape[0]

    def computed_pairs(self):
        """(i, j, omega_max) for every finite upper-triangle entry, 1-based."""
        n = self.n_ions
        out = []
        for i in range(n):
            for j in range(i + 1, n):
                if np.isfinite(self.omega_max[i, j]):
                    out.append((i + 1, j + 1, float(self.omega_max[i, j])))
        return out


def default_offsets(count=20, low=2 * np.pi * 10.0, high=2 * np.pi * 2000.0):
    """Log-spaced offset grid in rad/s."""
    return np.geomspace(low, high, count)


def _fit_window(offsets, extra, baseline):
    valid = (extra > 10.0 * baseline) & (extra > ERROR_FLOOR)
    valid &= (extra + baseline) <= ERROR_CEILING
    return valid


def _loglog_fit(x, y):
    lx, ly = np.log(x), np.log(y)
    dx = lx - lx.mean()
    slope = float(np.sum(dx * (ly - ly.mean())) / np.sum(dx * dx))
    intercept = ly.mean() - slope * lx.mean()
    residuals = ly - (intercept + slope * lx)
    dof = len(x) - 2
    stderr = float(np.sqrt(np.sum(residuals**2) / dof / np.sum(dx * dx))) if dof > 0 else 0.0
    return slope, stderr


def offset_sweep(sched, modes, pair, offsets=None, *, both_ions=True,
                 n_intervals=DEFAULT_ALPHA_INTERVALS, threads=1):
    """Evaluate the gate error across constant drive-frequency offsets.

    The baseline error is taken at zero offset; each sweep point shifts the
    whole pattern mu(t) by the offset. All points and the baseline come from
    one mode_displacement_integrals call, so each equals motional_error with
    that frequency_offset exactly. threads is accepted for interface
    compatibility and does not affect the sweep.
    """
    ion_i, ion_j = pair
    if offsets is None:
        offsets = default_offsets()
    offsets = np.asarray(offsets, dtype=float)
    endpoints = mode_displacement_integrals(sched, modes.frequencies, n_intervals, [0.0, *offsets])
    errors = endpoint_errors(endpoints, modes, ion_i, ion_j, both_ions)
    baseline, errors = float(errors[0]), errors[1:]

    sweep = RobustnessSweep(offsets=offsets, errors=errors, baseline=baseline)
    extra = errors - baseline
    valid = _fit_window(offsets, extra, baseline)
    if np.count_nonzero(valid) >= 5:
        slope, stderr = _loglog_fit(offsets[valid], extra[valid])
        sweep = RobustnessSweep(
            offsets=offsets, errors=errors, baseline=baseline,
            fitted_slope=slope, slope_stderr=stderr,
        )
    return sweep


def fit_slope(sweep):
    """Least-squares slope of log(extra error) vs log(offset) over the valid window.

    Returns (slope, stderr). Raises InsufficientPoints when fewer than 5
    sweep points sit inside the window.
    """
    extra = sweep.errors - sweep.baseline
    valid = _fit_window(sweep.offsets, extra, sweep.baseline)
    if np.count_nonzero(valid) < 5:
        raise InsufficientPoints(
            f"only {int(np.count_nonzero(valid))} sweep points inside the fit window"
        )
    return _loglog_fit(sweep.offsets[valid], extra[valid])


def all_pairs(n):
    """Every unordered 1-based pair of an n-ion chain."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def power_map(sched, modes, pairs=None, n_intervals=DEFAULT_BETA_INTERVALS, threads=1):
    """Calibrated peak Rabi frequency for every requested pair.

    The per-mode angle integrals depend only on the schedule, so they are
    computed once and every pair reduces to an eta-weighted sum; results are
    identical to calling calibrate_power per pair. Degenerate pairs are
    flagged rather than aborting the map.
    """
    n = modes.n_modes
    if pairs is None:
        pairs = all_pairs(n)

    if threads > 1:
        freq_chunks = np.array_split(np.arange(n), threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(
                lambda idx: mode_angle_integrals(sched, modes.frequencies[idx], n_intervals),
                [c for c in freq_chunks if len(c)],
            ))
        d = np.concatenate(parts)
    else:
        d = mode_angle_integrals(sched, modes.frequencies, n_intervals)

    matrix = np.full((n, n), np.nan)
    degenerate = []
    for i, j in pairs:
        beta = 2.0 * float(np.sum(modes.eta[i - 1] * modes.eta[j - 1] * d))
        if abs(beta) < DEGENERATE_BETA:
            degenerate.append((i, j))
            continue
        value = sched.amp_scale * np.sqrt((np.pi / 4.0) / abs(beta))
        matrix[i - 1, j - 1] = matrix[j - 1, i - 1] = value
    return PowerMap(omega_max=matrix, degenerate_pairs=tuple(degenerate))


def save_sweep_csv(sweep, csv_path):
    """Sweep CSV (offset_hz, error, extra_error)."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["offset_hz", "error", "extra_error"])
        for offset, err in zip(sweep.offsets, sweep.errors):
            writer.writerow([
                repr(float(offset / (2 * np.pi))),
                repr(float(err)),
                repr(float(err - sweep.baseline)),
            ])


def load_sweep_csv(csv_path, baseline):
    """Rebuild a RobustnessSweep from save_sweep_csv output plus the baseline."""
    offsets, errors = [], []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["offset_hz", "error"]:
            raise ValueError(f"unexpected sweep CSV header: {header}")
        for row in reader:
            offsets.append(2 * np.pi * float(row[0]))
            errors.append(float(row[1]))
    return RobustnessSweep(
        offsets=np.array(offsets), errors=np.array(errors), baseline=float(baseline)
    )


def save_power_map_csv(pmap, csv_path):
    """Power map CSV (ion_i, ion_j, omega_max_hz), upper triangle, finite entries."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ion_i", "ion_j", "omega_max_hz"])
        for i, j, value in pmap.computed_pairs():
            writer.writerow([i, j, repr(float(value / (2 * np.pi)))])


def load_power_map_csv(csv_path, n_ions):
    """Rebuild a PowerMap matrix from save_power_map_csv output."""
    matrix = np.full((n_ions, n_ions), np.nan)
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["ion_i", "ion_j", "omega_max_hz"]:
            raise ValueError(f"unexpected power map CSV header: {header}")
        for row in reader:
            i, j = int(row[0]), int(row[1])
            value = 2 * np.pi * float(row[2])
            matrix[i - 1, j - 1] = matrix[j - 1, i - 1] = value
    return PowerMap(omega_max=matrix)
