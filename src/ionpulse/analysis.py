"""Robustness sweeps, log-log slope fits and the all-pairs power map.

A constant offset added to the drive frequency models a slow trap drift. For
an optimized schedule the extra gate error grows as a high power of the
offset (quartic or steeper), which the sweep quantifies through a log-log
linear fit. The power map calibrates the peak Rabi frequency needed to
entangle every ion pair; the per-mode double integrals are shared across
pairs and all pair angles come from one matrix product, so the full
1225-pair map costs little more than a single pair.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from .optimizer import DEGENERATE_BETA
from .trajectory import (
    DEFAULT_ALPHA_INTERVALS,
    DEFAULT_BETA_INTERVALS,
    mode_angle_integrals,
    mode_errors,
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
        rows, cols = np.triu_indices(self.n_ions, k=1)
        values = self.omega_max[rows, cols]
        held = np.isfinite(values)
        return list(zip((rows[held] + 1).tolist(), (cols[held] + 1).tolist(), values[held].tolist()))


def default_offsets(count=20, low=2 * np.pi * 10.0, high=2 * np.pi * 2000.0):
    """Log-spaced offset grid in rad/s."""
    return np.geomspace(low, high, count)


def offset_sweep(sched, modes, pair, offsets=None, *, both_ions=True,
                 n_intervals=DEFAULT_ALPHA_INTERVALS, threads=1):
    """Evaluate the gate error across constant drive-frequency offsets.

    The baseline error is taken at zero offset; each sweep point shifts the
    whole pattern mu(t) by the offset. All points and the baseline are
    column sums of one mode_errors call, so each equals motional_error with
    that frequency_offset exactly. threads is accepted for interface
    compatibility and does not affect the sweep.
    """
    ion_i, ion_j = pair
    if offsets is None:
        offsets = default_offsets()
    offsets = np.asarray(offsets, dtype=float)
    terms = mode_errors(
        sched, modes, ion_i, ion_j, both_ions=both_ions,
        n_intervals=n_intervals, offsets=[0.0, *offsets],
    )
    errors = np.array([col.sum() for col in terms.T])
    baseline, errors = float(errors[0]), errors[1:]

    sweep = RobustnessSweep(offsets=offsets, errors=errors, baseline=baseline)
    try:
        slope, stderr = fit_slope(sweep)
    except InsufficientPoints:
        return sweep
    return replace(sweep, fitted_slope=slope, slope_stderr=stderr)


def fit_slope(sweep):
    """Least-squares slope of log(extra error) vs log(offset) over the valid window.

    Returns (slope, stderr). Raises InsufficientPoints when fewer than 5
    sweep points sit inside the window.
    """
    extra = sweep.errors - sweep.baseline
    valid = (extra > 10.0 * sweep.baseline) & (extra > ERROR_FLOOR)
    valid &= (extra + sweep.baseline) <= ERROR_CEILING
    dof = int(np.count_nonzero(valid)) - 2
    if dof < 3:
        raise InsufficientPoints(f"only {dof + 2} sweep points inside the fit window")
    lx, ly = np.log(sweep.offsets[valid]), np.log(extra[valid])
    dx = lx - lx.mean()
    slope = float(np.sum(dx * (ly - ly.mean())) / np.sum(dx * dx))
    residuals = ly - (ly.mean() - slope * lx.mean() + slope * lx)
    return slope, float(np.sqrt(np.sum(residuals**2) / dof / np.sum(dx * dx)))


def all_pairs(n):
    """Every unordered 1-based pair of an n-ion chain."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def power_map(sched, modes, pairs=None, n_intervals=DEFAULT_BETA_INTERVALS, threads=1):
    """Calibrated peak Rabi frequency for every requested pair.

    The per-mode angle integrals d depend only on the schedule, so they are
    computed once and every pair's beta is an entry of the one product
    2 (eta d) eta^T; results equal calling calibrate_power per pair up to
    rounding. Degenerate pairs are flagged rather than aborting the map.
    threads is accepted for interface compatibility and ignored.
    """
    n = modes.n_modes
    if pairs is None:
        pairs = all_pairs(n)
    d = mode_angle_integrals(sched, modes.frequencies, n_intervals)
    beta = 2.0 * (modes.eta * d) @ modes.eta.T
    requested = np.array(pairs, dtype=int).reshape(-1, 2) - 1
    lo, hi = np.sort(requested, axis=1).T  # one orientation, so the map stays symmetric
    abs_beta = np.abs(beta[lo, hi])
    degenerate = abs_beta < DEGENERATE_BETA
    held = ~degenerate
    matrix = np.full((n, n), np.nan)
    matrix[lo[held], hi[held]] = matrix[hi[held], lo[held]] = (
        sched.amp_scale * np.sqrt((np.pi / 4.0) / abs_beta[held])
    )
    degenerate_pairs = tuple((int(a) + 1, int(b) + 1) for a, b in requested[degenerate])
    return PowerMap(omega_max=matrix, degenerate_pairs=degenerate_pairs)


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


def save_power_map_csv(pmap, csv_path):
    """Power map CSV (ion_i, ion_j, omega_max_hz), upper triangle, finite entries."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ion_i", "ion_j", "omega_max_hz"])
        for i, j, value in pmap.computed_pairs():
            writer.writerow([i, j, repr(float(value / (2 * np.pi)))])
