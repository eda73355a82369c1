"""Phase-space trajectories of the driven motional modes.

While the two addressed ions are driven at mu(t), every mode k accumulates a
coherent displacement alpha_k(t) = eta_ik * int_0^t Omega(t') e^{i theta_k(t')} dt'
with theta_k the integrated detuning mu - omega_k. The geometric (entangling)
phase between the two qubits is twice the eta-weighted sum over modes of the
ordered double integral of Omega(t2) Omega(t1) sin(theta_k(t2) - theta_k(t1)).

All integrals run on fixed uniform grids: 20,000 Simpson intervals for
displacements and a downsampled 2,000-interval grid for the double integral
(quadratic in grid size when evaluated naively; here the inner integral is
accumulated once so the cost stays linear without changing the quadrature).

One kernel, mode_displacement_integrals, gives every mode's gate-end
displacement: e^{i theta_k} = e^{i Theta_mu} e^{-i omega_k t}, and a constant
drive offset only changes Theta_mu, so the ramps e^{-i omega_k t} are built
once and each offset costs one matrix-vector product.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .pulse import amplitude, drive_frequency, with_frequency_offset
from .quadrature import cumulative_simpson, simpson, simpson_weights

DEFAULT_ALPHA_INTERVALS = 20_000
DEFAULT_BETA_INTERVALS = 2_000


@dataclass(frozen=True)
class Trajectory:
    """Sampled phase-space path of one mode: times, alpha(t) and theta(t)."""

    mode: object  # 1-based mode index, or None when unspecified
    times: np.ndarray
    alpha: np.ndarray  # complex displacement samples
    phase: np.ndarray  # accumulated detuning phase theta(t), rad

    def __post_init__(self):
        for name in ("times", "alpha", "phase"):
            arr = np.array(getattr(self, name))  # copy: freezing must not leak
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def endpoint(self):
        """Final displacement alpha(tau)."""
        return complex(self.alpha[-1])


@dataclass(frozen=True)
class GateReport:
    """Calibrated gate summary for one addressed ion pair.

    beta is the signed entangling angle at the calibrated amplitude
    (|beta| = pi/4); motional_error sums |alpha_k(tau)|^2 over every mode for
    both addressed ions' couplings, also at the calibrated amplitude.
    trajectories holds one record per mode, weighted with the first ion's
    Lamb-Dicke factor.
    """

    pair: tuple
    beta: float
    motional_error: float
    omega_max: float  # rad/s
    trajectories: tuple


def _uniform_grid(tau, n_intervals):
    t = np.linspace(0.0, tau, n_intervals + 1)
    return t, t[1] - t[0]


def accumulate_phase(sched, omega_k, t, n_intervals=DEFAULT_ALPHA_INTERVALS):
    """Accumulated detuning phase theta_k(t) in rad, by cumulative Simpson.

    The detuning mu(t') - omega_k is integrated on the fixed uniform grid
    over [0, tau]; query times that fall between grid nodes get a local
    two-panel Simpson correction from the nearest node below.
    """
    tau = sched.gate_time
    grid, dx = _uniform_grid(tau, n_intervals)
    delta = drive_frequency(grid, sched) - omega_k
    theta = cumulative_simpson(delta, dx)

    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr < 0.0) or np.any(t_arr > tau):
        raise ValueError(f"time outside [0, {tau}]")
    idx = np.minimum((t_arr / dx).astype(int), n_intervals)
    out = theta[idx]
    half = (t_arr - grid[idx]) / 2.0
    off = half > 0.0
    # one drive_frequency call on the (node, midpoint, query) triples of all off-grid queries
    node = grid[idx[off]]
    sub = np.stack([node, node + half[off], t_arr[off]], axis=-1)
    d_sub = drive_frequency(sub.ravel(), sched).reshape(sub.shape) - omega_k
    out[off] += simpson(d_sub, half[off])
    return out if np.ndim(t) else float(out[0])


def integrate_sampled(omega_samples, delta_samples, dx, eta_ik=1.0, times=None, mode=None):
    """Trajectory from sampled Rabi frequency and detuning on a uniform grid.

    This is the quadrature engine behind integrate_alpha; it also accepts
    arbitrary profiles (for instance constant ones) that no schedule
    produces.
    """
    omega_samples = np.asarray(omega_samples, dtype=float)
    theta = cumulative_simpson(delta_samples, dx)
    alpha = eta_ik * cumulative_simpson(omega_samples * np.exp(1j * theta), dx)
    if times is None:
        times = dx * np.arange(len(omega_samples))
    return Trajectory(mode=mode, times=times, alpha=alpha, phase=theta)


def integrate_alpha(sched, eta_ik, omega_k, n_intervals=DEFAULT_ALPHA_INTERVALS, mode=None):
    """Phase-space trajectory of the mode at omega_k driven by the schedule."""
    t, dx = _uniform_grid(sched.gate_time, n_intervals)
    omega = amplitude(t, sched)
    delta = drive_frequency(t, sched) - omega_k
    return integrate_sampled(omega, delta, dx, eta_ik=eta_ik, times=t, mode=mode)


def time_averaged_displacement(traj):
    """Mean displacement (1/tau) int alpha(t) dt over the stored samples."""
    dx = traj.times[1] - traj.times[0]
    tau = traj.times[-1]
    return complex(simpson(traj.alpha, dx) / tau)


def mode_displacement_integrals(sched, omega_ks, n_intervals=DEFAULT_ALPHA_INTERVALS, offsets=(0.0,)):
    """Gate-end displacements I_k(tau) = int_0^tau Omega e^{i theta_k} of many modes.

    Returns a complex array (len(omega_ks) x len(offsets)): column c drives
    with mu(t) shifted by the constant offsets[c] (rad/s). eta factors are
    NOT included; multiply per ion as needed. A column does not depend on the
    other offsets, so it is bitwise what a single-offset call returns.
    """
    t, dx = _uniform_grid(sched.gate_time, n_intervals)
    weighted_amplitude = simpson_weights(len(t), dx) * amplitude(t, sched)
    ramps = -1j * np.outer(np.asarray(omega_ks, dtype=float), t)
    np.exp(ramps, out=ramps)
    endpoints = np.empty((len(ramps), len(offsets)), dtype=complex)
    for col, offset in enumerate(offsets):
        mu = drive_frequency(t, with_frequency_offset(sched, offset))
        mu_phase = cumulative_simpson(mu, dx)
        endpoints[:, col] = ramps @ (weighted_amplitude * np.exp(1j * mu_phase))
    return endpoints


def endpoint_errors(endpoints, modes, ion_i, ion_j, both_ions=True):
    """Motional error sum_k eta_k^2 |I_k|^2 of each column of mode_displacement_integrals."""
    weights = modes.eta[ion_i - 1] ** 2
    if both_ions:
        weights = weights + modes.eta[ion_j - 1] ** 2
    return np.array([np.sum(weights * np.abs(col) ** 2) for col in endpoints.T])


def motional_error(sched, modes, ion_i, ion_j, *, both_ions=True,
                   n_intervals=DEFAULT_ALPHA_INTERVALS, frequency_offset=0.0):
    """Residual motional gate error: sum over modes of |alpha_k(tau)|^2.

    Both addressed ions drive every mode with their own Lamb-Dicke factor, so
    by default the sum runs over both (the conservative convention); pass
    both_ions=False for the single-ion variant. frequency_offset shifts the
    whole drive pattern mu(t) by a constant (rad/s).
    """
    endpoints = mode_displacement_integrals(sched, modes.frequencies, n_intervals, (frequency_offset,))
    return float(endpoint_errors(endpoints, modes, ion_i, ion_j, both_ions)[0])


def mode_angle_integrals(sched, omega_ks, n_intervals=DEFAULT_BETA_INTERVALS):
    """Ordered double integral of Omega(t2) Omega(t1) sin(theta_k(t2) - theta_k(t1)) per mode.

    The inner integral over t1 is the running conjugate displacement, so each
    mode costs one cumulative plus one weighted sum on the downsampled grid.
    """
    t, dx = _uniform_grid(sched.gate_time, n_intervals)
    w_end = simpson_weights(len(t), dx)
    omega = amplitude(t, sched)
    mu = drive_frequency(t, sched)
    out = np.empty(len(omega_ks))
    for pos, omega_k in enumerate(np.asarray(omega_ks, dtype=float)):
        theta = cumulative_simpson(mu - omega_k, dx)
        g = omega * np.exp(1j * theta)
        running = cumulative_simpson(g, dx)
        out[pos] = float(np.imag((g * np.conj(running)) @ w_end))
    return out


def entangling_angle_sampled(omega_samples, delta_samples, dx, eta_i, eta_j):
    """Entangling angle for one mode from sampled profiles (test/oracle entry)."""
    theta = cumulative_simpson(delta_samples, dx)
    g = np.asarray(omega_samples, dtype=float) * np.exp(1j * theta)
    running = cumulative_simpson(g, dx)
    w = simpson_weights(len(g), dx)
    return 2.0 * eta_i * eta_j * float(np.imag((g * np.conj(running)) @ w))


def entangling_angle(sched, modes, ion_i, ion_j, n_intervals=DEFAULT_BETA_INTERVALS):
    """Signed geometric phase beta_ij in rad accumulated between two ions (1-based)."""
    if ion_i == ion_j:
        raise ValueError("the two addressed ions must differ")
    d = mode_angle_integrals(sched, modes.frequencies, n_intervals)
    coupling = modes.eta[ion_i - 1] * modes.eta[ion_j - 1]
    return 2.0 * float(np.sum(coupling * d))


def save_trajectory_csv(traj, csv_path, samples=2001):
    """Downsampled trajectory CSV (t_s, alpha_re, alpha_im)."""
    stride = max(1, (len(traj.times) - 1) // max(1, samples - 1))
    sel = slice(None, None, stride)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "alpha_re", "alpha_im"])
        for t, a in zip(traj.times[sel], traj.alpha[sel]):
            writer.writerow([repr(float(t)), repr(float(a.real)), repr(float(a.imag))])
