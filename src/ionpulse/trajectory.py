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

Every integral takes theta_k = (mu_ref + offset - omega_k) t + fm_phase from
one FM phase, fm_phase = int (mu - mu_ref) dt. fm_phase is linear in the
turning points, fm_points @ B; only the optimizer's Jacobian needs the phase
basis B.

The linear phases f t reach about 8.5e3 rad on the default chain, where a
float64 argument to exp carries ~1e-12 rad of rounding. _phasor_tables
writes e^{i f t_n} as C[q] F[r], n = q m + r, from a coarse and a fine table
of about sqrt(N) entries each, evaluated in long double and rounded once.
That accuracy needs the x86-64 extended long double
(test_motional_error_matches_long_double_quadrature guards it): with float64
tables each coarse rounding repeats over a whole block, and the error grows.
The per-mode trajectories and the angle kernel share one integrand
Omega e^{i theta_k} (_mode_integrands): a mode's tables multiplied out
(_expand_phasors) times the drive Omega e^{i fm_phase}, in one reused buffer.

The displacement kernel (DisplacementKernel) keeps the factorization
instead. A weighted drive h_n = w Omega e^{i fm_phase}, padded with zeros to
Q m samples, is a (Q, m) block matrix H, so G = H F^T (Q x modes) is one
matrix product for every mode and I_k = sum_q C_k[q] G[q, k]. The mode
tables e^{-i omega_k t} are built once and shifted to each drive frequency
mu_ref + offset by that frequency's own tables; several drives (the
optimizer's residual and Jacobian) stack into one product. Gate-end or
time-average weights w select the integral, and no modes x samples array is
formed.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .pulse import amplitude, fm_offset
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
            arr = getattr(self, name)
            # an array that is read-only and owns its data is already frozen, so
            # trajectories can share one time grid; anything else is copied
            if not (isinstance(arr, np.ndarray) and arr.flags.owndata and not arr.flags.writeable):
                arr = np.array(arr)
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
    both addressed ions' couplings, also at the calibrated amplitude, and
    mode_errors holds its per-mode terms (they sum to it). trajectories holds
    one record per traced mode, weighted with the first ion's Lamb-Dicke factor.
    """

    pair: tuple
    beta: float
    motional_error: float
    omega_max: float  # rad/s
    trajectories: tuple
    mode_errors: tuple


def _uniform_grid(tau, n_intervals):
    # read-only and owning its data, so the Trajectory records of one call share it uncopied
    t = np.linspace(0.0, tau, n_intervals + 1).copy()
    t.setflags(write=False)
    return t, t[1] - t[0]


def _phasor_tables(freqs, tau, n_intervals):
    """Coarse and fine tables of e^{i f t_n} on the grid t_n = n tau / N.

    Sample n = q m + r is coarse[:, q] * fine[:, r], with m = isqrt(N + 1)
    fine entries and ceil((N + 1) / m) coarse ones, so the last block may run
    past sample N. Both are evaluated in long double from exact multiples of
    tau / N and rounded once.
    """
    freqs = np.asarray(freqs, dtype=np.longdouble)
    n_samples = n_intervals + 1
    m = math.isqrt(n_samples)
    step = np.longdouble(tau) / n_intervals

    def table(times):
        angle = np.multiply.outer(freqs, times)
        out = np.empty(angle.shape, dtype=complex)
        out.real = np.cos(angle)
        out.imag = np.sin(angle)
        return out

    return table((m * step) * np.arange(-(-n_samples // m))), table(step * np.arange(m))


def _expand_phasors(coarse, fine, out):
    """Write the samples coarse[:, q] * fine[:, r] (n = q m + r) into out (rows x samples).

    A table row does not depend on the other frequencies, so the row of one
    mode among many expands bitwise as that mode's table alone does.
    """
    m = fine.shape[1]
    blocks, rest = divmod(out.shape[1], m)
    body = out[:, : blocks * m].reshape(len(out), blocks, m)  # a view: no padded buffer
    np.multiply(coarse[:, :blocks, None], fine[:, None, :], out=body)
    if rest:
        np.multiply(coarse[:, blocks, None], fine[:, :rest], out=out[:, blocks * m:])
    return out


def integrate_sampled(omega_samples, delta_samples, dx, eta_ik=1.0, times=None, mode=None):
    """Trajectory from sampled Rabi frequency and detuning on a uniform grid.

    The sampled-profile oracle for the schedule paths: it integrates the detuning
    itself, so it also accepts profiles (for instance constant ones) that no
    schedule produces.
    """
    omega_samples = np.asarray(omega_samples, dtype=float)
    theta = cumulative_simpson(delta_samples, dx)
    alpha = eta_ik * cumulative_simpson(omega_samples * np.exp(1j * theta), dx)
    if times is None:
        times = dx * np.arange(len(omega_samples))
    return Trajectory(mode=mode, times=times, alpha=alpha, phase=theta)


def fm_phase(sched, t):
    """Running FM phase int_0^t (mu - mu_ref) dt' (cumulative Simpson) on the uniform grid t."""
    return cumulative_simpson(fm_offset(t, sched), t[1] - t[0])


def _mode_integrands(sched, detunings, drive):
    """Yield drive * e^{i d_k t} for each detuning d_k, every one into the same buffer."""
    coarse, fine = _phasor_tables(detunings, sched.gate_time, len(drive) - 1)
    g = np.empty((1, len(drive)), dtype=complex)
    for k in range(len(detunings)):
        _expand_phasors(coarse[k:k + 1], fine[k:k + 1], g)
        g *= drive
        yield g[0]


def mode_trajectories(sched, omega_ks, etas, labels, n_intervals=DEFAULT_ALPHA_INTERVALS):
    """Trajectories of the modes at omega_ks, with couplings etas and mode labels."""
    t, dx = _uniform_grid(sched.gate_time, n_intervals)
    detunings = sched.mu_ref - np.asarray(omega_ks, dtype=float)
    phi = fm_phase(sched, t)
    drive = np.exp(1j * phi)
    drive *= amplitude(t, sched)
    thetas = []
    for detuning in detunings:
        theta = np.multiply(t, detuning)
        theta += phi
        theta.flags.writeable = False  # frozen, so the record does not copy it
        thetas.append(theta)
    del phi  # the phases are all built, so only what the records store grows from here
    trajectories = []
    integrands = _mode_integrands(sched, detunings, drive)
    for g, theta, eta_ik, label in zip(integrands, thetas, etas, labels):
        alpha = cumulative_simpson(g, dx, overwrite_y=True)
        alpha *= eta_ik
        alpha.flags.writeable = False
        trajectories.append(Trajectory(mode=label, times=t, alpha=alpha, phase=theta))
    return tuple(trajectories)


def integrate_alpha(sched, eta_ik, omega_k, n_intervals=DEFAULT_ALPHA_INTERVALS, mode=None):
    """Phase-space trajectory of the mode at omega_k driven by the schedule."""
    return mode_trajectories(sched, [omega_k], [eta_ik], [mode], n_intervals)[0]


def time_averaged_displacement(traj):
    """Mean displacement (1/tau) int alpha(t) dt over the stored samples."""
    dx = traj.times[1] - traj.times[0]
    tau = traj.times[-1]
    return complex(simpson(traj.alpha, dx) / tau)


def phase_basis(sched, t):
    """Linear FM phase basis B (n_oscillations x samples) on the uniform grid t.

    Each raised-cosine arc blends two turning points linearly, so fm_offset is
    linear in fm_points and fm_phase(sched, t) = fm_points @ B. Row m is the
    fm_phase of the pattern whose m-th free turning point is 1 rad/s and the
    rest 0. Only the optimizer's Jacobian needs it.
    """
    return np.stack([
        fm_phase(replace(sched, fm_points=unit), t) for unit in np.eye(sched.n_oscillations)
    ])


class DisplacementKernel:
    """The displacement kernel: S_jk = sum_n h_jn e^{i (f - omega_k) t_n} for drives h_j.

    The sums run over the uniform grid of n_intervals, with drive frequency f
    and mode frequencies omega_k. weighted holds w Omega, the Simpson weights
    w (scaled by 1 - t/tau with time_average) times the Rabi frequency, so
    the drive h = weighted * e^{i fm_phase} at f = mu_ref + offset gives each
    mode's gate-end displacement int_0^tau Omega e^{i theta_k}, or with
    time_average its mean (1/tau) int_0^tau alpha_k dt.

    The mode phasors stay in coarse x fine tables C_k[q] F_k[r]
    (n = q m + r, see _phasor_tables), which take modes x (Q + m) entries.
    A drive buffer is zero past sample N, so each drive reshapes to (Q, m)
    blocks; one product G = H F^T then serves every drive and mode, and
    S_jk = sum_q C_k[q] G_j[q, k]. No modes x samples array is formed.
    """

    def __init__(self, sched, omega_ks, n_intervals=DEFAULT_ALPHA_INTERVALS, *, time_average=False):
        self.times, dx = _uniform_grid(sched.gate_time, n_intervals)
        self.weighted = simpson_weights(len(self.times), dx)
        if time_average:
            self.weighted *= 1.0 - self.times / sched.gate_time
        self.weighted *= amplitude(self.times, sched)
        self._grid = (sched.gate_time, n_intervals)
        self._coarse, self._fine = _phasor_tables(-np.asarray(omega_ks, dtype=float), *self._grid)

    def drives(self, count):
        """Zeroed buffer for count drives; write each into its first N + 1 entries."""
        return np.zeros((count, self._coarse.shape[1] * self._fine.shape[1]), dtype=complex)

    def tables(self, drive_freq):
        """The mode tables shifted to the drive frequency f: e^{i (f - omega_k) t}."""
        coarse, fine = _phasor_tables([drive_freq], *self._grid)
        return self._coarse * coarse, self._fine * fine

    def __call__(self, drives, tables):
        """S (drives x modes) for a drives() buffer and the tables of one drive frequency."""
        coarse, fine = tables
        partial = drives.reshape(-1, fine.shape[1]) @ fine.T
        return np.einsum("jqk,kq->jk", partial.reshape(len(drives), coarse.shape[1], -1), coarse)


def mode_displacement_integrals(sched, omega_ks, n_intervals=DEFAULT_ALPHA_INTERVALS, offsets=(0.0,)):
    """Gate-end displacements I_k(tau) = int_0^tau Omega e^{i theta_k} of many modes.

    Returns a complex array (len(omega_ks) x len(offsets)): column c drives
    with mu(t) shifted by the constant offsets[c] (rad/s). eta factors are
    NOT included; multiply per ion as needed. A column does not depend on the
    other offsets, so it is bitwise what a single-offset call returns; and
    mu_ref + offset is formed before it multiplies t, so a schedule whose
    mu_ref is shifted by the offset gives the same column at zero offset.
    """
    kernel = DisplacementKernel(sched, omega_ks, n_intervals)
    drive = kernel.drives(1)
    n = len(kernel.times)
    np.multiply(kernel.weighted, np.exp(1j * fm_phase(sched, kernel.times)), out=drive[:, :n])
    endpoints = np.empty((len(omega_ks), len(offsets)), dtype=complex)
    for col, offset in enumerate(offsets):
        endpoints[:, col] = kernel(drive, kernel.tables(sched.mu_ref + offset))[0]
    return endpoints


def mode_errors(sched, modes, ion_i, ion_j, *, both_ions=True,
                n_intervals=DEFAULT_ALPHA_INTERVALS, offsets=(0.0,)):
    """Per-mode motional errors eta_k^2 |I_k(tau)|^2 (modes x offsets).

    Column c holds the terms that motional_error sums at frequency_offset
    offsets[c]. eta_k^2 adds both addressed ions' couplings, or takes the
    first ion's alone when both_ions is False.
    """
    endpoints = mode_displacement_integrals(sched, modes.frequencies, n_intervals, offsets)
    weights = modes.eta[ion_i - 1] ** 2
    if both_ions:
        weights = weights + modes.eta[ion_j - 1] ** 2
    return weights[:, None] * np.abs(endpoints) ** 2


def motional_error(sched, modes, ion_i, ion_j, *, both_ions=True,
                   n_intervals=DEFAULT_ALPHA_INTERVALS, frequency_offset=0.0):
    """Residual motional gate error: sum over modes of |alpha_k(tau)|^2.

    Both addressed ions drive every mode with their own Lamb-Dicke factor, so
    by default the sum runs over both (the conservative convention); pass
    both_ions=False for the single-ion variant. frequency_offset shifts the
    whole drive pattern mu(t) by a constant (rad/s).
    """
    terms = mode_errors(sched, modes, ion_i, ion_j, both_ions=both_ions,
                        n_intervals=n_intervals, offsets=(frequency_offset,))
    return float(terms[:, 0].sum())


def mode_angle_integrals(sched, omega_ks, n_intervals=DEFAULT_BETA_INTERVALS):
    """Ordered double integral of Omega(t2) Omega(t1) sin(theta_k(t2) - theta_k(t1)) per mode.

    The inner integral over t1 is the running conjugate displacement, so each
    mode costs one cumulative plus one weighted sum on the downsampled grid.
    """
    t, dx = _uniform_grid(sched.gate_time, n_intervals)
    w_end = simpson_weights(len(t), dx)
    drive = np.exp(1j * fm_phase(sched, t))
    drive *= amplitude(t, sched)
    detunings = sched.mu_ref - np.asarray(omega_ks, dtype=float)
    out = np.empty(len(detunings))
    for pos, g in enumerate(_mode_integrands(sched, detunings, drive)):
        running = cumulative_simpson(g, dx)
        np.conj(running, out=running)
        np.multiply(g, running, out=running)  # in place: no per-mode temporaries on the heap
        out[pos] = running.imag @ w_end
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
    """Downsampled trajectory CSV (t_s, alpha_re, alpha_im) with lossless repr floats.

    The bytes are those of csv.writer (its "\\r\\n" line ends, and no float
    repr needs quoting), without its per-row calls.
    """
    stride = max(1, (len(traj.times) - 1) // max(1, samples - 1))
    alpha = traj.alpha[::stride]
    columns = (traj.times[::stride].tolist(), alpha.real.tolist(), alpha.imag.tolist())
    with open(csv_path, "w", newline="") as fh:
        fh.write("t_s,alpha_re,alpha_im\r\n")
        # line by line: a joined string would sit on top of the report's trajectories
        fh.writelines(f"{t!r},{re!r},{im!r}\r\n" for t, re, im in zip(*columns))
