"""Phase-space trajectories of the driven motional modes.

While the two addressed ions are driven at mu(t), every mode k accumulates a
coherent displacement alpha_k(t) = eta_ik * int_0^t Omega(t') e^{i theta_k(t')} dt'
with theta_k the integrated detuning mu - omega_k. The geometric (entangling)
phase between the two qubits is twice the eta-weighted sum over modes of the
ordered double integral of Omega(t2) Omega(t1) sin(theta_k(t2) - theta_k(t1)).

The integrals here run on fixed uniform grids: 20,000 Simpson intervals for
displacements and a downsampled 2,000-interval grid for the double integral
(quadratic in grid size when evaluated naively; here its pairs of samples are
summed by blocks, so the cost stays near linear without changing the
quadrature).
A stored trajectory keeps only the rows a report writes (2,001 by default),
and only those rows of its running integral on the 20,000-interval grid are
computed. A report holds every traced mode's rows as one (modes x rows)
block, the layout of its binary file (save_trajectories), each float64
exactly as computed. (The optimizer's objective takes its one integral on
Gauss-Legendre panels instead; see the optimizer module.)

Every integral here takes theta_k = (mu_ref + offset - omega_k) t + fm_phase
from one FM phase, fm_phase = int (mu - mu_ref) dt in its closed form
(pulse.fm_phase_closed_form) at the grid's samples: the phase the optimizer
designs on, as fm_points @ pulse.phase_basis on its panel nodes. Only the
pulse module computes the FM phase.

The linear phases f t reach about 8.5e3 rad on the default chain, where a
float64 argument to exp carries ~1e-12 rad of rounding. _phasor_tables
writes e^{i f t_n} as C[q] F[r], n = q m + r, from a coarse and a fine table
of about sqrt(N) entries each. Every entry's argument is carried in float64
double-double (Dekker two-products) and reduced exactly modulo a three-part
2 pi (Cody-Waite), so each entry is rounded once, on any platform: with a
plain float64 exp, each coarse rounding would repeat over a whole block and
the error would grow (test_motional_error_matches_long_double_quadrature
guards this).

The displacement kernel (mode_displacement_integrals) keeps the
factorization. The weighted drive h_n = w D_n (D = Omega e^{i fm_phase}, w
the Simpson weights; see below for the amplitude), padded with zeros to
Q m samples, is a (Q, m) block matrix H, so G = H F^T (Q x modes) is one
matrix product for every mode and I_k = sum_q C_k[q] G[q, k], on the tables
of the detunings mu_ref - omega_k.
A constant offset delta multiplies sample n = q m + r by e^{i delta q m dx},
exact from its own coarse table, and by e^{i delta r dx}, a Taylor series
in the within-block phase. So a whole sweep is a few moment drives
h (r/m)^p through that one product, plus one small contraction per offset.
No modes x samples array is formed.

The angle kernel (angle_integrals) keeps it too. Written out, the cumulative
Simpson rule makes the double sum d_k = sum_n w_n Im(g_n conj G_n) a sum
over pairs of samples j < n plus two small corrections at the start and
between neighbours. The pairs in different blocks come from the block sums
of w D and D, which one block product (_block_products) gives for every
mode at once; the pairs inside a block share one m x m matrix of the drive
alone, met by each mode's fine table.

The trajectory kernel (mode_trajectories) reads the same tables, one mode at
a time. The drive D is cut into blocks that run from one stored row to the
next, and a zero-padded matrix of them is shared by every mode. Each mode
meets it with its phasors on one block (one matrix-vector product), turns
the block sums by its phasors at the stored rows and adds them up (one
cumsum); the cumulative Simpson rule's corrections, at the start and at a
row's own sample and the one before it, are added at the stored rows, in
the mode's row of one (modes x rows) block. No modes x samples array and no
full-grid running integral is formed.

Every kernel integrates the unit drive D_1 = (Omega / amp_scale)
e^{i fm_phase} and applies the amplitude once to its small result:
amp_scale to the displacements and the trajectories, amp_scale^2 to d_k.
What the kernels read then depends on neither the pair nor the amplitude,
and each input is kept by what it reads, bit for bit: the unit drive
(_unit_drive) by the envelope shape, the turning points and the gate time;
the detuning tables (_tables) by the gate time and mu_ref - omega_k; and the
unit drive's d_k by both. A memo (_memo) holds the last value of each kind
on each grid size, each built on first use (a power map alone builds nothing
on the 20,000-interval grid), and drops the old value before it builds the
new one. Its arrays are read-only, so every result is bitwise what a fresh
build gives. The reports, sweep and power map of one schedule share its
values; the patterns of one mu_ref, such as shapes A and B, share the
tables; the chains that one pattern drives, as in a trap scan, share the
unit drive. A subset of the held modes is another key, and its tables hold
the same entries (_phasor_table). After one schedule's report, sweep and
power map the memo holds 0.65 MB on the default chain (0.55 MB of it on the
20,000-interval grid). Analyses in one process, such as library calls or a
--recompute chain, reuse it; separate CLI invocations do not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_npz
from .pulse import amplitude, fm_phase_closed_form, with_amplitude
from .quadrature import cumulative_simpson, simpson, simpson_weights

DEFAULT_ALPHA_INTERVALS = 20_000
DEFAULT_BETA_INTERVALS = 2_000
DEFAULT_TRAJECTORY_SAMPLES = 2_001
# rad: the largest within-block offset phase |offset| (m - 1) dx. The series in it sums
# terms up to e^x in size, so digits go as x grows: on 2,000 to 20,000 intervals the
# error of schedules A and B stayed within 2.3e-12 (relative) of exact per-offset tables
# up to 8 rad (364 kHz on the default grid), and was 1.9e-10 off at 9 rad
MAX_BLOCK_PHASE = 8.0


@dataclass(frozen=True, eq=False)
class GateReport:
    """Calibrated gate summary for one addressed ion pair.

    beta is the signed entangling angle at the calibrated amplitude
    (|beta| = pi/4); motional_error sums |alpha_k(tau)|^2 over every mode for
    both addressed ions' couplings, also at the calibrated amplitude, and
    mode_errors holds its per-mode terms (they sum to it). The traced modes'
    paths are one block in the layout of their file (save_trajectories):
    trajectories (modes x rows, complex128) holds alpha_k(t), weighted with the
    first ion's Lamb-Dicke factor, a row per mode of trajectory_modes ((modes,)
    int64, 1-based), at the trajectory_times ((rows,) float64) that
    mode_trajectories stores. With no traced mode they have shapes (0, 0),
    (0,) and (0,). The three arrays are read-only.
    """

    pair: tuple
    beta: float
    motional_error: float
    omega_max: float  # rad/s
    trajectory_modes: np.ndarray
    trajectory_times: np.ndarray
    trajectories: np.ndarray
    mode_errors: tuple


def _uniform_grid(tau, n_intervals):
    return np.linspace(0.0, tau, n_intervals + 1), tau / n_intervals


# 2 pi = _TWO_PI_1 + _TWO_PI_2 + _TWO_PI_3 to within 2e-34 (Cody-Waite). The first two
# parts carry 27 significant bits, so n times either is exact for |n| < 2**26.
_TWO_PI_1 = 6.283185303211212
_TWO_PI_2 = 3.968374295837407e-09
_TWO_PI_3 = 2.2884754904439327e-17
_MAX_TURNS = 2**26
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a float64 into two 26-bit halves


def _two_product(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker)."""
    p = a * b
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLITTER * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    b_virtual = s - a
    return s, (a - (s - b_virtual)) + (b - b_virtual)


def _phasor_table(freqs, k, tau, n_intervals):
    """e^{i f k tau / N} (freqs x k) for grid indices k (floats) of the grid of N intervals.

    Each entry is rounded once from an argument carried in float64
    double-double: tau / N is a head and a remainder from a two-product,
    k tau / N and f t are two-products, and the angle is reduced modulo a
    three-part 2 pi to h + l with |h| ~<= pi, so e^{i (h + l)} = e^{i h} (1 + i l)
    up to l^2 ~ 1e-24. An entry depends only on its own f and k: it is bitwise
    the same in a call with any other rows or columns.
    """
    freqs = np.asarray(freqs, dtype=float)[:, None]
    step = tau / n_intervals
    p, e = _two_product(step, float(n_intervals))
    step_lo = ((tau - p) - e) / n_intervals  # tau - p is exact (Sterbenz)
    t, t_lo = _two_product(k, step)
    t_lo += k * step_lo
    angle, angle_lo = _two_product(freqs, t)
    angle_lo += freqs * t_lo
    turns = np.rint(angle * (0.5 / math.pi))
    if np.abs(turns).max(initial=0.0) >= _MAX_TURNS:
        raise ValueError(f"phases beyond {_MAX_TURNS} turns lose the exact reduction modulo 2 pi")
    h, l = _two_sum(angle - turns * _TWO_PI_1, -turns * _TWO_PI_2)  # both products exact
    l += angle_lo - turns * _TWO_PI_3
    cos, sin = np.cos(h), np.sin(h)
    out = np.empty(h.shape, dtype=complex)
    out.real = cos - l * sin
    out.imag = sin + l * cos
    return out


def _phasor_tables(freqs, tau, n_intervals):
    """Coarse and fine _phasor_table of e^{i f t_n}: sample n = q m + r is coarse[:, q] *
    fine[:, r], with m = isqrt(N + 1) fine entries and ceil((N + 1) / m) coarse
    ones, so the last block may run past sample N."""
    n_samples = n_intervals + 1
    m = math.isqrt(n_samples)
    return (_phasor_table(freqs, m * np.arange(-(-n_samples // m), dtype=float), tau, n_intervals),
            _phasor_table(freqs, np.arange(m, dtype=float), tau, n_intervals))


def integrate_sampled(omega_samples, delta_samples, dx, eta_ik=1.0):
    """alpha(t) (1-D) from Rabi frequency and detuning sampled on a uniform grid of step dx,
    at the caller's sample times.

    The sampled-profile oracle for the schedule paths: it integrates the detuning
    itself, so it also accepts profiles (for instance constant ones) that no
    schedule produces.
    """
    omega_samples = np.asarray(omega_samples, dtype=float)
    theta = cumulative_simpson(delta_samples, dx)
    return eta_ik * cumulative_simpson(omega_samples * np.exp(1j * theta), dx)


def _frozen(arr):
    arr.setflags(write=False)
    return arr


_memo = {}  # (kind, n_intervals) -> (key, value): the last value of each kind on each grid


def _last_value(kind, n_intervals, key, build):
    """The held value of this kind on the grid of n_intervals if its key is key, else
    build()'s, which replaces it. The old value goes before the new one is built."""
    slot = kind, n_intervals
    if _memo.get(slot, (None,))[0] != key:
        _memo.pop(slot, None)
        _memo[slot] = key, build()
    return _memo[slot][1]


def _drive_key(sched):
    """What the unit drive reads: the envelope, the turning points and the gate time."""
    return (repr(sched.amp_shape), sched.n_oscillations,
            np.array([sched.gate_time, *sched.fm_points]).tobytes())


def _unit_drive(sched, n_intervals):
    """The unit drive D_1 = (Omega / amp_scale) e^{i fm_phase} on the grid of n_intervals."""
    def build():
        t, _ = _uniform_grid(sched.gate_time, n_intervals)
        pattern = with_amplitude(sched, 1.0)  # amplitude(t, pattern) is Omega / amp_scale
        return _frozen(amplitude(t, pattern) * np.exp(1j * fm_phase_closed_form(t, pattern)))
    return _last_value("drive", n_intervals, _drive_key(sched), build)


def _detunings(sched, omega_ks):
    return sched.mu_ref - np.asarray(omega_ks, dtype=float)


def _tables(sched, omega_ks, n_intervals):
    """The coarse and fine _phasor_tables of the detunings mu_ref - omega_ks on the grid of
    n_intervals, kept by the gate time and the detunings' bytes."""
    tau, detunings = sched.gate_time, _detunings(sched, omega_ks)
    return _last_value("tables", n_intervals, (tau, detunings.tobytes()), lambda: tuple(
        map(_frozen, _phasor_tables(detunings, tau, n_intervals))))


def _start_terms(coarse, fine, drive):
    """e^{i delta_k t_n} and g_n = drive_n e^{i delta_k t_n} for n = 0, 1, 2 (modes x 3),
    and c0 = -8 g_0 + 3 g_1 - g_2, the cumulative Simpson rule's start term."""
    start = np.arange(3)
    m = fine.shape[1]
    phasors = coarse[:, start // m] * fine[:, start % m]
    g_start = phasors * drive[:3]
    return phasors, g_start, g_start @ np.array([-8.0, 3.0, -1.0])


_ROW_PASS = 2_048  # stored rows per pass: a 2,001-row report is one pass


def _drive_blocks(drive, rows, width):
    """Zero-padded (len(rows) - 1, width) matrix: row p holds drive[rows[p]:rows[p + 1]]."""
    blocks = np.zeros((len(rows) - 1, width), dtype=complex)
    blocks[np.arange(width) < np.diff(rows)[:, None]] = drive[rows[0]:rows[-1]]
    return blocks


def mode_trajectories(sched, omega_ks, etas, n_intervals=DEFAULT_ALPHA_INTERVALS, samples=None):
    """(times, alpha): the trajectories of the modes at omega_ks, with couplings etas.

    alpha is one read-only (modes x count) complex128 block, row k the path of
    the mode at omega_ks[k] scaled by amp_scale etas[k], and times the
    read-only (count,) rows it is stored at: count = min(samples, N + 1) rows
    of the cumulative Simpson integral on the grid of n_intervals = N, at the
    grid rows n_p = p N // (count - 1) for p = 0 .. count - 1: the first at
    t = 0, the last at tau, and evenly spaced when count - 1 divides N.
    samples=None stores every grid sample.

    Only the stored rows are computed. For n >= 1 the cumulative rule is
    G_n = dx S_n + (dx/12)(c0 + g_{n-1} - 7 g_n) with S_n = sum_{j<=n} g_j,
    g_n = D_n e^{i delta_k t_n} (D = Omega e^{i fm_phase}, taken at unit
    amplitude and scaled at the end) and c0 = -8 g_0 + 3 g_1 - g_2 (see
    angle_integrals). Block p of the drive holds the samples
    from row n_p up to n_{p+1}, so sum_{j<n_p} g_j adds up the block sums
    e^{i delta_k t_{n_p}} sum_r D_{n_p + r} e^{i delta_k r dx}: one product of
    the zero-padded block matrix with the mode's phasors on one block, and
    one cumsum. The g_{n-1} and g_n terms are taken at the stored rows. The
    rows go in passes of at most _ROW_PASS, so a pass's scratch stays near
    0.3 MB even when every sample is stored. A row depends only on its own
    mode's table rows, so it is bitwise the same in a call with any other
    modes; the unit drive and the tables come from the memo (_unit_drive,
    _tables).
    """
    if samples is not None and samples < 2:
        raise ValueError(f"a trajectory stores t = 0 and tau, so samples >= 2; got {samples}")
    count = n_intervals + 1 if samples is None else min(samples, n_intervals + 1)
    t, dx = _uniform_grid(sched.gate_time, n_intervals)
    times = _frozen(t[np.arange(count) * n_intervals // (count - 1)])
    del t  # times holds its rows; the full grid would be 160 kB of scratch through the passes
    drive = _unit_drive(sched, n_intervals)
    coarse, fine = _tables(sched, omega_ks, n_intervals)
    m = fine.shape[1]
    width = -(-n_intervals // (count - 1))  # the longest block
    block_q, block_r = divmod(np.arange(width), m)
    start, _, c0 = _start_terms(coarse, fine, drive)
    c0 *= dx / 12.0
    back = start[:, 1].conj()  # e^{-i delta_k dx}: g_{n-1} in the frame of row n
    alpha = np.empty((len(fine), count), dtype=complex)
    running = np.zeros(len(fine), dtype=complex)  # dx sum_{j<n} g_j, n the last row done
    for first in range(0, count - 1, _ROW_PASS):
        rows = np.arange(first, min(first + _ROW_PASS, count - 1) + 1) * n_intervals // (count - 1)
        blocks = _drive_blocks(drive, rows, width)
        blocks *= dx
        before = drive[rows[1:] - 1] * (dx / 12.0)
        # dx S_n holds dx g_n, and the rule adds -7 dx/12 g_n
        here = drive[rows[1:]] * ((12.0 - 7.0) * dx / 12.0)
        row_q, row_r = divmod(rows, m)
        for k, (coarse_k, fine_k, row) in enumerate(zip(coarse, fine, alpha)):
            phasors = coarse_k[row_q] * fine_k[row_r]
            # np.dot, not @: matmul took 5x longer on one-sample blocks
            sums = np.dot(blocks, coarse_k[block_q] * fine_k[block_r])
            sums *= phasors[:-1]
            sums[0] += running[k]
            np.cumsum(sums, out=sums)  # dx sum_{j<n_p} g_j at the rows after the first
            running[k] = sums[-1]
            ends = before * back[k]
            ends += here
            ends *= phasors[1:]
            ends += c0[k]
            np.add(sums, ends, out=row[first + 1:first + len(rows)])
    alpha[:, 0] = 0.0
    for row, eta_ik in zip(alpha, etas):
        row *= sched.amp_scale * eta_ik
    return times, _frozen(alpha)


def integrate_alpha(sched, eta_ik, omega_k, n_intervals=DEFAULT_ALPHA_INTERVALS):
    """(times, alpha): the path of the mode at omega_k driven by the schedule, at
    every sample of the grid of n_intervals; both arrays (N + 1,) and read-only."""
    times, alpha = mode_trajectories(sched, [omega_k], [eta_ik], n_intervals)
    return times, alpha[0]


def time_averaged_displacement(times, alpha):
    """Mean displacement (1/tau) int alpha(t) dt over the samples at times.

    Time runs along alpha's last axis: one mode's path (rows,) gives a complex,
    and a report's block (modes x rows) a (modes,) array, each row the value
    its own call gives. Simpson's rule needs the samples evenly spaced; rows
    stored at uneven steps (samples - 1 not dividing the intervals) are refused.
    """
    steps = np.diff(times)
    dx = steps[0]
    if np.ptp(steps) > 1e-6 * dx:
        raise ValueError(
            f"time_averaged_displacement needs evenly spaced samples; steps run "
            f"from {steps.min():.6g} to {steps.max():.6g} s"
        )
    return simpson(alpha, dx) / times[-1]


def _block_products(drives, fine):
    """sum_r h_j[q m + r] F_k[r] (drives x Q x modes) for zero-padded drives (drives x Q m).

    Every drive and mode in one (drives Q x m) @ (m x modes) product, as
    angle_integrals takes its block sums.
    """
    m = fine.shape[1]
    return (drives.reshape(-1, m) @ fine.T).reshape(len(drives), -1, len(fine))


def max_offset(tau, n_intervals):
    """The largest |offset| (rad/s) that mode_displacement_integrals takes on this grid.

    The within-block phase offset r dx of the last fine entry, r = m - 1,
    stays within MAX_BLOCK_PHASE.
    """
    m = math.isqrt(n_intervals + 1)
    return math.inf if m == 1 else MAX_BLOCK_PHASE * n_intervals / ((m - 1) * tau)


def _series_order(x):
    """The terms p < P the within-block series takes: the least P with x^P / P! <= 2^-53."""
    order, term = 0, 1.0
    while term > 2.0**-53:
        order += 1
        term *= x / order
    return order


def mode_displacement_integrals(sched, omega_ks, n_intervals=DEFAULT_ALPHA_INTERVALS, offsets=(0.0,)):
    """Gate-end displacements I_k(tau) = int_0^tau Omega e^{i theta_k} of many modes.

    Returns a complex array (len(omega_ks) x len(offsets)): column c drives
    with mu(t) shifted by the constant offsets[c] (rad/s). eta factors are
    NOT included; multiply per ion as needed.

    Every column runs on the detuning tables of mu_ref - omega_k. On sample
    n = q m + r an offset delta adds the phase e^{i delta q m dx}, taken from
    its own coarse table, times e^{i delta r dx} = sum_p a_p (r/m)^p with
    a_p = (i delta m dx)^p / p!. So with the weighted drive h = w D (w the
    Simpson weights) and the moments G_p[q, k] = sum_r h[q m + r] (r/m)^p
    F_k[r], which one (Q x m) @ (m x modes) product per p gives,
    I_k = sum_p a_p sum_q e^{i delta q m dx} C_k[q] G_p[q, k]: one small
    contraction per column. Column c takes the P_c terms its own
    x_c = |offsets[c]| (m - 1) dx needs (x_c^P / P! <= 2^-53), so a column is
    bitwise what a single-offset call returns; at offset 0 it is the drive
    alone. The series sums terms up to e^x_c in size, so offsets beyond
    max_offset (x_c > MAX_BLOCK_PHASE) raise ValueError. The unit drive and
    the tables come from the memo (_unit_drive, _tables), and the endpoints
    are scaled by amp_scale at the end.
    """
    offsets = np.asarray(offsets, dtype=float)
    tau = sched.gate_time
    limit = max_offset(tau, n_intervals)
    if not np.all(np.isfinite(offsets) & (np.abs(offsets) <= limit)):  # nan fails it too
        raise ValueError(
            f"offsets must be finite, and those beyond {limit / (2 * np.pi):.6g} Hz leave the "
            f"within-block series' range on the grid of {n_intervals} intervals over {tau:.6g} s"
        )
    drive = _unit_drive(sched, n_intervals)
    coarse, fine = _tables(sched, omega_ks, n_intervals)
    n_samples, m = len(drive), fine.shape[1]
    dx = tau / n_intervals
    orders = [_series_order(x) for x in np.abs(offsets) * ((m - 1) * dx)]
    weighted = np.zeros(coarse.shape[1] * m, dtype=complex)  # h, zero past sample N
    np.multiply(simpson_weights(n_samples, dx), drive, out=weighted[:n_samples])
    powers = np.arange(max(orders, default=1))
    scales = (np.arange(m) / m)[:, None] ** powers  # (r/m)^p (m x P)
    blocks = weighted.reshape(-1, m)
    moments = np.empty((len(powers), len(blocks), len(fine)), dtype=complex)
    for p in powers:
        np.matmul(blocks, fine.T * scales[:, p, None], out=moments[p])  # G_p
    moments *= coarse.T  # C_k[q] G_p[q, k] (P x Q x modes)
    # a_p = (i delta m dx)^p / p! for every column, a running product of delta m dx / p times i^p
    steps = np.multiply.outer(offsets * (m * dx), 1.0 / np.maximum(powers, 1))
    steps[:, 0] = 1.0
    coeffs = np.cumprod(steps, axis=1) * np.array([1, 1j, -1, -1j])[powers % 4]
    # e^{i delta q m dx}: the coarse rows of the offsets' tables only
    shifts = _phasor_table(offsets, m * np.arange(coarse.shape[1], dtype=float), tau, n_intervals)
    endpoints = np.empty((len(fine), len(offsets)), dtype=complex)
    for col, (order, shift) in enumerate(zip(orders, shifts)):
        terms = np.multiply.outer(coeffs[col, :order], shift)  # a_p e^{i delta q m dx} (P_c x Q)
        endpoints[:, col] = terms.ravel() @ moments[:order].reshape(-1, len(fine))
    endpoints *= sched.amp_scale
    return endpoints


def mode_errors(sched, modes, ion_i, ion_j, *, both_ions=True,
                n_intervals=DEFAULT_ALPHA_INTERVALS, offsets=(0.0,)):
    """Per-mode motional errors eta_k^2 |I_k(tau)|^2 (modes x offsets).

    Column c holds the terms that motional_error sums at frequency_offset
    offsets[c]. eta_k^2 adds both addressed ions' couplings, or takes the
    first ion's alone when both_ions is False.
    """
    i, j = modes.pair_rows([(ion_i, ion_j)])[0]
    endpoints = mode_displacement_integrals(sched, modes.frequencies, n_intervals, offsets)
    weights = modes.eta[i] ** 2
    if both_ions:
        weights = weights + modes.eta[j] ** 2
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

    The drive D = Omega e^{i fm_phase} on the downsampled grid meets the
    coarse x fine tables of the detunings mu_ref - omega_k in block form
    (angle_integrals): cross-block pairs from the block sums of w D and D,
    which one (2 Q x m) @ (m x modes) product gives; pairs within a block
    from one m x m matrix shared by every mode; and two per-mode corrections
    of the cumulative Simpson rule. No modes x samples array is formed.

    The unit drive, the tables and its d_k come from the memo (_unit_drive,
    _tables, _last_value), and d_k grows as amp_scale^2: a second call on the
    same pattern, mu_ref and modes, at any amplitude, scales the d_k the
    first one computed.
    """
    key = _drive_key(sched), _detunings(sched, omega_ks).tobytes()
    d = _last_value("angles", n_intervals, key, lambda: _frozen(_angle_sums(
        _unit_drive(sched, n_intervals), *_tables(sched, omega_ks, n_intervals), sched.gate_time)))
    return sched.amp_scale**2 * d


def angle_integrals(drive, detunings, tau):
    """d_k = sum_n w_n Im(g_n conj G_n), g_n = drive_n e^{i delta_k t_n}, on the uniform grid of tau.

    drive holds N + 1 complex samples D_n, delta_k = detunings[k] (rad/s),
    w are the Simpson weights and G the cumulative Simpson integral of g:
    the quadrature that entangling_angle_sampled takes one mode at a time.
    For n >= 1 the cumulative rule is G_n = dx S_n + (dx/12)(c0 + g_{n-1} -
    7 g_n) with S_n = sum_{j<=n} g_j and c0 = -8 g_0 + 3 g_1 - g_2. The
    g_n conj g_n terms are real, so d_k = dx Im sum_{j<n} w_n g_n conj g_j
    plus the start correction (dx/12) Im(conj(c0) sum_{n>=1} w_n g_n) and the
    neighbour correction (dx/12) Im(e^{i delta_k dx} sum_{n>=1} w_n D_n
    conj D_{n-1}).

    With g_n = D_n C_k[q] F_k[r] (n = q m + r, see _phasor_tables), the pairs
    j < n in different blocks are the block sums W_k[q] of w D and B_k[q]
    of D, from one product over both drives: sum_q W_k[q] conj(sum_{q'<q}
    B_k[q']). The pairs in one block share |C_k[q]| = 1, so they are
    sum_{r'<r} M[r, r'] F_k[r] conj F_k[r'] with a single m x m matrix
    M[r, r'] = sum_q (w D)[q m + r] conj D[q m + r'] for every mode. No
    modes x samples array is formed.
    """
    return _angle_sums(drive, *_phasor_tables(detunings, tau, len(drive) - 1), tau)


def _angle_sums(drive, coarse, fine, tau):
    """angle_integrals of the drive on the tables (coarse, fine) of its detunings."""
    n_samples = len(drive)
    dx = tau / (n_samples - 1)
    m = fine.shape[1]
    w = simpson_weights(n_samples, dx)
    drives = np.zeros((2, coarse.shape[1] * m), dtype=complex)  # rows w D and D, zero-padded
    np.multiply(w, drive, out=drives[0, :n_samples])
    drives[1, :n_samples] = drive
    weighted, plain = _block_products(drives, fine) * coarse.T
    earlier = np.zeros_like(plain)
    np.cumsum(plain[:-1], axis=0, out=earlier[1:])
    pairs = np.einsum("qk,qk->k", weighted, earlier.conj())
    blocks = drives.reshape(2, -1, m)
    within = np.tril(blocks[0].T @ blocks[1].conj(), -1)
    pairs += np.einsum("kr,kr->k", fine, fine.conj() @ within.T)

    phasors, g_start, c0 = _start_terms(coarse, fine, drive)
    tail = weighted.sum(axis=0) - w[0] * g_start[:, 0]  # sum_{n>=1} w_n g_n
    neighbours = np.vdot(drive[:-1], drives[0, 1:n_samples])
    corrections = c0.conj() * tail + phasors[:, 1] * neighbours
    return dx * pairs.imag + (dx / 12.0) * corrections.imag


def entangling_angle_sampled(omega_samples, delta_samples, dx, eta_i, eta_j):
    """Entangling angle for one mode from sampled profiles (test/oracle entry)."""
    theta = cumulative_simpson(delta_samples, dx)
    g = np.asarray(omega_samples, dtype=float) * np.exp(1j * theta)
    running = cumulative_simpson(g, dx)
    w = simpson_weights(len(g), dx)
    return 2.0 * eta_i * eta_j * float(np.imag((g * np.conj(running)) @ w))


def entangling_angle(sched, modes, ion_i, ion_j, n_intervals=DEFAULT_BETA_INTERVALS):
    """Signed geometric phase beta_ij in rad accumulated between two ions (1-based)."""
    i, j = modes.pair_rows([(ion_i, ion_j)])[0]
    d = mode_angle_integrals(sched, modes.frequencies, n_intervals)
    coupling = modes.eta[i] * modes.eta[j]
    return 2.0 * float(np.sum(coupling * d))


def save_trajectories(report, path):
    """The report's trajectories as one .npz file (artifacts.write_npz): t_s, its
    trajectory_times; alpha, its trajectories; and mode, its trajectory_modes."""
    write_npz(path, t_s=report.trajectory_times, alpha=report.trajectories,
              mode=report.trajectory_modes)
