"""Pulse schedules: amplitude shapes and the oscillatory FM pattern.

A schedule fixes the gate time tau, one of two amplitude envelopes, and a
drive-frequency pattern mu(t) built from turning points on an even time grid
joined by raised-cosine arcs (zero slope at every knot, so mu is C1). With
n oscillations there are 2n - 1 turning points, but time symmetry about
tau/2 leaves only the first n free; the rest mirror them.

Both the envelope and mu(t) are evaluated through a time fold
t -> min(t, tau - t), which makes the symmetry hold exactly in floating
point rather than approximately.

The FM phase int_0^t (mu - mu_ref) dt' has a closed form on each arc
(fm_phase_closed_form) and is linear in the turning points (phase_basis).
This module is the only one that computes it: the optimizer designs on it,
and every gate integral takes it on its grid.
"""

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import write_json, write_npz
from .quadrature import simpson


class OutOfRange(ValueError):
    """Evaluation time outside [0, gate_time]."""


class ApproximationBreakdown(UserWarning):
    """The sideband-expansion smallness assumption (max |a_n| * tau <= 0.3) is violated."""


@dataclass(frozen=True)
class ShapeA:
    """Smooth envelope sin(pi t / tau)^1.5, zero at both ends."""


@dataclass(frozen=True)
class ShapeB:
    """Three plateaus at the given relative levels joined by raised-cosine ramps.

    Each of the four ramps spans ramp_fraction * tau; the envelope is zero at
    both endpoints and time-symmetric, which requires equal outer levels. The
    plateau durations are equal. Levels are relative; the schedule's
    amp_scale multiplies them. Ramps narrower than roughly 0.12 * tau excite
    residual motion that eight FM knobs cannot cancel below 1e-4, hence the
    wide default.
    """

    step_levels: tuple = (0.55, 1.0, 0.55)
    ramp_fraction: float = 0.16

    def __post_init__(self):
        levels = tuple(float(v) for v in self.step_levels)
        if len(levels) != 3:
            raise ValueError("step_levels must hold exactly 3 values")
        if levels[0] != levels[2]:
            raise ValueError("outer plateau levels must match for a time-symmetric envelope")
        if not all(0.0 <= v < np.inf for v in levels) or max(levels) == 0:
            raise ValueError("plateau levels must be finite and non-negative with a positive peak")
        if not 0.0 < self.ramp_fraction < 0.25:
            raise ValueError("ramp_fraction must lie in (0, 0.25)")
        object.__setattr__(self, "step_levels", levels)


FM_POINT_BOUND = 2 * np.pi * 10e3  # rad/s sanity cap on turning-point offsets


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """Amplitude envelope plus FM turning-point pattern over one gate.

    fm_points holds the free turning-point offsets (rad/s relative to
    mu_ref), one per oscillation; the full 2n-1 point list is reconstructed
    by mirror symmetry. amp_scale is the peak carrier Rabi frequency in
    rad/s.
    """

    gate_time: float
    amp_shape: object  # ShapeA or ShapeB
    amp_scale: float
    mu_ref: float
    fm_points: np.ndarray = field(default_factory=lambda: np.zeros(8))
    n_oscillations: int = 8

    def __post_init__(self):
        # each check is written so that nan fails it
        if not 0.0 < self.gate_time < np.inf:
            raise ValueError(f"gate_time must be positive and finite, got {self.gate_time}")
        if not 0.0 <= self.amp_scale < np.inf:
            raise ValueError(f"amp_scale must be non-negative and finite, got {self.amp_scale}")
        if not 0.0 < self.mu_ref < np.inf:
            raise ValueError(f"mu_ref must be positive and finite, got {self.mu_ref}")
        if not isinstance(self.amp_shape, (ShapeA, ShapeB)):
            raise ValueError("amp_shape must be a ShapeA or ShapeB instance")
        if self.n_oscillations < 1:
            raise ValueError("n_oscillations must be >= 1")
        pts = np.array(self.fm_points, dtype=float)  # copy: freezing must not leak
        if pts.shape != (self.n_oscillations,):
            raise ValueError(
                f"fm_points must hold n_oscillations = {self.n_oscillations} "
                f"values, got shape {pts.shape}"
            )
        if not np.abs(pts).max(initial=0.0) <= FM_POINT_BOUND:
            raise ValueError(
                "fm turning points must be finite and within the sanity bound "
                f"{FM_POINT_BOUND / (2 * np.pi):.0f} Hz"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "fm_points", pts)

    @property
    def n_turning_points(self):
        return 2 * self.n_oscillations - 1


def turning_points(sched):
    """Full mirrored turning-point offset list (length 2n - 1, rad/s)."""
    free = sched.fm_points
    return np.concatenate([free, free[-2::-1]])


def turning_times(sched):
    """Times of the full turning-point list, evenly spread over [0, tau]."""
    return np.linspace(0.0, sched.gate_time, sched.n_turning_points)


def _fold(t, tau):
    """Map t onto [0, tau/2] by the mirror t -> min(t, tau - t); validates range."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > tau):
        raise OutOfRange(f"time outside [0, {tau}]")
    return np.minimum(t, tau - t)


def _ramp(v0, v1, s):
    """Raised-cosine blend from v0 at s=0 to v1 at s=1 with zero end slopes."""
    w = 0.5 * (1.0 - np.cos(np.pi * s))
    return v0 * (1.0 - w) + v1 * w


def _relative_amplitude(shape, u):
    """Relative envelope on the folded coordinate u = min(t, tau-t)/tau in [0, 1/2]."""
    if isinstance(shape, ShapeA):
        return np.sin(np.pi * u) ** 1.5
    p_out, p_mid, _ = shape.step_levels
    w = shape.ramp_fraction
    plateau = (1.0 - 4.0 * w) / 3.0
    out = np.empty_like(u)
    ramp1 = u < w
    flat1 = (u >= w) & (u < w + plateau)
    ramp2 = (u >= w + plateau) & (u < 2 * w + plateau)
    flat2 = u >= 2 * w + plateau
    out[ramp1] = _ramp(0.0, p_out, u[ramp1] / w)
    out[flat1] = p_out
    out[ramp2] = _ramp(p_out, p_mid, (u[ramp2] - w - plateau) / w)
    out[flat2] = p_mid
    return out


def amplitude(t, sched):
    """Carrier Rabi frequency Omega(t) in rad/s; scalar or array t in [0, tau]."""
    u = _fold(t, sched.gate_time) / sched.gate_time
    out = sched.amp_scale * _relative_amplitude(sched.amp_shape, np.atleast_1d(u))
    return out if np.ndim(t) else float(out[0])


def fm_offset(t, sched):
    """FM offset mu(t) - mu_ref in rad/s from the raised-cosine turning-point arcs."""
    tau = sched.gate_time
    tf = _fold(t, tau)
    free = sched.fm_points
    if sched.n_oscillations == 1:
        out = np.full_like(tf, free[0])
        return out if np.ndim(t) else float(out)
    n_seg = sched.n_turning_points - 1
    x = (tf / tau) * n_seg
    idx = np.minimum(x.astype(int), n_seg // 2 - 1)
    out = _ramp(free[idx], free[idx + 1], x - idx)
    return out if np.ndim(t) else float(out)


def fm_phase_closed_form(t, sched):
    """Running FM phase int_0^t (mu - mu_ref) dt' in rad at arbitrary times t in [0, tau].

    On the arc from turning time t_j (offset v0) to t_j + width (offset v1),
    with u = (t - t_j) / width, the raised-cosine blend integrates to
    Phi_j + width [v0 u + (v1 - v0)/2 (u - sin(pi u)/pi)], where Phi_j sums
    width (v0 + v1)/2 over the earlier arcs. Past tau/2 the mirror symmetry
    gives Phi(t) = 2 Phi(tau/2) - Phi(tau - t).
    """
    tau = sched.gate_time
    tf = _fold(t, tau)
    free = sched.fm_points
    if sched.n_oscillations == 1:
        out = free[0] * np.asarray(t, dtype=float)
        return out if np.ndim(t) else float(out)
    n_seg = sched.n_turning_points - 1
    width = tau / n_seg
    x = tf / width
    idx = np.minimum(x.astype(int), n_seg // 2 - 1)
    u = x - idx
    ends = width * np.concatenate([[0.0], np.cumsum(0.5 * (free[:-1] + free[1:]))])
    v0, v1 = free[idx], free[idx + 1]
    half = ends[idx] + width * (v0 * u + 0.5 * (v1 - v0) * (u - np.sin(np.pi * u) / np.pi))
    out = np.where(tf < t, 2.0 * ends[-1] - half, half)
    return out if np.ndim(t) else float(out)


def phase_basis(sched, t):
    """Linear FM phase basis B (n_oscillations x len(t)) at arbitrary times t in [0, tau].

    Each raised-cosine arc blends two turning points linearly, so the FM
    phase is linear in fm_points: fm_points @ B. Row m is the closed-form
    phase (fm_phase_closed_form) of the pattern whose m-th free turning point
    is 1 rad/s and the rest 0.
    """
    return np.stack([
        fm_phase_closed_form(t, replace(sched, fm_points=unit))
        for unit in np.eye(sched.n_oscillations)
    ])


def breakpoints(sched):
    """Sorted times in [0, tau] where the FM pattern or the envelope switches formula.

    They are 0, tau and the turning times, plus the ends of shape B's four
    ramps; between two neighbours the drive is analytic. (One oscillation has
    the single turning time 0.)
    """
    times = [[0.0, sched.gate_time], turning_times(sched)]
    shape = sched.amp_shape
    if isinstance(shape, ShapeB):
        w = shape.ramp_fraction
        ends = np.array([w, w + (1.0 - 4.0 * w) / 3.0, (1.0 + 2.0 * w) / 3.0])
        times.append(sched.gate_time * np.concatenate([ends, 1.0 - ends]))
    return np.unique(np.concatenate(times))


def drive_frequency(t, sched):
    """Instantaneous drive frequency mu(t) in rad/s."""
    return sched.mu_ref + fm_offset(t, sched)


@dataclass(frozen=True, eq=False)
class FourierDecomposition:
    """Cosine series of the drive frequency over one gate.

    mean is the time average of mu(t); coefficients[n-1] is the weight a_n of
    cos(w_n t) with harmonics[n-1] = w_n = 2 pi n / tau. The pattern is even
    about tau/2, so sine terms vanish identically.
    """

    mean: float  # rad/s
    coefficients: np.ndarray  # rad/s
    harmonics: np.ndarray  # rad/s

    def __post_init__(self):
        for name in ("coefficients", "harmonics"):
            arr = np.array(getattr(self, name), dtype=float)  # copy: freezing must not leak
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def fourier_decompose(sched, n_max=32, n_intervals=8192):
    """Cosine-series coefficients of mu(t) up to harmonic n_max, by Simpson quadrature."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    tau = sched.gate_time
    t = np.linspace(0.0, tau, n_intervals + 1)
    dx = t[1] - t[0]
    mu = drive_frequency(t, sched)
    mean = simpson(mu, dx) / tau
    n = np.arange(1, n_max + 1)
    harmonics = 2.0 * np.pi * n / tau
    basis = np.cos(np.outer(harmonics, t))
    coefficients = (2.0 / tau) * simpson(basis * (mu - mean)[None, :], dx)
    return FourierDecomposition(mean=float(mean), coefficients=coefficients, harmonics=harmonics)


def alpha_fourier_approx(sched, eta_ik, omega_k, n_max=32, n_intervals=20_000):
    """Endpoint of the mode displacement via the sideband expansion of the FM drive.

    Writing the detuning as its mean delta_0 plus the cosine series turns the
    trajectory integral into the plain tone at delta_0 plus, for each
    harmonic n, a pair of side tones at delta_0 +/- w_n weighted by
    a_n / (2 w_n). Valid while the modulation is shallow; warns with
    ApproximationBreakdown when max |a_n| * tau > 0.3.
    """
    dec = fourier_decompose(sched, n_max=n_max)
    if np.abs(dec.coefficients).max(initial=0.0) * sched.gate_time > 0.3:
        warnings.warn(
            "max |a_n| * tau exceeds 0.3; the sideband expansion degrades",
            ApproximationBreakdown,
            stacklevel=2,
        )
    tau = sched.gate_time
    t = np.linspace(0.0, tau, n_intervals + 1)
    dx = t[1] - t[0]
    omega = amplitude(t, sched)
    delta0 = dec.mean - omega_k
    total = simpson(omega * np.exp(1j * delta0 * t), dx)
    for a_n, w_n in zip(dec.coefficients, dec.harmonics):
        upper = simpson(omega * np.exp(1j * (delta0 + w_n) * t), dx)
        lower = simpson(omega * np.exp(1j * (delta0 - w_n) * t), dx)
        total += a_n / (2.0 * w_n) * (upper - lower)
    return complex(eta_ik * total)


def _schedule_payload(sched):
    """save_schedule's JSON payload: all frequencies in Hz."""
    shape = sched.amp_shape
    if isinstance(shape, ShapeA):
        shape_block = {"kind": "A"}
    else:
        shape_block = {
            "kind": "B",
            "step_levels": list(shape.step_levels),
            "ramp_fraction": shape.ramp_fraction,
        }
    return {
        "gate_time_s": sched.gate_time,
        "shape": shape_block,
        "amp_scale_hz": sched.amp_scale / (2 * np.pi),
        "mu_ref_hz": sched.mu_ref / (2 * np.pi),
        "fm_points_hz": [v / (2 * np.pi) for v in sched.fm_points.tolist()],
        "n_oscillations": sched.n_oscillations,
    }


def _schedule_from_payload(payload):
    """The PulseSchedule of a save_schedule payload."""
    block = payload["shape"]
    if block["kind"] == "A":
        shape = ShapeA()
    elif block["kind"] == "B":
        shape = ShapeB(
            step_levels=tuple(block["step_levels"]),
            ramp_fraction=block["ramp_fraction"],
        )
    else:
        raise ValueError(f"unknown shape kind {block['kind']!r}")
    return PulseSchedule(
        gate_time=float(payload["gate_time_s"]),
        amp_shape=shape,
        amp_scale=2 * np.pi * float(payload["amp_scale_hz"]),
        mu_ref=2 * np.pi * float(payload["mu_ref_hz"]),
        fm_points=2 * np.pi * np.array(payload["fm_points_hz"]),
        n_oscillations=int(payload["n_oscillations"]),
    )


def save_schedule(sched, json_path):
    """Serialize a schedule as JSON with all frequencies in Hz."""
    write_json(json_path, _schedule_payload(sched))


def load_schedule(json_path):
    """Rebuild a PulseSchedule from save_schedule output."""
    with open(json_path) as fh:
        return _schedule_from_payload(json.load(fh))


def saved_form(sched):
    """The schedule as load_schedule(save_schedule(sched)) returns it, without a file.

    The Hz round trip 2 pi (x / 2 pi) moves a value by an ulp when its
    mantissa lies above about 1.57 (about one float in eight); JSON keeps
    every float exactly, so only the payload is formed. A value moves at most
    once: the saved form saves to the same bytes as sched and loads back bit
    for bit (no counterexample in 1e6 random draws).
    """
    return _schedule_from_payload(_schedule_payload(sched))


def save_waveform(sched, path, samples=2001):
    """The sampled pulse, for plotting: an npz (artifacts.write_npz) of three float64
    (samples,) arrays, t_s on np.linspace(0, tau, samples) and omega_hz and
    mu_offset_hz, amplitude and fm_offset over 2 pi there, each as computed."""
    t = np.linspace(0.0, sched.gate_time, samples)
    write_npz(path, t_s=t, omega_hz=amplitude(t, sched) / (2 * np.pi),
              mu_offset_hz=fm_offset(t, sched) / (2 * np.pi))


def with_amplitude(sched, amp_scale):
    """Copy of the schedule at a different peak Rabi frequency."""
    return replace(sched, amp_scale=float(amp_scale))
