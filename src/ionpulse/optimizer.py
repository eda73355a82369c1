"""FM pattern optimization and drive-power calibration.

The optimizer adjusts the free turning points of the FM pattern to minimize
the summed squared time-averaged displacements of the modes nearest the
drive frequency, which closes their trajectories and removes the first-order
sensitivity to constant frequency offsets. The drive phase is linear in the
turning points (see phase_basis), so the target-mode displacements and their
exact Jacobian cost one matrix product each, and Levenberg-Marquardt on the
stacked real and imaginary displacements converges in tens to hundreds of
evaluations per start. Runs are deterministic for a fixed seed.

Power calibration exploits that the entangling angle is exactly quadratic in
the peak Rabi frequency: the amplitude that yields |beta| = pi/4 follows from
a single reference evaluation.
"""

from dataclasses import dataclass, replace

import numpy as np

from .pulse import PulseSchedule, amplitude, drive_frequency, fm_offset, with_amplitude
from .quadrature import cumulative_simpson, simpson_weights
from .trajectory import (
    DEFAULT_ALPHA_INTERVALS,
    DEFAULT_BETA_INTERVALS,
    entangling_angle,
    integrate_sampled,
    motional_error,
)

REFERENCE_RABI = 2 * np.pi * 100e3  # rad/s, fixed amplitude used inside the cost
FM_BOUND = 2 * np.pi * 10e3  # rad/s, trial points never leave the schedule sanity bound
XTOL = 1e-8  # a start has converged once |step| <= XTOL * (|x| + XTOL), as in MINPACK
INITIAL_DAMPING = 1e-3  # relative to the diagonal of J^T J
DEGENERATE_BETA = 1e-12  # rad, below this the pair is treated as uncoupled


class BudgetExhausted(Exception):
    """The evaluation budget ran out before every start converged."""

    def __init__(self, message, best_fm_points=None, best_cost=None):
        super().__init__(message)
        self.best_fm_points = best_fm_points
        self.best_cost = best_cost


class DegeneratePair(Exception):
    """|beta| at the reference amplitude is numerically zero for this pair."""


@dataclass(frozen=True)
class OptimizationProblem:
    """Inputs of one FM optimization run.

    target_modes are 1-based mode indices; None selects the modes nearest the
    schedule's reference frequency (10 by default). The seed only matters
    when n_starts > 1, where extra starts jitter the initial turning points.
    """

    base_schedule: PulseSchedule
    modes: object  # ModeData
    ion_pair: tuple
    target_modes: tuple = None
    max_evals: int = 120_000
    seed: int = 0
    n_starts: int = 3
    n_intervals: int = DEFAULT_ALPHA_INTERVALS
    reference_amplitude: float = REFERENCE_RABI  # rad/s, cost is evaluated here

    def __post_init__(self):
        i, j = self.ion_pair
        n = self.modes.n_modes
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ValueError(f"ion_pair must be two distinct indices in 1..{n}")
        if self.target_modes is not None:
            targets = tuple(int(k) for k in self.target_modes)
            if not targets or any(not 1 <= k <= n for k in targets):
                raise ValueError(f"target_modes must be non-empty indices in 1..{n}")
            object.__setattr__(self, "target_modes", targets)
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


def nearest_modes(modes, mu_ref, count=10):
    """1-based indices of the `count` modes closest in frequency to mu_ref."""
    order = np.argsort(np.abs(modes.frequencies - mu_ref))[:count]
    return tuple(sorted(int(k) + 1 for k in order))


def default_mu_ref(modes, mode=None, offset=-2 * np.pi * 3.7e3):
    """Reference drive frequency: the chosen mode's frequency plus offset (rad/s).

    When mode is None the most spatially uniform mode is used (the
    wavelength-four standing wave on the default 50-ion chain), since every
    ion couples to it comparably and any pair can be entangled through it.
    """
    from .modes import most_uniform_mode

    if mode is None:
        mode = most_uniform_mode(modes)
    return float(modes.frequencies[mode - 1] + offset)


def resolve_target_modes(problem):
    """The problem's target modes, defaulting to the 10 nearest the drive."""
    if problem.target_modes is not None:
        return problem.target_modes
    count = min(10, problem.modes.n_modes)
    return nearest_modes(problem.modes, problem.base_schedule.mu_ref, count)


def phase_basis(sched, t):
    """Linear FM phase basis B (n_oscillations x samples) on the uniform grid t.

    Each raised-cosine arc blends two turning points linearly, so fm_offset is
    linear in fm_points and the drive phase cumulative_simpson(mu(t)) equals
    cumulative_simpson(mu_ref) + fm_points @ B. Row m is the running integral
    of the pattern whose m-th free turning point is 1 rad/s and the rest 0.
    """
    dx = t[1] - t[0]
    return np.stack([
        cumulative_simpson(fm_offset(t, replace(sched, fm_points=unit)), dx)
        for unit in np.eye(sched.n_oscillations)
    ])


class _Objective:
    """Target-mode residuals and their exact Jacobian on the FM phase basis.

    Everything independent of the turning points x (averaging weights,
    envelope, exp(-i omega_k t), reference phase and sqrt(eta_i^2 + eta_j^2))
    folds into one matrix M (targets x samples). The weighted time-averaged
    displacements are then A = (M e^{i x@B}).sum(1), the cost is sum |A_k|^2,
    and dA/dx = i (M e^{i x@B}) @ B^T.
    """

    def __init__(self, problem):
        sched = with_amplitude(problem.base_schedule, problem.reference_amplitude)
        tau = sched.gate_time
        n = problem.n_intervals
        t = np.linspace(0.0, tau, n + 1)
        dx = t[1] - t[0]
        w_avg = simpson_weights(n + 1, dx) * (1.0 - t / tau)
        ref_phase = cumulative_simpson(np.full(t.shape, sched.mu_ref), dx)
        idx = np.array([k - 1 for k in resolve_target_modes(problem)])
        omegas = problem.modes.frequencies[idx]
        i, j = problem.ion_pair
        eta = problem.modes.eta
        scale = np.sqrt(eta[i - 1, idx] ** 2 + eta[j - 1, idx] ** 2)
        self.weighted = (
            scale[:, None]
            * np.exp(1j * (ref_phase[None, :] - np.outer(omegas, t)))
            * (w_avg * amplitude(t, sched))[None, :]
        )
        self.basis = phase_basis(sched, t)

    def __call__(self, fm_points):
        """Stacked real and imaginary residuals and their Jacobian at fm_points."""
        terms = self.weighted * np.exp(1j * (fm_points @ self.basis))[None, :]
        averages = terms.sum(axis=1)
        jac = 1j * (terms @ self.basis.T)
        return (
            np.concatenate([averages.real, averages.imag]),
            np.concatenate([jac.real, jac.imag]),
        )


def cost(problem, fm_points):
    """Summed squared time-averaged displacements of the target modes.

    Both addressed ions' Lamb-Dicke couplings weight each mode; the amplitude
    is pinned to the problem's reference (REFERENCE_RABI by default, so
    values are comparable across problems and calibration happens after
    optimization). Evaluated through the order-swapped single integral,
    which agrees with composing integrate_alpha and
    time_averaged_displacement to quadrature accuracy.
    """
    fm = np.asarray(fm_points, dtype=float)
    if fm.shape != (problem.base_schedule.n_oscillations,):
        raise ValueError(
            f"fm_points must hold {problem.base_schedule.n_oscillations} values"
        )
    residuals, _ = _Objective(problem)(fm)
    return float(residuals @ residuals)


def _levenberg_marquardt(objective, x0, budget, callback, eval_offset):
    """Damped Gauss-Newton descent from x0 within `budget` evaluations.

    The damping is scaled by the diagonal of J^T J (Marquardt) and adapted
    from the ratio of actual to predicted decrease (Nielsen). Trial points
    are clipped to +/- FM_BOUND, and a coordinate held there by its gradient
    is left out of the step. Converged once the next clipped step is
    within XTOL of |x|; returns (x, cost, evals, converged).
    """
    evals = 0

    def evaluate(point):
        nonlocal evals
        r, jac = objective(point)
        value = float(r @ r)
        evals += 1
        if callback is not None:
            callback(eval_offset + evals, value, point.copy())
        return r, jac, value

    x = x0.copy()
    r, jac, fx = evaluate(x)
    damping, growth = INITIAL_DAMPING, 2.0
    while True:
        grad = jac.T @ r
        hess = jac.T @ jac
        scale = np.maximum(np.diag(hess), np.finfo(float).tiny)
        # coordinates on the bound whose descent direction points outward stay put
        free = ~(((x >= FM_BOUND) & (grad < 0)) | ((x <= -FM_BOUND) & (grad > 0)))
        delta = np.zeros_like(x)
        delta[free] = np.linalg.solve(
            hess[np.ix_(free, free)] + damping * np.diag(scale[free]), -grad[free]
        )
        trial = np.clip(x + delta, -FM_BOUND, FM_BOUND)
        step = trial - x
        if np.linalg.norm(step) <= XTOL * (np.linalg.norm(x) + XTOL):
            return x, fx, evals, True
        if evals >= budget:
            return x, fx, evals, False
        r_new, jac_new, f_new = evaluate(trial)
        predicted = step @ (damping * scale * step - grad)
        if f_new < fx:
            rho = (fx - f_new) / predicted
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            growth = 2.0
            x, r, jac, fx = trial, r_new, jac_new, f_new
        else:
            damping *= growth
            growth *= 2.0


def optimize(problem, callback=None):
    """Minimize the residual-motion cost over the free FM turning points.

    Runs Levenberg-Marquardt from the flat pattern, plus n_starts - 1 seeded
    jittered restarts, and returns the base schedule with the best turning
    points found (amp_scale untouched). One residual-plus-Jacobian
    evaluation counts as one of max_evals; callback, when given, receives
    (eval_index, cost, fm_points) for every evaluation.

    Raises BudgetExhausted when max_evals runs out before every start
    converges; the exception carries the best point seen.
    """
    objective = _Objective(problem)
    rng = np.random.default_rng(problem.seed)
    n_free = problem.base_schedule.n_oscillations
    starts = [np.zeros(n_free)]
    for _ in range(problem.n_starts - 1):
        jitter = rng.normal(0.0, 2 * np.pi * 1000.0, n_free)
        starts.append(np.clip(jitter, -FM_BOUND, FM_BOUND))

    best_x, best_f = None, np.inf
    used = 0
    all_converged = True
    for x0 in starts:
        x, fx, evals, converged = _levenberg_marquardt(
            objective, x0, problem.max_evals - used, callback, used
        )
        used += evals
        all_converged &= converged
        if fx < best_f:
            best_x, best_f = x, fx
        if used >= problem.max_evals:
            break
    if not all_converged:
        raise BudgetExhausted(
            f"stopped after {used} evaluations at cost {best_f:.3e} without converging",
            best_fm_points=best_x,
            best_cost=best_f,
        )
    return replace(problem.base_schedule, fm_points=best_x)


def calibrate_power(sched, modes, ion_i, ion_j, n_intervals=DEFAULT_BETA_INTERVALS):
    """Peak Rabi frequency in rad/s that makes |beta_ij| = pi/4.

    beta grows exactly as amp_scale^2, so one evaluation at the schedule's
    current amplitude fixes the answer. Raises DegeneratePair when the pair
    is uncoupled at this drive frequency.
    """
    beta_ref = entangling_angle(sched, modes, ion_i, ion_j, n_intervals)
    if abs(beta_ref) < DEGENERATE_BETA:
        raise DegeneratePair(
            f"|beta| = {abs(beta_ref):.2e} rad at the reference amplitude; "
            f"pair ({ion_i}, {ion_j}) is uncoupled at this drive frequency"
        )
    return float(sched.amp_scale * np.sqrt((np.pi / 4.0) / abs(beta_ref)))


def build_gate_report(sched, modes, ion_i, ion_j, *, single_ion=False,
                      alpha_intervals=DEFAULT_ALPHA_INTERVALS,
                      beta_intervals=DEFAULT_BETA_INTERVALS,
                      include_trajectories=True):
    """Calibrate the pair and assemble the full GateReport.

    The error and the stored per-mode trajectories are evaluated at the
    calibrated amplitude; trajectories carry the first ion's coupling.
    """
    from .trajectory import GateReport

    omega_max = calibrate_power(sched, modes, ion_i, ion_j, beta_intervals)
    calibrated = with_amplitude(sched, omega_max)
    beta = entangling_angle(calibrated, modes, ion_i, ion_j, beta_intervals)
    error = motional_error(
        calibrated, modes, ion_i, ion_j,
        both_ions=not single_ion, n_intervals=alpha_intervals,
    )
    trajectories = ()
    if include_trajectories:
        # integrate_alpha per mode, with the schedule sampled once for all modes
        t = np.linspace(0.0, calibrated.gate_time, alpha_intervals + 1)
        omega = amplitude(t, calibrated)
        mu = drive_frequency(t, calibrated)
        trajectories = tuple(
            integrate_sampled(
                omega, mu - modes.frequencies[k], t[1] - t[0],
                eta_ik=modes.eta[ion_i - 1, k], times=t, mode=k + 1,
            )
            for k in range(modes.n_modes)
        )
    return GateReport(
        pair=(ion_i, ion_j),
        beta=float(beta),
        motional_error=float(error),
        omega_max=float(omega_max),
        trajectories=trajectories,
    )
