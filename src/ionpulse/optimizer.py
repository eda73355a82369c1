"""FM pattern optimization and drive-power calibration.

The optimizer adjusts the free turning points of the FM pattern to minimize
the summed squared time-averaged displacements of the modes nearest the
drive frequency, which closes their trajectories and removes the first-order
sensitivity to constant frequency offsets. Runs are deterministic for a
fixed seed.

Swapping the order of integration turns a mode's time-averaged
displacement into one integral of (1 - t/tau) Omega e^{i theta_k}. The
objective takes it on Gauss-Legendre panels (GAUSS_ORDER nodes each) between
the drive's breakpoints (pulse.breakpoints), where the drive is analytic;
shape A's first and last panels are graded, t = h s^2, to smooth its t^1.5
envelope ends. The FM phase there is the closed form fm_points @ B on the
phase basis B (pulse.phase_basis), the phase every report, sweep and power
map integrates on its grid, and the target modes' weighted phasors
e^{i (mu_ref - omega_k) t} form one nodes x modes matrix, both built once
per rule. An evaluation is one exp over the nodes, the n_oscillations
basis drives, and one (1 + n_oscillations) x nodes @ nodes x modes product
for the displacements and their exact Jacobian; Levenberg-Marquardt on the
stacked real and imaginary parts converges in tens to hundreds of
evaluations per start.

The node count follows from the target modes' largest detuning phase
|mu_ref - omega_k| tau: no panel spans more than PANEL_RADIANS of it, and a
rule of more than MAX_RULE_NODES nodes is refused (ValueError) before it is
built. At the end of each start the cost is compared with a rule of twice the
sub-panels; if they differ by more than RULE_TOL of the cost, the finer rule
takes over and the start continues from where it stopped.

Power calibration exploits that the entangling angle is exactly quadratic in
the peak Rabi frequency: the amplitude that yields |beta| = pi/4 follows from
a single reference evaluation (calibrated_amplitudes, which the power map
shares). optimize returns its run as one OptimizationResult, whose schedule
is in its saved form (pulse.saved_form), so a report of it equals a report
of its file.
"""

from dataclasses import dataclass, replace

import numpy as np

from .pulse import (
    FM_POINT_BOUND,
    PulseSchedule,
    ShapeA,
    amplitude,
    breakpoints,
    phase_basis,
    saved_form,
    with_amplitude,
)
from .quadrature import gauss_legendre_panels
from .trajectory import (
    DEFAULT_ALPHA_INTERVALS,
    DEFAULT_BETA_INTERVALS,
    DEFAULT_TRAJECTORY_SAMPLES,
    GateReport,
    entangling_angle,
    mode_errors,
    mode_trajectories,
    motional_error,  # not called here; re-exported for callers that look it up on this module
)

REFERENCE_RABI = 2 * np.pi * 100e3  # rad/s, fixed amplitude used inside the cost
XTOL = 1e-8  # a start has converged once |step| <= XTOL * (|x| + XTOL), as in MINPACK
INITIAL_DAMPING = 1e-3  # relative to the diagonal of J^T J
DEGENERATE_BETA = 1e-12  # rad, below this the pair is treated as uncoupled
GAUSS_ORDER = 12  # Gauss-Legendre nodes per panel of the objective's rule
PANEL_RADIANS = 8.0  # a panel spans at most this much of the fastest target mode's phase
RULE_TOL = 1e-6  # a start's cost and the doubled rule's may differ by this much of the cost
COST_FLOOR = 1e-20  # the rule gap is taken relative to max(cost, COST_FLOOR): below it is rounding
# A rule holds nodes x (modes complex phasors + n_oscillations basis rows + 1 + n_oscillations
# complex drives): at this cap, with 10 target modes and 8 oscillations, 37 MB
MAX_RULE_NODES = 100_000


class BudgetExhausted(Exception):
    """The evaluation budget ran out before every start converged; `result` is the
    run's OptimizationResult at the best point seen."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class DegeneratePair(Exception):
    """|beta| at the reference amplitude is numerically zero for this pair."""


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """One optimize run.

    schedule is the base schedule at the best turning points found, in its saved
    form (pulse.saved_form); costs holds every evaluation's cost, in order.
    final_cost is the schedule's cost on the final panel rule of rule_nodes
    nodes, and rule_gap that cost's relative gap to the doubled rule.
    """

    schedule: PulseSchedule
    costs: tuple
    final_cost: float
    rule_nodes: int
    rule_gap: float


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

    def __post_init__(self):
        n = self.modes.n_modes
        # refuses 2.5, 0 and a pair of one ion, naming them
        [pair] = self.modes.pair_rows([self.ion_pair])
        object.__setattr__(self, "ion_pair", tuple((pair + 1).tolist()))
        if self.target_modes is not None:
            if not len(self.target_modes):
                raise ValueError(f"target_modes must be non-empty indices in 1..{n}")
            rows = self.modes.rows(self.target_modes, "mode")  # refuses 2.5 and 0 alike
            targets = tuple((rows + 1).tolist())
            repeated = [k for k in targets if targets.count(k) > 1]
            if repeated:  # the cost would count the mode twice
                raise ValueError(f"target mode {repeated[0]} is given twice")
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
    return float(modes.frequencies[modes.rows(mode, "mode")] + offset)


def resolve_target_modes(problem):
    """The problem's target modes, defaulting to the 10 nearest the drive."""
    if problem.target_modes is not None:
        return problem.target_modes
    count = min(10, problem.modes.n_modes)
    return nearest_modes(problem.modes, problem.base_schedule.mu_ref, count)


class _Objective:
    """Target-mode residuals and their exact Jacobian on one Gauss-Legendre panel rule.

    The interval between neighbouring breakpoints i holds sub_panels[i]
    panels; None takes the fewest that keep each panel within PANEL_RADIANS
    of the fastest target mode's phase. With the weights w of that rule,
    phasors[n, k] = s_k w_n (1 - t_n/tau) Omega(t_n) e^{i delta_k t_n}, with
    delta_k = mu_ref - omega_k and s_k = sqrt(eta_i^2 + eta_j^2), so the drive
    e^{i x @ B} gives the weighted time-averaged displacements A_k and the
    drives i B_j e^{i x @ B} give dA_k/dx_j. The 1 + n_oscillations drives
    share one buffer and meet the phasors in one product; the cost is
    sum |A_k|^2.
    """

    def __init__(self, problem, sub_panels=None):
        sched = with_amplitude(problem.base_schedule, REFERENCE_RABI)
        idx = np.array(resolve_target_modes(problem)) - 1
        detunings = sched.mu_ref - problem.modes.frequencies[idx]
        edges = breakpoints(sched)
        fastest = np.abs(detunings).max()
        if sub_panels is None:
            sub_panels = np.maximum(np.ceil(np.diff(edges) * fastest / PANEL_RADIANS), 1)
        nodes = GAUSS_ORDER * np.sum(sub_panels, dtype=float)  # a float: no int overflow
        if not nodes <= MAX_RULE_NODES:
            raise ValueError(
                f"the optimizer's panel rule would take {nodes:.4g} nodes, above its cap of "
                f"{MAX_RULE_NODES}: the fastest target mode turns through |delta| tau = "
                f"{fastest * sched.gate_time:.3g} rad, which [trap] omega_x_hz, "
                "[pulse] mu_offset_hz and [pulse] gate_time_s set"
            )
        self.problem, self.sub_panels = problem, sub_panels.astype(int)
        t, weighted = gauss_legendre_panels(
            edges, self.sub_panels, GAUSS_ORDER, graded_ends=isinstance(sched.amp_shape, ShapeA)
        )
        self.basis = phase_basis(sched, t)
        weighted *= (1.0 - t / sched.gate_time) * amplitude(t, sched)
        i, j = problem.ion_pair
        eta = problem.modes.eta
        scale = np.sqrt(eta[i - 1, idx] ** 2 + eta[j - 1, idx] ** 2)
        self.phasors = np.exp(1j * np.outer(t, detunings))
        self.phasors *= weighted[:, None] * scale
        self.drives = np.empty((1 + len(self.basis), len(t)), dtype=complex)

    @property
    def nodes(self):
        return self.basis.shape[1]

    def refined(self):
        """The objective on the rule with twice the sub-panels."""
        return _Objective(self.problem, 2 * self.sub_panels)

    def cost(self, fm_points):
        """sum |A_k|^2 at fm_points, without the Jacobian."""
        displacements = np.exp(1j * (fm_points @ self.basis)) @ self.phasors
        return float(np.vdot(displacements, displacements).real)

    def __call__(self, fm_points):
        """Stacked real and imaginary residuals and their Jacobian at fm_points."""
        head, rest = self.drives[0], self.drives[1:]
        np.multiply(1j, fm_points @ self.basis, out=head)
        np.exp(head, out=head)
        np.multiply(self.basis, head, out=rest)  # the Jacobian drives without their factor i
        both = self.drives @ self.phasors
        residual, grad = both[0], both[1:].T  # dA/dx = i grad
        return (
            np.concatenate([residual.real, residual.imag]),
            np.concatenate([-grad.imag, grad.real]),
        )


def cost(problem, fm_points):
    """Summed squared time-averaged displacements of the target modes.

    Both addressed ions' Lamb-Dicke couplings weight each mode; the amplitude
    is pinned to REFERENCE_RABI, so values are comparable across problems
    and calibration happens after optimization. Evaluated through the
    order-swapped single integral on the objective's panel rule, doubled
    until the doubling moves the cost by at most RULE_TOL of it; it agrees
    with time_averaged_displacement(*integrate_alpha(...)) summed over the
    modes and ions to quadrature accuracy.
    """
    fm = np.asarray(fm_points, dtype=float)
    if fm.shape != (problem.base_schedule.n_oscillations,):
        raise ValueError(
            f"fm_points must hold {problem.base_schedule.n_oscillations} values"
        )
    objective = _Objective(problem)
    value = objective.cost(fm)
    while True:
        objective = objective.refined()
        finer = objective.cost(fm)
        if _rule_gap(value, finer) <= RULE_TOL:
            return value
        value = finer


def _rule_gap(value, finer):
    """How far the doubled rule's cost `finer` is from `value`, relative to the cost."""
    return abs(finer - value) / max(value, COST_FLOOR)


def _levenberg_marquardt(objective, x0, costs, max_evals):
    """Damped Gauss-Newton descent from x0, appending each evaluation's cost to `costs`.

    The damping is scaled by the diagonal of J^T J (Marquardt) and adapted
    from the ratio of actual to predicted decrease (Nielsen). Trial points
    are clipped to the schedule's bound +/- FM_POINT_BOUND, and a coordinate
    held there by its gradient is left out of the step. Converged once the
    next clipped step is within XTOL of |x|; stops unconverged once `costs`
    holds max_evals. Returns (x, cost, converged).
    """

    def evaluate(point):
        r, jac = objective(point)
        costs.append(float(r @ r))
        return r, jac, costs[-1]

    x = x0.copy()
    r, jac, fx = evaluate(x)
    damping, growth = INITIAL_DAMPING, 2.0
    while True:
        grad = jac.T @ r
        hess = jac.T @ jac
        scale = np.maximum(np.diag(hess), np.finfo(float).tiny)
        # coordinates on the bound whose descent direction points outward stay put
        free = ~(((x >= FM_POINT_BOUND) & (grad < 0)) | ((x <= -FM_POINT_BOUND) & (grad > 0)))
        delta = np.zeros_like(x)
        delta[free] = np.linalg.solve(
            hess[np.ix_(free, free)] + damping * np.diag(scale[free]), -grad[free]
        )
        trial = np.clip(x + delta, -FM_POINT_BOUND, FM_POINT_BOUND)
        step = trial - x
        if np.linalg.norm(step) <= XTOL * (np.linalg.norm(x) + XTOL):
            return x, fx, True
        if len(costs) >= max_evals:
            return x, fx, False
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


def optimize(problem):
    """Minimize the residual-motion cost over the free FM turning points.

    Runs Levenberg-Marquardt from the flat pattern, plus n_starts - 1 seeded
    jittered restarts, and returns the run as an OptimizationResult. Its
    schedule is in the saved form, so an analysis of it and one of its saved
    file agree bit for bit. One residual-plus-Jacobian evaluation counts as
    one of max_evals.
    Each start ends with the check against the doubled rule (see the module
    docstring), which refines the rule and continues the start when it fails;
    the check's evaluation counts against nothing. When a start refines the
    rule, the best point of the earlier starts is re-costed on it, so starts
    are compared on one rule.

    Raises BudgetExhausted, carrying the result at the best point seen, when
    max_evals runs out before every start has converged and passed its rule
    check.
    """
    objective = _Objective(problem)
    finer = objective.refined()
    rng = np.random.default_rng(problem.seed)
    n_free = problem.base_schedule.n_oscillations
    starts = [np.zeros(n_free)]
    for _ in range(problem.n_starts - 1):
        jitter = rng.normal(0.0, 2 * np.pi * 1000.0, n_free)
        starts.append(np.clip(jitter, -FM_POINT_BOUND, FM_POINT_BOUND))

    best_x, best_f = None, np.inf
    costs = []
    all_converged = True
    for x in starts:
        while True:
            x, fx, converged = _levenberg_marquardt(objective, x, costs, problem.max_evals)
            refine = _rule_gap(fx, finer.cost(x)) > RULE_TOL
            if not (converged and refine and len(costs) < problem.max_evals):
                break
            objective, finer = finer, finer.refined()
            if best_x is not None:
                best_f = objective.cost(best_x)
        # a budget spent at a failed rule check leaves the start unconverged
        all_converged &= converged and not refine
        if fx < best_f:
            best_x, best_f = x, fx
        if len(costs) >= problem.max_evals:
            break
    result = OptimizationResult(
        schedule=saved_form(replace(problem.base_schedule, fm_points=best_x)),
        costs=tuple(costs),
        final_cost=best_f,
        rule_nodes=objective.nodes,
        rule_gap=_rule_gap(best_f, finer.cost(best_x)),
    )
    if not all_converged:
        raise BudgetExhausted(
            f"stopped after {len(costs)} evaluations at cost {best_f:.3e} without converging",
            result,
        )
    return result


def calibrate_power(sched, modes, ion_i, ion_j, n_intervals=DEFAULT_BETA_INTERVALS):
    """Peak Rabi frequency in rad/s that makes |beta_ij| = pi/4.

    beta grows exactly as amp_scale^2, so one evaluation at the schedule's
    current amplitude fixes the answer. Raises DegeneratePair when the pair
    is uncoupled at this drive frequency.
    """
    beta_ref = entangling_angle(sched, modes, ion_i, ion_j, n_intervals)
    return _calibrated_amplitude(sched, beta_ref, ion_i, ion_j)


def calibrated_amplitudes(amp_scale, betas):
    """The peak Rabi frequencies that make |beta| = pi/4, from the angles betas (rad, an
    array) evaluated at amp_scale, and the mask of the degenerate ones.

    beta grows exactly as amp_scale^2, so the answer is amp_scale sqrt((pi/4) /
    |beta|). A pair with |beta| < DEGENERATE_BETA is uncoupled: it is masked, and
    its frequency is NaN.
    """
    abs_beta = np.abs(betas)
    degenerate = abs_beta < DEGENERATE_BETA
    omega_max = np.full(abs_beta.shape, np.nan)
    omega_max[~degenerate] = amp_scale * np.sqrt((np.pi / 4.0) / abs_beta[~degenerate])
    return omega_max, degenerate


def _calibrated_amplitude(sched, beta_ref, ion_i, ion_j):
    """calibrate_power from the angle beta_ref already evaluated at sched.amp_scale."""
    [omega_max], [degenerate] = calibrated_amplitudes(sched.amp_scale, np.array([beta_ref]))
    if degenerate:
        raise DegeneratePair(
            f"|beta| = {abs(beta_ref):.2e} rad at the reference amplitude; "
            f"pair ({ion_i}, {ion_j}) is uncoupled at this drive frequency"
        )
    return float(omega_max)


def build_gate_report(sched, modes, ion_i, ion_j, *, alpha_intervals=DEFAULT_ALPHA_INTERVALS,
                      beta_intervals=DEFAULT_BETA_INTERVALS, trajectory_modes=None,
                      trajectory_samples=DEFAULT_TRAJECTORY_SAMPLES):
    """Calibrate the pair and assemble the full GateReport.

    The error, its per-mode terms (the mode_errors that motional_error sums)
    and the trajectories are evaluated at the calibrated amplitude;
    trajectories carry the first ion's coupling. They cover the 1-based
    trajectory_modes in the given order, or every mode when it is None; each
    mode is integrated on its own, so a selection holds the same rows as the
    full set, and an empty selection traces none and runs no trajectory
    kernel. Each keeps trajectory_samples rows of its running integral on the
    alpha_intervals grid (mode_trajectories' samples), as one block.
    The angle, the errors and the trajectories all read the trajectory
    module's memo: the unit drive on each grid is built once per FM pattern,
    every mode's detuning tables once per mu_ref. Trajectories of every mode
    read the tables the errors used; a selection of modes builds its own.
    """
    beta_ref = entangling_angle(sched, modes, ion_i, ion_j, beta_intervals)
    omega_max = _calibrated_amplitude(sched, beta_ref, ion_i, ion_j)
    calibrated = with_amplitude(sched, omega_max)
    beta = beta_ref * (omega_max / sched.amp_scale) ** 2  # beta grows as amp_scale^2
    per_mode = mode_errors(calibrated, modes, ion_i, ion_j, n_intervals=alpha_intervals)[:, 0]
    if trajectory_modes is None:
        trajectory_modes = range(1, modes.n_modes + 1)
    idx = modes.rows(trajectory_modes, "mode")
    times, alpha = np.empty(0), np.empty((0, 0), dtype=complex)
    if len(idx):
        times, alpha = mode_trajectories(calibrated, modes.frequencies[idx], modes.eta[ion_i - 1, idx],
                                         alpha_intervals, trajectory_samples)
    traced = (idx + 1).astype(np.int64)
    for arr in (traced, times, alpha):
        arr.setflags(write=False)
    return GateReport(
        pair=(ion_i, ion_j),
        beta=float(beta),
        motional_error=float(per_mode.sum()),
        omega_max=float(omega_max),
        trajectory_modes=traced,
        trajectory_times=times,
        trajectories=alpha,
        mode_errors=tuple(per_mode.tolist()),
    )
