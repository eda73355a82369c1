"""Per-layer metrics of a traced round.

LAYER_NAMES maps each layer to the names it wraps: the module attribute
through which ionpulse (or the benchmark) looks the function up. Counters
derived from call arguments or results are added by the hooks below.
PER_LAYER lists every metric with its unit and direction, in the order
BENCHMARK.json gives them.
"""

from tracer import Tracer
from workloads import CLI_STAGES

LAYER_NAMES = {
    "crystal.solve": ("ionpulse.cli.solve_equilibrium", "ionpulse.crystal.solve_equilibrium"),
    "modes.solve": ("ionpulse.cli.solve_modes", "ionpulse.modes.solve_modes"),
    "pulse.drive_frequency": ("ionpulse.optimizer.drive_frequency", "ionpulse.trajectory.drive_frequency"),
    "quadrature.cumulative_simpson": ("ionpulse.optimizer.cumulative_simpson",
                                      "ionpulse.trajectory.cumulative_simpson"),
    "trajectory.motional_error": ("ionpulse.analysis.motional_error", "ionpulse.optimizer.motional_error"),
    "trajectory.entangling_angle": ("ionpulse.optimizer.entangling_angle",),
    "trajectory.integrate_alpha": ("ionpulse.optimizer.integrate_alpha",),
    "trajectory.mode_angle_integrals": ("ionpulse.analysis.mode_angle_integrals",
                                        "ionpulse.trajectory.mode_angle_integrals"),
    "trajectory.mode_displacement_integrals": ("ionpulse.trajectory.mode_displacement_integrals",),
    "optimizer.optimize": ("ionpulse.cli.optimize",),
    "optimizer.calibrate": ("ionpulse.optimizer.calibrate_power",),
    "optimizer.gate_report": ("ionpulse.cli.build_gate_report", "ionpulse.optimizer.build_gate_report"),
    "analysis.sweep": ("ionpulse.cli.offset_sweep", "ionpulse.analysis.offset_sweep"),
    "analysis.power_map": ("ionpulse.cli.power_map", "ionpulse.analysis.power_map"),
}


def _count_solve(stats, args, result, error, span):
    if error is not None:
        stats.add("refused", 1)
        stats.add("refuse_s", span.duration)
    else:
        stats.add("iterations", result.iterations)


def _count_displacement(stats, args, result, error, span):
    stats.add("mode_samples", len(args["omega_ks"]) * (args["n_intervals"] + 1))


def _count_sweep(stats, args, result, error, span):
    offsets = args["offsets"]
    stats.add("points", 20 if offsets is None else len(offsets))
    if result is not None and result.fitted_slope is not None:
        stats.counters.setdefault("slopes", []).append(result.fitted_slope)


def _count_power_map(stats, args, result, error, span):
    pairs = args["pairs"]
    n = args["modes"].n_modes
    stats.add("pairs", n * (n - 1) // 2 if pairs is None else len(pairs))
    if result is not None:
        stats.add("degenerate", len(result.degenerate_pairs))


COUNTERS = {
    "crystal.solve": _count_solve,
    "trajectory.mode_displacement_integrals": _count_displacement,
    "analysis.sweep": _count_sweep,
    "analysis.power_map": _count_power_map,
}


def install():
    """A Tracer with every layer name wrapped."""
    tracer = Tracer()
    for layer, names in LAYER_NAMES.items():
        for name in names:
            tracer.wrap(name, layer, COUNTERS.get(layer))
    return tracer


S, COUNT = "s", "count"
PER_LAYER = [
    ("crystal.solve_s", S, "lower"),
    ("crystal.solves", COUNT, "lower"),
    ("crystal.iterations", COUNT, "lower"),
    ("crystal.refused", COUNT, "lower"),
    ("crystal.refuse_s", S, "lower"),
    ("modes.solve_s", S, "lower"),
    ("modes.solves", COUNT, "lower"),
    ("pulse.drive_frequency_s", S, "lower"),
    ("pulse.drive_frequency_calls", COUNT, "lower"),
    ("quadrature.cumulative_simpson_s", S, "lower"),
    ("quadrature.cumulative_simpson_calls", COUNT, "lower"),
    ("trajectory.motional_error_s", S, "lower"),
    ("trajectory.motional_error_calls", COUNT, "lower"),
    ("trajectory.entangling_angle_s", S, "lower"),
    ("trajectory.entangling_angle_calls", COUNT, "lower"),
    ("trajectory.integrate_alpha_s", S, "lower"),
    ("trajectory.integrate_alpha_calls", COUNT, "lower"),
    ("trajectory.mode_angle_integrals_s", S, "lower"),
    ("trajectory.mode_angle_integrals_calls", COUNT, "lower"),
    ("trajectory.mode_displacement_integrals_s", S, "lower"),
    ("trajectory.mode_displacement_integrals_calls", COUNT, "lower"),
    ("trajectory.displacement_mode_samples", COUNT, "lower"),
    ("trajectory.displacement_rate", "samples/s", "higher"),
    ("optimizer.optimize_s", S, "lower"),
    ("optimizer.evals", COUNT, "lower"),
    ("optimizer.s_per_eval", S, "lower"),
    ("optimizer.improving_eval_ratio", "ratio", "higher"),
    ("optimizer.final_cost", "cost", "lower"),
    ("optimizer.calibrate_s", S, "lower"),
    ("optimizer.calibrate_calls", COUNT, "lower"),
    ("optimizer.gate_report_s", S, "lower"),
    ("optimizer.gate_report_calls", COUNT, "lower"),
    ("analysis.sweep_s", S, "lower"),
    ("analysis.sweep_points", COUNT, "lower"),
    ("analysis.sweep_s_per_point", S, "lower"),
    ("analysis.sweep_slope", "slope", "higher"),
    ("analysis.power_map_s", S, "lower"),
    ("analysis.power_map_pairs", COUNT, "lower"),
    ("analysis.pairs_per_s", "1/s", "higher"),
    ("analysis.degenerate_pairs", COUNT, "lower"),
    ("cli.crystal_s", S, "lower"),
    ("cli.modes_s", S, "lower"),
    ("cli.optimize_s", S, "lower"),
    ("cli.report_s", S, "lower"),
    ("cli.sweep_s", S, "lower"),
    ("cli.powermap_s", S, "lower"),
    ("cli.overhead_s", S, "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("cli.files_written", COUNT, "lower"),
    ("trace.wall_s", S, "lower"),
    ("trace.untraced_wall_s", S, "lower"),
    ("trace.overhead_s", S, "lower"),
    ("trace.missing_names", COUNT, "lower"),
]

# computed from call arguments, not measured inside the package
COMPUTED = ("trajectory.displacement_mode_samples", "trajectory.displacement_rate")

# layers reported as <layer>_s and <layer>_calls
CALLED = ("pulse.drive_frequency", "quadrature.cumulative_simpson", "trajectory.motional_error",
          "trajectory.entangling_angle", "trajectory.integrate_alpha", "trajectory.mode_angle_integrals",
          "trajectory.mode_displacement_integrals", "optimizer.calibrate", "optimizer.gate_report")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(tracer, facts, traced_s, untraced_s):
    """Every PER_LAYER value for one traced round, by metric name."""
    stats = tracer.stats

    def counter(layer, name):
        return stats(layer).counters.get(name, 0)

    v = {}
    for layer in CALLED:
        v[f"{layer}_s"], v[f"{layer}_calls"] = stats(layer).seconds, stats(layer).calls
    for layer in ("crystal.solve", "modes.solve"):
        v[f"{layer}_s"], v[f"{layer}s"] = stats(layer).seconds, stats(layer).calls
    for layer in ("optimizer.optimize", "analysis.sweep", "analysis.power_map",
                  *(f"cli.{stage}" for stage in CLI_STAGES)):
        v[f"{layer}_s"] = stats(layer).seconds

    for name in ("iterations", "refused", "refuse_s"):
        v[f"crystal.{name}"] = counter("crystal.solve", name)
    samples = counter("trajectory.mode_displacement_integrals", "mode_samples")
    v["trajectory.displacement_mode_samples"] = samples
    v["trajectory.displacement_rate"] = _ratio(samples, v["trajectory.mode_displacement_integrals_s"])

    costs = facts.get("trace_costs", [])
    improving, best = 0, float("inf")
    for cost in costs:
        if cost < best:
            improving, best = improving + 1, cost
    v["optimizer.evals"] = len(costs)
    v["optimizer.s_per_eval"] = _ratio(v["optimizer.optimize_s"], len(costs))
    v["optimizer.improving_eval_ratio"] = _ratio(improving, len(costs))
    v["optimizer.final_cost"] = best if costs else 0.0

    points = counter("analysis.sweep", "points")
    v["analysis.sweep_points"] = points
    v["analysis.sweep_s_per_point"] = _ratio(v["analysis.sweep_s"], points)
    v["analysis.sweep_slope"] = min(counter("analysis.sweep", "slopes") or [0.0])
    pairs = counter("analysis.power_map", "pairs")
    v["analysis.power_map_pairs"] = pairs
    v["analysis.pairs_per_s"] = _ratio(pairs, v["analysis.power_map_s"])
    v["analysis.degenerate_pairs"] = counter("analysis.power_map", "degenerate")

    # a stage's own time: its span minus the library spans directly inside it
    v["cli.overhead_s"] = sum(span.duration - span.child_s for span in tracer.spans
                              if span.layer.startswith("cli."))
    v["cli.bytes_written"] = facts.get("bytes_written", 0)
    v["cli.files_written"] = facts.get("files_written", 0)

    v["trace.wall_s"] = traced_s
    v["trace.untraced_wall_s"] = untraced_s
    v["trace.overhead_s"] = traced_s - untraced_s
    v["trace.missing_names"] = len(tracer.missing) + len(tracer.uncounted)
    return v
