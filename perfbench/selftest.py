#!/usr/bin/env python3
"""Self-test of the benchmark at toy size (about 30 seconds).

    python3 perfbench/selftest.py

Runs each workload small (12-ion chains for gate_design and chain_scan, a
6-point sweep and one report pair for gate_analysis), untraced and traced,
and checks that every metric BENCHMARK.json names is emitted with its unit
and that the clean runs pass their checks. It then feeds gate_analysis a
schedule at the wrong amplitude and checks that the failure is counted, and
checks that the tracer survives a wrapped name that no longer exists.
"""

import json
import sys

import run  # pins BLAS and knows where the package lives

run.import_package()

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ionpulse import pulse  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TOY_POWER_RANGE_HZ = (30e3, 300e3)  # a 12-ion chain needs less power than 50 ions
TOY = {
    "gate_design": lambda: workloads.GateDesign(
        1, run.WORKDIR, n_ions=12, pairs=((6, 7),), power_range_hz=TOY_POWER_RANGE_HZ),
    "gate_analysis": lambda: workloads.GateAnalysis(1, sweep_stride=8, report_pairs=1),
    "chain_scan": lambda: workloads.ChainScan(1, n_range=range(2, 13)),
}


def expect(ok, message):
    if not ok:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def check_units(metrics, declared, label):
    wrong = [m["name"] for m in declared if metrics.get(m["name"], (None, None))[1] != m["unit"]]
    expect(not wrong and len(metrics) == len(declared),
           f"{label} emits its {len(declared)} metrics with their units (wrong or missing: {wrong})")


def test_workloads():
    end_to_end = [m for m in SPEC["end_to_end"] if m["name"] != "setup_s"]  # set-up is timed by run.py
    for name, make in TOY.items():
        metrics, outcomes, _, _ = run.measure(make, 0.0, trace=False)
        check_units(metrics, end_to_end, f"{name} untraced")
        expect(outcomes.failed == 0, f"{name} passes its checks ({outcomes.failures})")
        expect(all(v[0] > 0 for v in metrics.values()), f"{name} end-to-end metrics are non-zero")
        metrics, outcomes, _, missing = run.measure(make, 0.0, trace=True)
        check_units(metrics, SPEC["per_layer"], f"{name} traced")
        expect(outcomes.failed == 0 and not missing, f"{name} traced run is clean")


def test_wrong_amplitude_is_counted():
    workload = TOY["gate_analysis"]()
    sched = workload.schedules["A"]
    workload.schedules["A"] = pulse.with_amplitude(sched, 1.1 * sched.amp_scale)
    outcomes = workloads.Outcomes()
    workload.round(outcomes)
    expect(outcomes.failed >= 1, f"a schedule at 1.1x amplitude fails {outcomes.failed} operation(s)")
    expect(any("sweep" in f for f in outcomes.failures), "the failure is the sweep's reference check")


def test_tracer_tolerates_missing_names():
    with tracer.Tracer() as t:
        t.wrap("ionpulse.optimizer.no_such_function", "gone")
        t.wrap("ionpulse.no_such_module.function", "gone")
        t.wrap("ionpulse.quadrature.simpson_weights", "present", count=lambda *a: {}["no_such_arg"])
        from ionpulse import quadrature
        quadrature.simpson_weights(5, 0.1)
    expect(t.stats("gone").calls == 0, "a missing name records zero calls")
    expect(t.missing == ["ionpulse.optimizer.no_such_function", "ionpulse.no_such_module.function"],
           "missing names are listed")
    expect(t.stats("present").calls == 1 and t.uncounted == ["ionpulse.quadrature.simpson_weights"],
           "a counter that cannot read the call is listed, the call still runs")
    expect(not hasattr(quadrature.simpson_weights, "__wrapped__"), "closing the tracer restores the names")
    expect([n for n, _, _ in layers.PER_LAYER] == [m["name"] for m in SPEC["per_layer"]],
           "layers.PER_LAYER matches BENCHMARK.json")


if __name__ == "__main__":
    run.WORKDIR.mkdir(exist_ok=True)
    try:
        test_tracer_tolerates_missing_names()
        test_wrong_amplitude_is_counted()
        test_workloads()
    finally:
        try:
            run.WORKDIR.rmdir()
        except OSError:
            pass
    print("selftest passed")
    sys.exit(0)
