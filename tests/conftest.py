"""Shared fixtures: the default chain, its modes, and optimized schedules.

The expensive artifacts (equilibrium, eigenmodes, the two optimized FM
patterns) are session-scoped so the whole suite pays for them once. Wall
times of the expensive stages are recorded in the `timings` fixture for the
acceptance suite's runtime checks.
"""

import time
import tracemalloc

import numpy as np
import pytest

from ionpulse import (
    OptimizationProblem,
    PulseSchedule,
    ShapeA,
    ShapeB,
    TrapConfig,
    build_transverse_matrix,
    default_mu_ref,
    optimize,
    solve_equilibrium,
)
from ionpulse import trajectory
from ionpulse.modes import solve_modes
from ionpulse.optimizer import REFERENCE_RABI

DEFAULT_PAIR = (25, 26)


def traced_peak(fn):
    """fn's result and the peak bytes that tracemalloc saw while it ran."""
    fn()  # a first call fills lazy caches, which are not the call's own memory
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def clear_memo():
    """Drop every value the trajectory kernels' memo holds."""
    trajectory._memo.clear()


def cold(fn):
    """fn, called with the kernels' memo cleared, so it builds its grid inputs itself."""
    def call():
        clear_memo()
        return fn()
    return call


@pytest.fixture(scope="session")
def timings():
    return {}


@pytest.fixture(scope="session")
def cfg():
    return TrapConfig()


@pytest.fixture(scope="session")
def chain(cfg, timings):
    start = time.perf_counter()
    crystal = solve_equilibrium(cfg)
    timings["equilibrium"] = time.perf_counter() - start
    return crystal


@pytest.fixture(scope="session")
def mode_data(chain, cfg, timings):
    start = time.perf_counter()
    modes = solve_modes(build_transverse_matrix(chain, cfg), cfg)
    timings["modes"] = time.perf_counter() - start
    return modes


def make_base_schedule(mode_data, shape):
    return PulseSchedule(
        gate_time=500e-6,
        amp_shape=shape,
        amp_scale=REFERENCE_RABI,
        mu_ref=default_mu_ref(mode_data),
        fm_points=np.zeros(8),
        n_oscillations=8,
    )


@pytest.fixture(scope="session")
def base_schedule_a(mode_data):
    return make_base_schedule(mode_data, ShapeA())


@pytest.fixture(scope="session")
def base_schedule_b(mode_data):
    return make_base_schedule(mode_data, ShapeB())


def make_problem(mode_data, schedule, seed=1):
    return OptimizationProblem(
        base_schedule=schedule,
        modes=mode_data,
        ion_pair=DEFAULT_PAIR,
        seed=seed,
    )


@pytest.fixture(scope="session")
def optimized_a(mode_data, base_schedule_a, timings):
    start = time.perf_counter()
    schedule = optimize(make_problem(mode_data, base_schedule_a)).schedule
    timings["optimize_a"] = time.perf_counter() - start
    return schedule


@pytest.fixture(scope="session")
def optimized_b(mode_data, base_schedule_b, timings):
    start = time.perf_counter()
    schedule = optimize(make_problem(mode_data, base_schedule_b)).schedule
    timings["optimize_b"] = time.perf_counter() - start
    return schedule
