import math

import numpy as np
import pytest

from ionpulse.quadrature import _gauss_rule, cumulative_simpson, gauss_legendre_panels


def closed_form_cumulative_simpson(y, dx):
    """The running Simpson integral written as one expression per interval."""
    seg = np.concatenate([
        (dx / 12.0) * (5.0 * y[..., :1] + 8.0 * y[..., 1:2] - y[..., 2:3]),
        (dx / 12.0) * (-y[..., :-2] + 8.0 * y[..., 1:-1] + 5.0 * y[..., 2:]),
    ], axis=-1)
    return np.concatenate([np.zeros_like(seg[..., :1]), np.cumsum(seg, axis=-1)], axis=-1)


@pytest.mark.parametrize("complex_input", [False, True])
def test_cumulative_simpson_matches_closed_form(complex_input):
    rng = np.random.default_rng(7)
    y = rng.normal(size=(4, 2001))
    if complex_input:
        y = y + 1j * rng.normal(size=y.shape)
    for dx in (2.5e-7, 0.3):
        got = cumulative_simpson(y, dx)
        expected = closed_form_cumulative_simpson(y, dx)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


def test_gauss_legendre_panels_exact_for_their_degree():
    # 4 nodes a panel integrate degree 7 exactly, on panels of any width, but not 8
    edges = np.array([-0.5, 0.2, 0.25, 1.0])
    t, w = gauss_legendre_panels(edges, [3, 1, 2], 4)
    assert len(t) == 6 * 4 and np.all(np.diff(t) > 0)
    assert w @ t**7 == pytest.approx((1.0 - 0.5**8) / 8.0, rel=1e-14)
    t, w = gauss_legendre_panels(np.array([0.0, 1.0]), [1], 4)
    assert abs(w @ t**8 - 1.0 / 9.0) > 1e-6


def test_graded_end_panels_smooth_a_t_to_the_1_5_end():
    # int_0^1 sin(pi t)^1.5 dt: 14 intervals of one 12-node panel were 4.2e-9 off
    # without grading and 1.1e-16 with t = h s^2 in the two end panels (x86-64)
    exact = math.gamma(1.25) * math.sqrt(math.pi) / (math.pi * math.gamma(1.75))
    edges = np.linspace(0.0, 1.0, 15)
    errors = []
    for graded in (False, True):
        t, w = gauss_legendre_panels(edges, [1] * 14, 12, graded_ends=graded)
        assert np.all(np.diff(t) > 0) and 0.0 < t[0] and t[-1] < 1.0
        errors.append(abs(w @ np.sin(np.pi * t) ** 1.5 - exact))
    assert errors[0] > 1e-9
    assert errors[1] <= 1e-14


def test_gauss_rule_is_built_once_with_leggauss_bits():
    # every _Objective build asks for the 12-node rule: it is computed once per
    # process and kept read-only, so no caller can change what the next one reads
    s, w = _gauss_rule(12)
    again = _gauss_rule(12)
    assert again[0] is s and again[1] is w
    assert not s.flags.writeable and not w.flags.writeable
    nodes, weights = np.polynomial.legendre.leggauss(12)
    np.testing.assert_array_equal(s, 0.5 * (nodes + 1.0))
    np.testing.assert_array_equal(w, 0.5 * weights)
    t, tw = gauss_legendre_panels(np.array([0.0, 1.0]), [1], 12)
    np.testing.assert_array_equal(t, s)
    np.testing.assert_array_equal(tw, w)
