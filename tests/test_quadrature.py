import numpy as np
import pytest

from ionpulse.quadrature import cumulative_simpson


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
