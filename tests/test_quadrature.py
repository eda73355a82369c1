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


@pytest.mark.parametrize("complex_input", [False, True])
def test_cumulative_simpson_into_out_matches_fresh_call(complex_input):
    rng = np.random.default_rng(11)
    y = rng.normal(size=(3, 2001))
    if complex_input:
        y = y + 1j * rng.normal(size=y.shape)
    out = np.full(y.shape, np.nan, dtype=y.dtype)
    for overwrite_y in (False, True):
        expected = cumulative_simpson(y.copy(), 0.3)
        got = cumulative_simpson(y.copy(), 0.3, overwrite_y=overwrite_y, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expected)


def test_cumulative_simpson_refuses_a_misshapen_out():
    y = np.ones(101, dtype=complex)
    for out in (np.empty(100, dtype=complex), np.empty((1, 101), dtype=complex), np.empty(101)):
        with pytest.raises(ValueError, match="out must be"):
            cumulative_simpson(y, 0.1, out=out)


def test_cumulative_simpson_refuses_an_out_sharing_memory_with_y():
    buffer = np.ones(202)
    for y, out in ((buffer[:101], buffer[:101]), (buffer[:101], buffer[50:151])):
        with pytest.raises(ValueError, match="share memory"):
            cumulative_simpson(y, 0.1, out=out)
    # interleaved views overlap in extent but share no element
    y, out = buffer[::2][:101], buffer[1::2][:101]
    np.testing.assert_array_equal(cumulative_simpson(y, 0.1, out=out), cumulative_simpson(y, 0.1))
