"""Composite Simpson quadrature on uniform grids, and Gauss-Legendre panels.

The gate integrals run on fixed uniform time grids with the Simpson rules,
which accept real or complex samples and operate along the last axis. The
optimizer's objective runs on Gauss-Legendre panels between the drive's
breakpoints (gauss_legendre_panels).
"""

import functools

import numpy as np


def simpson(y, dx):
    """Integrate sampled values over a uniform grid with an even interval count."""
    y = np.asarray(y)
    n = y.shape[-1] - 1
    if n < 2 or n % 2:
        raise ValueError(f"composite Simpson needs an even interval count, got {n}")
    return (dx / 3.0) * (
        y[..., 0]
        + y[..., -1]
        + 4.0 * y[..., 1:-1:2].sum(axis=-1)
        + 2.0 * y[..., 2:-1:2].sum(axis=-1)
    )


def simpson_weights(n_samples, dx):
    """Weight vector w such that w @ y == simpson(y, dx)."""
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError(f"need an odd sample count, got {n_samples}")
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


def cumulative_simpson(y, dx):
    """Running integral of sampled values, fourth-order accurate at every node.

    Each interval [t_{j-1}, t_j] is integrated with the parabola through the
    sample triple ending at j (starting at j for the very first interval),
    then the per-interval pieces are cumulatively summed. The first output
    entry is 0.
    """
    y = np.asarray(y)
    if y.shape[-1] < 3:
        raise ValueError("cumulative Simpson needs at least 3 samples")
    out = np.empty(y.shape, dtype=np.result_type(y.dtype, np.float64))
    out[..., 0] = 0.0
    seg = out[..., 1:]  # the per-interval pieces, summed in place at the end
    seg[..., 0] = (dx / 12.0) * (5.0 * y[..., 0] + 8.0 * y[..., 1] - y[..., 2])
    interior = seg[..., 1:]  # (-y[j-2] + 8 y[j-1] + 5 y[j]) dx/12, built in place
    np.multiply(y[..., 1:-1], 8.0, out=interior)
    interior -= y[..., :-2]
    interior += 5.0 * y[..., 2:]
    interior *= dx / 12.0
    np.cumsum(seg, axis=-1, out=seg)
    return out


@functools.cache
def _gauss_rule(order):
    """Read-only nodes and weights of the `order`-node Gauss-Legendre rule on [0, 1]."""
    s, w = np.polynomial.legendre.leggauss(order)
    s, w = 0.5 * (s + 1.0), 0.5 * w
    s.setflags(write=False)
    w.setflags(write=False)
    return s, w


def gauss_legendre_panels(edges, sub_panels, order, graded_ends=False):
    """Nodes and weights (ascending) of Gauss-Legendre panels between sorted edges.

    The interval between edges[i] and edges[i + 1] is cut into sub_panels[i]
    equal panels of `order` nodes each. With graded_ends, the first and the
    last panel take their nodes in s on [0, 1] with t = h s^2 from the outer
    edge (weights 2 h s w), so an integrand that grows like t^1.5 from that
    edge is smooth in s.
    """
    s, w = _gauss_rule(order)
    nodes, weights = [], []
    for a, b, count in zip(edges[:-1], edges[1:], sub_panels):
        cuts = np.linspace(a, b, count + 1)
        h = np.diff(cuts)[:, None]
        nodes.append(cuts[:-1, None] + h * s)
        weights.append(h * w)
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    if graded_ends:
        h = (edges[1] - edges[0]) / sub_panels[0]
        nodes[0], weights[0] = edges[0] + h * s**2, 2.0 * h * s * w
        h = (edges[-1] - edges[-2]) / sub_panels[-1]
        nodes[-1], weights[-1] = edges[-1] - h * s[::-1] ** 2, 2.0 * h * (s * w)[::-1]
    return nodes.ravel(), weights.ravel()
