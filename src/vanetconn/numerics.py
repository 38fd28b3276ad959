"""Quadrature and special functions backing the closed-form metrics.

``integrate_semi_infinite`` integrates a batch of decaying integrands with one
composite Gauss–Legendre rule in numpy, its nodes and weights tabulated here,
so no run imports ``numpy.polynomial`` or solves for them; integrals with one
cutoff share their abscissae, which the link probabilities of a grid chunk do.
``upper_incomplete_gamma`` serves the path-loss-exponent-2 closed form, which
reads it through ``_or_inf`` as inf where it overflows.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections.abc import Callable, Iterable, Iterator

import numpy as np

_MAX_SERIES_ITER = 500
_MAX_CF_ITER = 500
_EPS = 1e-15
_TINY = 1e-300
# the rule of integrate_semi_infinite: equal panels on [0, upper] of the first
# try (each rerun doubles them), Gauss–Legendre nodes per panel (the 20-node
# rule on the same panels estimates the error), the relative tolerance that
# estimate must meet and the most panels per integral
_QUAD_PANELS = 16
_QUAD_NODES = 40
_QUAD_REL_TOL = 1e-10
_QUAD_MAX_PANELS = 256
# abscissa columns per panel: the 40 nodes of the fine rule and the 20 of the check
_RULE_COLUMNS = _QUAD_NODES + _QUAD_NODES // 2
# below the smallest normal double a relative error bound is not representable
_QUAD_ABS_FLOOR = float(np.finfo(float).tiny)


class QuadratureError(RuntimeError):
    """Quadrature did not converge to the requested tolerance."""


# the 40- and 20-node Gauss–Legendre rules on [-1, 1], as the bits
# numpy.polynomial.legendre.leggauss gives; it makes each rule exactly
# symmetric, so only the nodes in (0, 1), ascending, and their weights are listed
_HALF_NODES_40 = (
    0.038772417506050816, 0.11608407067525521, 0.1926975807013711, 0.2681521850072537,
    0.3419940908257585, 0.413779204371605, 0.4830758016861787, 0.5494671250951282,
    0.6125538896679802, 0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
    0.8246122308333117, 0.8659595032122595, 0.9020988069688742, 0.9328128082786765,
    0.9579168192137917, 0.9772599499837743, 0.990726238699457, 0.9982377097105591,
)
_HALF_WEIGHTS_40 = (
    0.07750594797842451, 0.07703981816424763, 0.07611036190062598, 0.07472316905796794,
    0.07288658239580377, 0.07061164739128656, 0.06791204581523368, 0.06480401345660076,
    0.061306242492928834, 0.05743976909939129, 0.0532278469839367, 0.04869580763507193,
    0.04387090818567321, 0.03878216797447219, 0.03346019528254789, 0.027937006980023434,
    0.022245849194166653, 0.016421058381906828, 0.010498284531153814, 0.004521277098536349,
)
_HALF_NODES_20 = (
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
    0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.993128599185095,
)
_HALF_WEIGHTS_20 = (
    0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
    0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
    0.040601429800386446, 0.017614007139150893,
)


def _whole_rule(half_nodes, half_weights) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ascending over [-1, 1] and their weights, mirrored from the listed half."""
    nodes, weights = np.array(half_nodes), np.array(half_weights)
    return np.concatenate([-nodes[::-1], nodes]), np.concatenate([weights[::-1], weights])


_FINE_NODES, _FINE_WEIGHTS = _whole_rule(_HALF_NODES_40, _HALF_WEIGHTS_40)
_CHECK_NODES, _CHECK_WEIGHTS = _whole_rule(_HALF_NODES_20, _HALF_WEIGHTS_20)
# integrals whose integrand one call evaluates on the first panels; the count
# halves as the panels double, so a block holds about as many nodes
_QUAD_LANES = 12


@functools.cache
def _tiled_rule(panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The abscissa columns of ``panels`` panels: nodes, weights, panel edges and widths.

    The columns hold every panel's 40 fine nodes, then every panel's 20
    check nodes, so each rule's nodes are one contiguous block.  The edges
    on [0, 1] (left ends, then right ends) list the panels once for each
    rule, and the widths say how many columns each such panel has.
    Read-only, since every integration with that panel count shares them.
    """
    edges = np.linspace(0.0, 1.0, panels + 1)
    left, right = edges[:-1], edges[1:]
    rule = (np.concatenate([np.tile(_FINE_NODES, panels), np.tile(_CHECK_NODES, panels)]),
            np.concatenate([np.tile(_FINE_WEIGHTS, panels), np.tile(_CHECK_WEIGHTS, panels)]),
            np.concatenate([left, left, right, right]).reshape(2, -1),
            np.repeat([_QUAD_NODES, _QUAD_NODES // 2], panels))
    for array in rule:
        array.flags.writeable = False
    return rule


def _abscissae(width: np.ndarray, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """The abscissae of rows on [0, width], shaped (rows, panels * 60), and the panels' half-widths.

    A node is mid + half * t for its panel's midpoint, half-width and node t.
    """
    nodes, _, edges, columns = _tiled_rule(panels)
    lo, hi = width * edges[0], width * edges[1]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    x = np.repeat(half, columns, axis=1)
    x *= nodes
    x += np.repeat(mid, columns, axis=1)
    return x, half[:, :panels]


def integrate_semi_infinite(f: Callable[..., np.ndarray], upper: np.ndarray, rows: np.ndarray):
    """Integrate a batch of decaying integrands over [0, inf).

    ``upper`` is a 1-D array with one cutoff per abscissa row: row i lays
    its nodes on [0, upper[i]].  The infinite tail is cut there, so the
    caller picks it where the neglected mass is negligible (an exp(-rho*x)
    envelope makes upper = 50/rho enough, with the tail under e^-50).
    ``rows`` gives the row of each integral, so integrals with one cutoff
    share their abscissae.

    ``f(x, ids, at, lanes)`` evaluates a block of at most 12 integrals, the
    indices ``lanes``: ``x`` holds the abscissae of the rows ``ids``, one
    row each, and integral ``lanes[j]`` lies on row ``x[at[j]]``.  It
    returns a new array shaped (len(lanes), x.shape[1]), the integrand of
    each integral at the abscissae of its row; it may overwrite ``x``, and
    this function overwrites what it returns.  The abscissae are interior,
    never 0 or upper, and with one integral per row ``at`` is 0, 1, ..., so
    an integrand that does not depend on the integral can map x
    elementwise.

    The rule is composite Gauss–Legendre: 16 equal panels with 40 nodes each,
    and the 20-node rule on the same panels for the error estimate, the sum
    of |40-node - 20-node| over the panels.  That estimate must be within
    1e-10 of each integral's value (or below the smallest normal double).
    Where it is not, the integrals that failed are rerun on twice as many
    equal panels and take the new values, up to 256 panels; past that
    :class:`QuadratureError` is raised, never a silently truncated result.
    An integral keeps the values of the first panel count it certifies on,
    and each of its nodes goes through the same operations whatever else is
    in the batch, so its value does not depend on the others.

    Returns ``(values, abserr)``: the values, one per integral, and the
    largest error estimate over the batch as a float.
    """
    width = upper.reshape(-1, 1)
    totals = np.zeros(len(rows))
    estimates = np.zeros(len(rows))
    # the integrals still to certify, row by row
    pending = np.argsort(rows, kind="stable")
    panels = _QUAD_PANELS
    while True:
        with _row_buffers(panels * _RULE_COLUMNS):
            size = max(1, _QUAD_LANES * _QUAD_PANELS // panels)
            for lanes, ids, at in _blocks(rows, pending, size):
                fine, err = _block_rule(f, width, panels, ids, at, lanes)
                totals[lanes] = [math.fsum(v) for v in fine.tolist()]
                estimates[lanes] = err.sum(axis=1)
        allowed = np.maximum(_QUAD_REL_TOL * np.abs(totals[pending]), _QUAD_ABS_FLOOR)
        failing = estimates[pending] > allowed
        if not failing.any():
            return totals, float(estimates.max(initial=0.0))
        if panels == _QUAD_MAX_PANELS:
            i = int(np.argmax(failing))
            raise QuadratureError(
                f"error estimate {estimates[pending[i]]:.3e} exceeds requested tolerance "
                f"{allowed[i]:.3e} on [0, {width[rows[pending[i]], 0]:g}] "
                f"within {_QUAD_MAX_PANELS} panels"
            )
        pending = pending[failing]
        panels *= 2


@contextlib.contextmanager
def _row_buffers(size: int) -> Iterator[None]:
    """Ufunc buffers of ``size`` elements, one abscissa row, inside the block.

    With its default 8192-element buffers numpy 2.4 buffers a broadcast
    operand, such as a lane's constant or the tiled weights, across rows:
    on a 12 x 960 block such a product took about twice as long as with
    buffers of one row, and allocated a 64 KiB buffer.  The values are the
    same bits either way.
    """
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


def _blocks(rows: np.ndarray, pending: np.ndarray,
            size: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(lanes, ids, at)`` of each block of at most ``size`` integrals of ``pending``.

    ``pending`` lists integrals row by row; a block's rows are ``ids`` and
    integral ``lanes[j]`` lies on row ``ids[at[j]]``.
    """
    # sorted by row, so the rows of a block are a run of heads
    heads, head_of = np.unique(rows[pending], return_inverse=True)
    for start, first in zip(range(0, len(pending), size), head_of[::size].tolist()):
        at = head_of[start:start + size] - first
        yield pending[start:start + size], heads[first:first + int(at[-1]) + 1], at


def _block_rule(f, width: np.ndarray, panels: int, ids: np.ndarray, at: np.ndarray,
                lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fine-rule value and |fine - check| of every panel of a block's integrals, shaped (lanes, panels)."""
    x, half = _abscissae(width[ids], panels)
    y = f(x, ids, at, lanes)
    y *= _tiled_rule(panels)[1]
    half = half[at]
    fine_nodes = panels * _QUAD_NODES
    fine = y[:, :fine_nodes].reshape(len(at), panels, -1).sum(axis=-1)
    fine *= half
    err = y[:, fine_nodes:].reshape(len(at), panels, -1).sum(axis=-1)
    err *= half
    err -= fine
    np.abs(err, out=err)
    # a value that is not finite makes its error estimate so too
    if not np.isfinite(err).all():
        raise QuadratureError(f"integrand not finite on [0, {width[ids].max():g}]")
    return fine, err


def upper_incomplete_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma integral of t^(s-1) e^-t over [x, inf).

    Power series below x = s + 1, modified-Lentz continued fraction above it;
    both run to machine precision, giving ~1e-13 relative error over the
    arguments used here (s up to a few tens, x up to ~740).
    """
    if not (s > 0):
        raise ValueError(f"shape must be > 0, got {s!r}")
    if x < 0:
        raise ValueError(f"lower limit must be >= 0, got {x!r}")
    if x == 0.0:
        return math.gamma(s)
    if x < s + 1.0:
        return _upper_gamma_series(s, x)
    return _upper_gamma_contfrac(s, x)


def _upper_gamma_series(s: float, x: float) -> float:
    # lower gamma by series, upper by complement; the series branch keeps the
    # complement from cancelling badly since x < s + 1
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(_MAX_SERIES_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            lower = total * math.exp(-x + s * math.log(x))
            return math.gamma(s) - lower
    raise QuadratureError(f"incomplete gamma series stalled at s={s}, x={x}")


def _upper_gamma_contfrac(s: float, x: float) -> float:
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_CF_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return math.exp(-x + s * math.log(x)) * h
    raise QuadratureError(f"incomplete gamma continued fraction stalled at s={s}, x={x}")


def _or_inf(f, *columns: Iterable) -> list[float]:
    """f of the i-th item of every column, for each i; inf where f overflows.

    An inf term makes the closed form's sum inf or NaN, which sends it to
    the recurrence, as the ``OverflowError`` itself would.
    """
    values = []
    for args in zip(*columns):
        try:
            values.append(f(*args))
        except OverflowError:
            values.append(math.inf)
    return values
