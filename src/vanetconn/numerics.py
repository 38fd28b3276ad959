"""Quadrature and special functions backing the closed-form metrics.

``integrate_semi_infinite`` integrates a batch of decaying integrands with one
composite Gauss–Legendre rule in numpy; ``upper_incomplete_gamma`` serves the
path-loss-exponent-2 closed form.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

_MAX_SERIES_ITER = 500
_MAX_CF_ITER = 500
_EPS = 1e-15
_TINY = 1e-300
# the rule of integrate_semi_infinite: equal panels on [0, upper] of the first
# try (each rerun doubles them), Gauss–Legendre nodes per panel, the coarser
# rule whose difference estimates the error, the relative tolerance that
# estimate must meet and the most panels per integral
_QUAD_PANELS = 16
_QUAD_NODES = 40
_QUAD_CHECK_NODES = 20
_QUAD_REL_TOL = 1e-10
_QUAD_MAX_PANELS = 256
# below the smallest normal double a relative error bound is not representable
_QUAD_ABS_FLOOR = float(np.finfo(float).tiny)


class QuadratureError(RuntimeError):
    """Quadrature did not converge to the requested tolerance."""


@functools.cache
def _gauss_legendre():
    """Nodes of both rules on [-1, 1], fine then check, and the weights of each.

    Built on the first quadrature: ``numpy.polynomial`` is not imported by
    anything else, and the ensemble never integrates.
    """
    from numpy.polynomial.legendre import leggauss

    fine_t, fine_w = leggauss(_QUAD_NODES)
    check_t, check_w = leggauss(_QUAD_CHECK_NODES)
    return np.concatenate([fine_t, check_t]), fine_w, check_w


@functools.cache
def _panel_edges(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Left and right ends of ``panels`` equal panels on [0, 1].

    Read-only, since every integration with that panel count shares them.
    """
    edges = np.linspace(0.0, 1.0, panels + 1)
    edges.flags.writeable = False
    return edges[:-1], edges[1:]


def _panel_rule(f, lo, hi):
    """Fine-rule value and |fine - check| of every panel [lo, hi], shaped (M, K)."""
    nodes, fine_w, check_w = _gauss_legendre()
    half = 0.5 * (hi - lo)
    y = f((0.5 * (hi + lo))[..., None] + half[..., None] * nodes)
    fine = half * (y[..., :_QUAD_NODES] * fine_w).sum(axis=-1)
    check = half * (y[..., _QUAD_NODES:] * check_w).sum(axis=-1)
    return fine, np.abs(fine - check)


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray], upper):
    """Integrate a batch of decaying integrands over [0, inf).

    ``upper`` is a scalar or a 1-D array with one cutoff per integral.  The
    infinite tail is cut there, so the caller picks it where the neglected
    mass is negligible (an exp(-rho*x) envelope makes upper = 50/rho enough,
    with the tail under e^-50).  ``f`` maps an array of abscissae shaped
    (M, panels, nodes), row i inside [0, upper[i]], to the integrand values
    of integral i at them; the abscissae are interior, never 0 or upper.

    The rule is composite Gauss–Legendre: 16 equal panels with 40 nodes each,
    and the 20-node rule on the same panels for the error estimate, the sum
    of |40-node - 20-node| over the panels.  That estimate must be within
    1e-10 of each integral's value (or below the smallest normal double).
    Where it is not, the batch is rerun on twice as many equal panels and
    the integrals that failed take the new values, up to 256 panels; past
    that :class:`QuadratureError` is raised, never a silently truncated
    result.  An integral keeps the values of the first panel count it
    certifies on, so its value does not depend on the others in the batch.

    Returns ``(values, abserr)``: the values, shaped like ``upper``, and the
    largest error estimate over the batch as a float.
    """
    upper = np.asarray(upper, dtype=float)
    width = upper.reshape(-1, 1)
    totals = np.zeros(width.shape[0])
    estimates = np.zeros(width.shape[0])
    failing = np.ones(width.shape[0], dtype=bool)
    panels = _QUAD_PANELS
    while True:
        left, right = _panel_edges(panels)
        value, err = _panel_rule(f, width * left, width * right)
        value, err = value[failing], err[failing]
        if not np.isfinite(value).all() or not np.isfinite(err).all():
            raise QuadratureError(f"integrand not finite on [0, {upper.max():g}]")
        totals[failing] = [math.fsum(v) for v in value.tolist()]
        estimates[failing] = err.sum(axis=1)
        allowed = np.maximum(_QUAD_REL_TOL * np.abs(totals), _QUAD_ABS_FLOOR)
        failing = estimates > allowed
        if not failing.any():
            return totals.reshape(upper.shape), float(estimates.max(initial=0.0))
        if panels == _QUAD_MAX_PANELS:
            i = int(np.argmax(failing))
            raise QuadratureError(
                f"error estimate {estimates[i]:.3e} exceeds requested tolerance "
                f"{allowed[i]:.3e} on [0, {upper.flat[i]:g}] within {_QUAD_MAX_PANELS} panels"
            )
        panels *= 2


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
