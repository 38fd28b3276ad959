"""Closed-form and semi-analytic connectivity metrics of the 1D network.

Distances enter through the Erlang gap distribution, the channel through the
threshold exceedance probability.  Everything here is deterministic; the
Monte-Carlo estimators in :mod:`vanetconn.montecarlo` provide the independent
statistical cross-checks.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Collection, Iterable, Iterator

import numpy as np

from . import channel, scenario
from .numerics import _or_inf, integrate_semi_infinite, upper_incomplete_gamma
from .scenario import ScenarioParams, _require_neighbor_index

__all__ = [
    "DivergentMeanError",
    "communication_range",
    "p_network_ud",
    "p_sl_ud_mth",
    "p_sl_rayleigh",
    "p_sl_rayleigh_closed_alpha2",
    "avg_snr_rayleigh",
    "avg_snr_ud",
    "avg_node_degree",
    "p_vehicle_one_side_rayleigh",
    "p_vehicle_rayleigh",
    "point_rows",
    "grid_rows",
]

# beyond z = rho^2 lam^2 / 4 = 700 the incomplete gammas, of order e^-z, near
# the subnormal doubles (from z = 708) and underflow to zero at z = 745
_EXP_GUARD = 700.0
# beyond this measured cancellation a compensated double-precision sum cannot
# certify ~1e-9 relative accuracy, so the closed form comes from its recurrence
_CANCELLATION_ESCALATE = 2e5
# below this a the closed form's recurrence runs forward; above it, backward
_FORWARD_BELOW = 0.5
# the rounding of z = a*a/4 is a first-order effect while its square, the
# second-order term, stays below double precision (a up to about 2e4)
_FIRST_ORDER_DELTA = 2.0**-26
# from this many active lanes a step of the backward recurrence runs in
# numpy; one lane in numpy costs about 100 times a Python float step
_MIN_LANES = 64
# points whose link probabilities and closed forms grid_rows computes, and
# escalates, together; it holds a few arrays of big_m floats per point while
# the chunk's rows stream
_GRID_CHUNK = 256


class DivergentMeanError(ValueError):
    """The requested average SNR is infinite for this neighbour index."""


def _snr_decay_coefficient(params: ScenarioParams) -> float:
    """Coefficient c in the exceedance probability e^(-c d^alpha) of a fading link."""
    return params.psi * params.noise_power / (params.beta * params.tx_power)


def communication_range(params: ScenarioParams) -> float:
    """Unit-disc radius; numerically also the length scale of the fading model."""
    return channel.unit_disc_range(params.budget, params.psi)


def p_network_ud(params: ScenarioParams) -> float:
    """Unit-disc network connectivity: all N-1 successive links present."""
    x = params.rho * communication_range(params)
    q = math.exp(-x)
    if q == 1.0:
        # x below 2^-53: 1 - e^-x is x to double precision, and log1p(-1) would raise
        return x ** (params.n_vehicles - 1)
    return math.exp((params.n_vehicles - 1) * math.log1p(-q))


def p_sl_ud_mth(params: ScenarioParams, m: int = 1) -> float:
    """Unit-disc link probability to the m-th neighbour: Erlang CDF at the radius.

    A unit-disc link at one distance implies links at every shorter one, so
    m = 1 is also the one-side vehicle connectivity of the unit disc.
    """
    return scenario.erlang_cdf(communication_range(params), m, params.rho)


def p_sl_rayleigh(params: ScenarioParams, m: int = 1) -> float:
    """Fading link probability to the m-th neighbour.

    Averages the exceedance probability e^(-c x^alpha) over the Erlang gap
    density; the integrand carries the Erlang normalisation in log space.
    Either factor alone bounds the tail below tolerance beyond its own scale
    ((50+2m)/rho for the gap density, lam*(50+2m)^(1/alpha) for the channel
    factor), so the cutoff takes whichever is tighter; on near-empty roads
    only the channel scale keeps the interval comparable to the integrand's
    support.  A value is the same bits whatever batch of points and m it is
    integrated in.
    """
    m = _require_neighbor_index(m)
    return _link_probabilities([params], range(m, m + 1))[0][0]


def _link_probabilities(points: list[ScenarioParams], ms: range) -> list[list[float]]:
    """P(m), m in ``ms``, of points that share one path-loss exponent, in one quadrature.

    Each (point, m) integral is a lane on the abscissa row of its cutoff and
    m: the lanes cut at the gap scale (50+2m)/rho share a row across every
    threshold, those cut at the channel scale across every density.  A row
    holds x, (m-1) log x and x^alpha; a lane adds its log normalisation,
    then subtracts rho x and c x^alpha, the operations of the single-point
    integrand in its order, so each value has the bits of its point
    integrated alone.
    """
    alpha = points[0].ple
    m_col = np.array(ms, dtype=float)
    rho = np.array([params.rho for params in points])
    c = np.array([_snr_decay_coefficient(params) for params in points])
    lam = np.array([communication_range(params) for params in points])
    reach = np.array([(50.0 + 2.0 * m) ** (1.0 / alpha) for m in ms])
    # the gap scale overflows on a near-empty road, where the finite
    # channel scale is the smaller cutoff
    with np.errstate(over="ignore"):
        gap = (50.0 + 2.0 * m_col) / rho[:, None]
    # one row per distinct (m, cutoff), keyed as m + i cutoff: np.unique
    # sorts complex keys as it sorts the pairs, about ten times faster than
    # rows with axis=0; lane i is (point i // len(ms), m)
    keys, rows = np.unique(np.column_stack([
        np.tile(m_col, len(points)),
        np.minimum(gap, lam[:, None] * reach).ravel(),
    ]).view(complex).ravel(), return_inverse=True)
    power = keys.real - 1.0
    log_norm = (m_col * np.array([math.log(params.rho) for params in points])[:, None]
                - np.array([math.lgamma(m) for m in ms])).ravel()

    def integrand(x: np.ndarray, ids: np.ndarray, at: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        # log_norm + power log x - rho x - c x^alpha, the logs shared by a row
        y = np.log(x)
        y *= power[ids, None]
        y = y[at]
        y += log_norm[lanes, None]
        point = lanes // len(ms)
        term = x[at]
        term *= rho[point, None]
        y -= term
        x **= alpha
        np.take(x, at, axis=0, out=term, mode="clip")
        term *= c[point, None]
        y -= term
        return np.exp(y, out=y)

    values, _ = integrate_semi_infinite(integrand, keys.imag, rows)
    return np.clip(values, 0.0, 1.0).reshape(len(points), -1).tolist()


def _closed_form_mp(m: int, a: float, z: float) -> float:
    """The recurrence's P(m) at one (a, z), as a batch of one lane.

    It has the bits the lane gets in any batch of :func:`_closed_forms_mp`.
    The benchmark's tracer wraps it by name and counts its calls as the
    closed form's escalations; the grid path solves batches instead.
    """
    return _closed_forms_mp([(m, a, z)])[0]


def _closed_forms_mp(lanes: list[tuple[int, float, float]]) -> list[float]:
    """P(m) of every lane (m, a, z) by the recurrence P(k+1) = (P(k-1) - P(k)) a^2 / (2k).

    P(0) = 1 and P(1) = (a sqrt(pi) / 2) e^(a^2/4) erfc(a/2) (DLMF 12-13);
    the recurrence has no alternating terms.  For small a each P(k) is about
    a times the one before, so the recurrence runs forward without loss, a
    lane at a time.  Otherwise the ratios r(k) = P(k)/P(k-1) run backward,
    every such lane in one :func:`_backward_products` call, and P(m) is
    their product.  An infinite a or z gives 1.

    The double-precision sum evaluates the closed form at the double z, not
    at a^2/4; adding the first-order term in z - a^2/4 gives the value at
    that same z, so both routes compute one function.  With z exact, the
    extra part of dP/dz is (1 - a/(2 sqrt(z)))^(m-1): 0 for m >= 2 and 1 for
    m = 1.  A lane's bits do not depend on the other lanes of its batch.
    """
    values = [1.0] * len(lanes)
    finite = [i for i, (_, a, z) in enumerate(lanes) if not (math.isinf(a) or math.isinf(z))]
    deep = [lanes[i] for i in finite if lanes[i][1] >= _FORWARD_BELOW]
    products = iter(_backward_products([m for m, _, _ in deep], [a * a for _, a, _ in deep]))
    # one offset per point: its lanes share a and z
    offsets = {az: _z_offset(*az) for az in {lanes[i][1:] for i in finite}}
    for i in finite:
        m, a, z = lanes[i]
        if a < _FORWARD_BELOW:
            prev = 1.0
            value = 0.5 * a * math.sqrt(math.pi) * math.exp(0.25 * a * a) * math.erfc(0.5 * a)
            for k in range(1, m):
                prev, value = value, (prev - value) * a * a / (2 * k)
        else:
            value = next(products)
        delta = offsets[a, z]
        if abs(delta) < _FIRST_ORDER_DELTA:
            value += delta * (value - (m == 1))
        values[i] = value
    return values


def _backward_depth(m: int, a2: float) -> int:
    """Step the backward recurrence of P(m) at a^2 = ``a2`` starts from."""
    return m + 200 + math.ceil(2000.0 / a2)


def _z_offset(a: float, z: float) -> float:
    """z - a^2/4 exactly, as one correctly rounded division of integers."""
    an, ad = a.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    return (4 * zn * ad * ad - an * an * zd) / (4 * zd * ad * ad)


def _backward_products(ms: list[int], a2s: list[float]) -> list[float]:
    """prod_{k<=m} r(k) of every lane (m, a^2), any number of lanes.

    Each lane runs r(k) = 1 / (1 + (2k/a^2) r(k+1)) from r = 0 at its own
    depth down to k = 1, and multiplies the r(k) with k <= m into its
    product; the same operations run on every lane, so each gets the bits
    of a scalar loop.  Sorted deepest first, the lanes active at step k are
    a prefix.  While fewer than ``_MIN_LANES`` lanes are active, the steps
    run as Python floats, a lane at a time; from the ``_MIN_LANES``-th
    deepest start on, each step is a few numpy operations on the prefix.  A
    batch of fewer lanes runs every step as Python floats.
    """
    depths = np.array([_backward_depth(m, a2) for m, a2 in zip(ms, a2s)])
    order = np.argsort(-depths, kind="stable")
    m, a2, depth = np.array(ms)[order], np.array(a2s)[order], depths[order]
    start = int(depth[_MIN_LANES - 1]) if len(ms) >= _MIN_LANES else 0
    ratio = np.zeros(len(ms))
    value = np.ones(len(ms))
    top = slice(_MIN_LANES - 1)
    for i, (m_i, a2_i, depth_i) in enumerate(zip(m[top].tolist(), a2[top].tolist(),
                                                 depth[top].tolist())):
        r, v = 0.0, 1.0
        for k in range(depth_i, start, -1):
            r = 1.0 / (1.0 + 2.0 * k / a2_i * r)
            if k <= m_i:
                v *= r
        ratio[i], value[i] = r, v
    # active[k]: how many lanes start at step k or above
    active = np.searchsorted(-depth, -np.arange(start + 1), side="right").tolist()
    top_m = max(ms, default=0)
    coefficient = np.empty(len(ms))
    for k in range(start, 0, -1):
        n = active[k]
        c, r = coefficient[:n], ratio[:n]
        np.divide(2.0 * k, a2[:n], out=c)
        r *= c
        r += 1.0
        np.divide(1.0, r, out=r)
        if k <= top_m:
            np.multiply(value[:n], r, out=value[:n], where=m[:n] >= k)
    products = np.empty(len(ms))
    products[order] = value
    return products.tolist()


def p_sl_rayleigh_closed_alpha2(params: ScenarioParams, m: int = 1) -> float:
    """Closed form of the fading link probability for path-loss exponent 2.

    Completing the square in the exponent turns the gap average into an
    incomplete-gamma sum: with a = rho*lam and lam the threshold length scale,

        P(m) = (a^m e^(a^2/4) / (2 (m-1)!)) *
               sum_k C(m-1, k) (-a/2)^k Gamma((m-k)/2, a^2/4)

    For m = 1 this is (a sqrt(pi) / 2) e^(a^2/4) erfc(a/2).  The sum is
    compensated; when the measured cancellation is too deep for double
    precision, a^2/4 is too large for its terms to be represented, or a term
    or the sum overflows (large m), P(m) comes instead from the three-term
    recurrence the sum satisfies, which has no alternating terms.  The sum
    reads Gamma(j/2, a^2/4) for j = 1..m.
    """
    m = _require_neighbor_index(m)
    if params.ple != 2:
        raise ValueError(f"closed form requires path-loss exponent 2, got {params.ple}")
    return _closed_forms([params], range(m, m + 1))[0][0]


def _closed_forms(points: list[ScenarioParams], ms: range) -> list[list[float]]:
    """The closed form P(m), m in ``ms``, of every point; one solve escalates them all.

    The sums of every point run together in :func:`_closed_form_sums`; the
    values they cannot certify go to ``_closed_forms_mp`` in one batch, in
    point order, then m order.
    """
    a_s = [params.rho * communication_range(params) for params in points]
    z_s = [0.25 * a * a for a in a_s]
    values, certified = _closed_form_sums(a_s, z_s, ms)
    rows, cols = np.nonzero(~certified)
    values[rows, cols] = _closed_forms_mp([(ms[j], a_s[i], z_s[i])
                                           for i, j in zip(rows.tolist(), cols.tolist())])
    return np.minimum(values, 1.0).tolist()


def _closed_form_sums(a_s: list[float], z_s: list[float],
                      ms: range) -> tuple[np.ndarray, np.ndarray]:
    """P(m) from the compensated sum of every (a, m), as numpy lanes, and which it certifies.

    Lane (m, a) sums the terms C(m-1, k) (-a/2)^k Gamma((m-k)/2, z), k from
    0 to m-1, with the operations of a scalar Kahan loop: each term is the
    binomial, an exact running product converted to a float as Python
    converts the int, times the power from Python's ``**``, times the
    gamma from :func:`upper_incomplete_gamma`, so every lane gets the
    scalar bits.  Rows run from the largest m down, so the lanes still
    summing at step k are a prefix.  A power, binomial or gamma that
    overflows is inf, as is every gamma at z >= ``_EXP_GUARD``, so their
    sums fail the same test as a cancellation too deep for double
    precision, and are not certified.  The prefactor's log, lgamma
    and exp are scalar ``math`` calls.  Both arrays are shaped (len(a_s),
    len(ms)).
    """
    top = ms[-1]
    # row j-1 holds Gamma(j/2, z), row k (-a/2)^k, one column a point
    z = np.array(z_s, dtype=float)
    near = z < _EXP_GUARD
    gammas = np.full((top, len(z_s)), math.inf)
    gammas[:, near] = np.reshape(_or_inf(upper_incomplete_gamma,
                                         np.repeat(0.5 * np.arange(1, top + 1), near.sum()).tolist(),
                                         np.tile(z[near], top).tolist()), (top, -1))
    powers = np.array([_or_inf((-0.5 * a).__pow__, range(top))
                       for a in a_s]).reshape(len(a_s), top).T
    m_rows = np.arange(top, ms.start - 1, -1)
    # C(m-1, k) of each row at step k, an exact int: C(m-1, k+1) is
    # C(m-1, k) (m-1-k) / (k+1) with no remainder
    binomials = [1] * len(ms)
    total = np.zeros((len(ms), len(a_s)))
    comp = np.zeros_like(total)
    abs_total = np.zeros_like(total)
    # inf and NaN terms are expected: the test below rejects their sums
    with np.errstate(all="ignore"):
        for k in range(top):
            # the rows with m > k
            n = min(len(ms), top - k)
            terms = np.multiply(np.array(_or_inf(float, binomials[:n]))[:, None], powers[k])
            terms *= gammas[top - k - n:top - k][::-1]
            abs_total[:n] += np.abs(terms)
            terms -= comp[:n]
            step = total[:n] + terms
            np.subtract(step, total[:n], out=comp[:n])
            comp[:n] -= terms
            total[:n] = step
            binomials = [b * (m - 1 - k) // (k + 1)
                         for b, m in zip(binomials[:n], m_rows[:n].tolist())]
        certified = (total > 0.0) & (abs_total / total <= _CANCELLATION_ESCALATE)
    log_pref = (m_rows[:, None] * np.array([math.log(a) for a in a_s]) + np.array(z_s)
                - math.log(2.0) - np.array([math.lgamma(m) for m in m_rows.tolist()])[:, None])
    values = np.zeros_like(total)
    values[certified] = [math.exp(p + math.log(t)) for p, t in
                         zip(log_pref[certified].tolist(), total[certified].tolist())]
    return values[::-1].T, certified[::-1].T


def _finite_mean(params: ScenarioParams, m: int) -> bool:
    """Whether the average SNR at the m-th neighbour is finite: m > alpha."""
    return m > params.ple


def _require_finite_mean(params: ScenarioParams, m: int) -> int:
    """m as a neighbour index; raises ``DivergentMeanError`` where its average SNR is infinite."""
    m = _require_neighbor_index(m)
    if not _finite_mean(params, m):
        raise DivergentMeanError(f"average SNR is infinite for m <= {params.ple} (got m={m})")
    return m


def avg_snr_rayleigh(params: ScenarioParams, m: int) -> float:
    """Average received SNR at the m-th neighbour under fading.

    Finite only for m >= alpha + 1, where it equals
    beta*P_T*rho^alpha / P_noise * prod_{j=1..alpha} 1/(m-j); closer
    neighbours sit too often near zero distance and the mean diverges.
    An average that overflows a float raises ``OverflowError`` naming it.
    """
    m = _require_finite_mean(params, m)
    alpha = params.ple
    try:
        value = params.budget.snr_scale * params.rho**alpha
    except OverflowError:
        raise _snr_overflow("rayleigh", m) from None
    for j in range(1, alpha + 1):
        value /= m - j
    return value


def avg_snr_ud(params: ScenarioParams, m: int) -> float:
    """Average received SNR at the m-th neighbour in the unit disc.

    The conditional SNR is a point mass at the path-loss value, so the mean
    is the negative-alpha Erlang moment; it comes out identical to the fading
    average, here computed through the gamma-function moment for an
    arithmetically independent route.  An average that overflows a float
    raises ``OverflowError`` naming it.
    """
    m = _require_finite_mean(params, m)
    alpha = params.ple
    log_moment = alpha * math.log(params.rho) + math.lgamma(m - alpha) - math.lgamma(m)
    try:
        return params.budget.snr_scale * math.exp(log_moment)
    except OverflowError:
        raise _snr_overflow("unit_disc", m) from None


def avg_node_degree(params: ScenarioParams) -> float:
    """Expected number of fading-linked neighbours of an interior vehicle.

    2 * rho * integral of e^(-c x^alpha) over [0, inf), with c = lam^-alpha:
    2 rho lam Gamma(1 + 1/alpha).  That is rho lam sqrt(pi) for alpha = 2,
    and never more than the unit disc's 2 rho lam.
    """
    return 2.0 * params.rho * math.gamma(1.0 + 1.0 / params.ple) * communication_range(params)


def _vehicle_connectivity(links: list[float]) -> tuple[float, float]:
    """One-side and two-side vehicle connectivity from the independent links of m = 1..big_m.

    A side is isolated when none of its links is present, the product taken
    in m order; the two sides are independent, so two-side isolation is
    its square.
    """
    isolated = math.prod(1.0 - p for p in links)
    return 1.0 - isolated, 1.0 - isolated**2


def _side_links(params: ScenarioParams, big_m: int) -> list[float]:
    big_m = _require_neighbor_index(big_m)
    return _link_probabilities([params], range(1, big_m + 1))[0]


def p_vehicle_one_side_rayleigh(params: ScenarioParams, big_m: int = 10) -> float:
    """Probability a vehicle reaches at least one of its big_m one-side neighbours.

    Treats the links to different neighbours as independent, which makes this
    an approximation (the gaps are nested, hence positively dependent).
    """
    return _vehicle_connectivity(_side_links(params, big_m))[0]


def p_vehicle_rayleigh(params: ScenarioParams, big_m: int = 10) -> float:
    """Probability a vehicle is linked on at least one side under fading.

    The two sides are independent, so the isolation probability squares; the
    per-side independence approximation makes this an upper bound on the
    simulated vehicle connectivity.
    """
    return _vehicle_connectivity(_side_links(params, big_m))[1]


def point_rows(params: ScenarioParams, big_m: int,
               models: Collection[str]) -> list[tuple[str, int | None, str, float | str]]:
    """Every analytic metric of one operating point, as (model, m, metric, value) rows.

    The unit disc comes first, then Rayleigh, whatever the order of
    ``models``; m is None for a metric of the whole point, and value is a
    float, or "diverges" for an infinite average SNR.  Each value equals
    its public function's, computed in one pass: the unit-disc links of
    m = 1..big_m from one running sum of the Poisson head, the fading links
    from one quadrature batch, which both vehicle-connectivity products
    read, and at path-loss exponent 2 the closed forms from one list of
    incomplete gammas.  This is the one-point case of :func:`grid_rows`.
    """
    return next(grid_rows([params], big_m, models))


def grid_rows(points: Iterable[ScenarioParams], big_m: int,
              models: Collection[str]) -> Iterator[list[tuple[str, int | None, str, float | str]]]:
    """The rows of :func:`point_rows` for each point in turn, the same values.

    The points share one path-loss exponent, that of the first; a point
    with another raises ``ValueError``.  Works through ``points`` in chunks
    of ``_GRID_CHUNK``: the fading links of a whole chunk come first, from
    one batched quadrature, and at exponent 2 its closed forms, with one
    solve of every escalation in it; then each point's rows are computed
    and yielded, so rows do not pile up.
    """
    big_m = _require_neighbor_index(big_m)
    ms = range(1, big_m + 1)
    points = iter(points)
    fading = "rayleigh" in models
    alpha = None
    while chunk := list(itertools.islice(points, _GRID_CHUNK)):
        if alpha is None:
            alpha = chunk[0].ple
        if any(params.ple != alpha for params in chunk):
            raise ValueError(f"every point of a grid needs path-loss exponent {alpha}")
        links = _link_probabilities(chunk, ms) if fading else [None] * len(chunk)
        forms = _closed_forms(chunk, ms) if fading and alpha == 2 else [None] * len(chunk)
        for params, point_links, point_forms in zip(chunk, links, forms):
            yield _point_rows(params, ms, models, point_links, point_forms)


def _point_rows(params: ScenarioParams, ms: range, models: Collection[str],
                links: list[float] | None,
                closed: list[float] | None) -> list[tuple[str, int | None, str, float | str]]:
    big_m = len(ms)
    lam = communication_range(params)
    rows = []
    if "unit_disc" in models:
        disc = list(itertools.islice(scenario._erlang_cdfs(params.rho * lam), big_m))
        rows.append(("unit_disc", None, "unit_disc_range_m", lam))
        rows += [("unit_disc", m, "p_single_link", p) for m, p in zip(ms, disc)]
        rows += [("unit_disc", m, "avg_snr", avg_snr_ud(params, m) if _finite_mean(params, m)
                  else "diverges") for m in ms]
        rows += [("unit_disc", None, "p_network", p_network_ud(params)),
                 ("unit_disc", None, "p_vehicle_one_side", disc[0]),
                 ("unit_disc", None, "avg_node_degree", 2.0 * params.rho * lam)]
    if "rayleigh" in models:
        rows += [("rayleigh", m, "p_single_link", p) for m, p in zip(ms, links)]
        if closed is not None:
            rows += [("rayleigh", m, "p_single_link_closed", p) for m, p in zip(ms, closed)]
        rows += [("rayleigh", m, "avg_snr", avg_snr_rayleigh(params, m) if _finite_mean(params, m)
                  else "diverges") for m in ms]
        one_side, two_side = _vehicle_connectivity(links)
        rows += [("rayleigh", None, "avg_node_degree", avg_node_degree(params)),
                 ("rayleigh", big_m, "p_vehicle_one_side", one_side),
                 ("rayleigh", big_m, "p_vehicle_two_side", two_side)]
    return rows


def _snr_overflow(model: str, m: int) -> OverflowError:
    """The error of an average SNR that overflows a float, naming its model and m."""
    return OverflowError(f"{model} avg_snr at m={m} overflows a float")
