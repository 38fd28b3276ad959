"""Closed-form and semi-analytic connectivity metrics of the 1D network.

Distances enter through the Erlang gap distribution, the channel through the
threshold exceedance probability.  Everything here is deterministic; the
Monte-Carlo estimators in :mod:`vanetconn.montecarlo` provide the independent
statistical cross-checks.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Collection

import numpy as np

from . import channel, scenario
from .numerics import integrate_semi_infinite, upper_incomplete_gamma
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
    support.  A value is the same bits whatever batch of m it is integrated in.
    """
    m = _require_neighbor_index(m)
    return float(_link_probabilities(params, range(m, m + 1))[0])


def _link_probabilities(params: ScenarioParams, ms: range) -> np.ndarray:
    """P(m) for every m in ``ms``, from one call of the batched quadrature."""
    rho = params.rho
    alpha = params.ple
    c = _snr_decay_coefficient(params)
    lam = communication_range(params)
    upper = np.array([min((50.0 + 2.0 * m) / rho, lam * (50.0 + 2.0 * m) ** (1.0 / alpha))
                      for m in ms])
    log_norm = np.array([m * math.log(rho) - math.lgamma(m) for m in ms])[:, None, None]
    power = np.array(ms, dtype=float)[:, None, None] - 1.0

    def integrand(x: np.ndarray) -> np.ndarray:
        return np.exp(log_norm + power * np.log(x) - rho * x - c * x**alpha)

    values, _ = integrate_semi_infinite(integrand, upper)
    return np.clip(values, 0.0, 1.0)


def _half_integer_gammas(z: float, count: int) -> list[float]:
    """Gamma(j/2, z) for j = 1..count; NaN where it overflows.

    A NaN term makes the closed form's sum NaN, which sends it to the
    recurrence, as the overflow itself would.
    """
    gammas = []
    for j in range(1, count + 1):
        try:
            gammas.append(upper_incomplete_gamma(0.5 * j, z))
        except OverflowError:
            gammas.append(math.nan)
    return gammas


def _kahan_sum(values) -> tuple[float, float]:
    total = 0.0
    comp = 0.0
    abs_total = 0.0
    for v in values:
        abs_total += abs(v)
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total, abs_total


def _closed_form_mp(m: int, a: float, z: float) -> float:
    """P(m) by the recurrence P(k+1) = (P(k-1) - P(k)) a^2 / (2k), cancellation-free.

    P(0) = 1 and P(1) = (a sqrt(pi) / 2) e^(a^2/4) erfc(a/2) (DLMF 12-13).
    For small a each P(k) is about a times the one before, so the recurrence
    runs forward without loss.  Otherwise the ratios r(k) = P(k)/P(k-1) =
    1 / (1 + (2k/a^2) r(k+1)) run backward from r = 0 deep enough that the
    start no longer shows, and P(m) is their product.

    The double-precision sum evaluates the closed form at the double z, not
    at a^2/4; adding the first-order term in z - a^2/4 gives the value at
    that same z, so both routes compute one function.  With z exact, the
    extra part of dP/dz is (1 - a/(2 sqrt(z)))^(m-1): 0 for m >= 2 and 1 for
    m = 1.  The benchmark's tracer counts the calls of this function as the
    closed form's escalations.
    """
    if math.isinf(a) or math.isinf(z):
        return 1.0
    if a < _FORWARD_BELOW:
        prev = 1.0
        value = 0.5 * a * math.sqrt(math.pi) * math.exp(0.25 * a * a) * math.erfc(0.5 * a)
        for k in range(1, m):
            prev, value = value, (prev - value) * a * a / (2 * k)
    else:
        a2 = a * a
        # 2k/a^2 for k from far above m down to 1, each rounded as 2.0 * k / a2;
        # the steps above m only settle the ratio
        coefficients = (2.0 * np.arange(m + 200 + math.ceil(2000.0 / a2), 0, -1) / a2).tolist()
        ratio = 0.0
        for c in coefficients[:-m]:
            ratio = 1.0 / (1.0 + c * ratio)
        value = 1.0
        for c in coefficients[-m:]:
            ratio = 1.0 / (1.0 + c * ratio)
            value *= ratio
    # z - a^2/4 exactly, as one correctly rounded division of integers
    an, ad = a.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    delta = (4 * zn * ad * ad - an * an * zd) / (4 * zd * ad * ad)
    if abs(delta) < _FIRST_ORDER_DELTA:
        value += delta * (value - (m == 1))
    return value


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
    return _closed_forms(params, range(m, m + 1))[0]


def _closed_forms(params: ScenarioParams, ms: range) -> list[float]:
    """The closed form P(m) for every m in ``ms``, from one list of Gamma(j/2, a^2/4)."""
    a = params.rho * communication_range(params)
    z = 0.25 * a * a
    gammas = [] if z >= _EXP_GUARD else _half_integer_gammas(z, max(ms))
    return [_closed_form(m, a, z, gammas) for m in ms]


def _closed_form(m: int, a: float, z: float, gammas: list[float]) -> float:
    """P(m) from the compensated sum over ``gammas``, or else from the recurrence."""
    if z >= _EXP_GUARD:
        return min(1.0, _closed_form_mp(m, a, z))
    half_a = 0.5 * a
    try:
        terms = [math.comb(m - 1, k) * (-half_a) ** k * gammas[m - 1 - k] for k in range(m)]
    except OverflowError:
        return min(1.0, _closed_form_mp(m, a, z))
    total, abs_total = _kahan_sum(terms)
    # written so that a NaN or infinite total escalates too
    if not (total > 0.0 and abs_total / total <= _CANCELLATION_ESCALATE):
        return min(1.0, _closed_form_mp(m, a, z))
    log_pref = m * math.log(a) + z - math.log(2.0) - math.lgamma(m)
    return min(1.0, math.exp(log_pref + math.log(total)))


def avg_snr_rayleigh(params: ScenarioParams, m: int) -> float:
    """Average received SNR at the m-th neighbour under fading.

    Finite only for m >= alpha + 1, where it equals
    beta*P_T*rho^alpha / P_noise * prod_{j=1..alpha} 1/(m-j); closer
    neighbours sit too often near zero distance and the mean diverges.
    """
    m = _require_neighbor_index(m)
    alpha = params.ple
    if m <= alpha:
        raise DivergentMeanError(
            f"average SNR is infinite for m <= {alpha} (got m={m})"
        )
    value = params.budget.snr_scale * params.rho**alpha
    for j in range(1, alpha + 1):
        value /= m - j
    return value


def avg_snr_ud(params: ScenarioParams, m: int) -> float:
    """Average received SNR at the m-th neighbour in the unit disc.

    The conditional SNR is a point mass at the path-loss value, so the mean
    is the negative-alpha Erlang moment; it comes out identical to the fading
    average, here computed through the gamma-function moment for an
    arithmetically independent route.
    """
    m = _require_neighbor_index(m)
    alpha = params.ple
    if m <= alpha:
        raise DivergentMeanError(
            f"average SNR is infinite for m <= {alpha} (got m={m})"
        )
    log_moment = alpha * math.log(params.rho) + math.lgamma(m - alpha) - math.lgamma(m)
    return params.budget.snr_scale * math.exp(log_moment)


def avg_node_degree(params: ScenarioParams) -> float:
    """Expected number of fading-linked neighbours of an interior vehicle.

    2 * rho * integral of e^(-c x^alpha) over [0, inf), with c = lam^-alpha:
    2 rho lam Gamma(1 + 1/alpha).  That is rho lam sqrt(pi) for alpha = 2,
    and never more than the unit disc's 2 rho lam.
    """
    return 2.0 * params.rho * math.gamma(1.0 + 1.0 / params.ple) * communication_range(params)


def _one_side_disconnect(params: ScenarioParams, big_m: int) -> float:
    big_m = _require_neighbor_index(big_m)
    return _isolation(_link_probabilities(params, range(1, big_m + 1)).tolist())


def _isolation(links: list[float]) -> float:
    """Probability that none of the independent links is present, multiplied in m order."""
    return math.prod(1.0 - p for p in links)


def p_vehicle_one_side_rayleigh(params: ScenarioParams, big_m: int = 10) -> float:
    """Probability a vehicle reaches at least one of its big_m one-side neighbours.

    Treats the links to different neighbours as independent, which makes this
    an approximation (the gaps are nested, hence positively dependent).
    """
    return 1.0 - _one_side_disconnect(params, big_m)


def p_vehicle_rayleigh(params: ScenarioParams, big_m: int = 10) -> float:
    """Probability a vehicle is linked on at least one side under fading.

    The two sides are independent, so the isolation probability squares; the
    per-side independence approximation makes this an upper bound on the
    simulated vehicle connectivity.
    """
    return 1.0 - _one_side_disconnect(params, big_m) ** 2


def _snr_value(fn, params: ScenarioParams, m: int) -> float | str:
    try:
        return fn(params, m)
    except DivergentMeanError:
        return "diverges"


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
    incomplete gammas.
    """
    big_m = _require_neighbor_index(big_m)
    ms = range(1, big_m + 1)
    lam = communication_range(params)
    rows = []
    if "unit_disc" in models:
        links = list(itertools.islice(scenario._erlang_cdfs(params.rho * lam), big_m))
        rows.append(("unit_disc", None, "unit_disc_range_m", lam))
        rows += [("unit_disc", m, "p_single_link", p) for m, p in zip(ms, links)]
        rows += [("unit_disc", m, "avg_snr", _snr_value(avg_snr_ud, params, m)) for m in ms]
        rows += [("unit_disc", None, "p_network", p_network_ud(params)),
                 ("unit_disc", None, "p_vehicle_one_side", links[0]),
                 ("unit_disc", None, "avg_node_degree", 2.0 * params.rho * lam)]
    if "rayleigh" in models:
        links = _link_probabilities(params, ms).tolist()
        rows += [("rayleigh", m, "p_single_link", p) for m, p in zip(ms, links)]
        if params.ple == 2:
            rows += [("rayleigh", m, "p_single_link_closed", p)
                     for m, p in zip(ms, _closed_forms(params, ms))]
        rows += [("rayleigh", m, "avg_snr", _snr_value(avg_snr_rayleigh, params, m)) for m in ms]
        isolated = _isolation(links)
        rows += [("rayleigh", None, "avg_node_degree", avg_node_degree(params)),
                 ("rayleigh", big_m, "p_vehicle_one_side", 1.0 - isolated),
                 ("rayleigh", big_m, "p_vehicle_two_side", 1.0 - isolated**2)]
    return rows
