import functools
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from vanetconn import analytic
from vanetconn.analytic import (
    DivergentMeanError,
    avg_node_degree,
    avg_snr_rayleigh,
    avg_snr_ud,
    communication_range,
    p_network_ud,
    p_sl_rayleigh,
    p_sl_rayleigh_closed_alpha2,
    p_sl_ud_mth,
    p_vehicle_one_side_rayleigh,
    p_vehicle_rayleigh,
)
from vanetconn.numerics import upper_incomplete_gamma
from vanetconn.scenario import erlang_pdf


def _erfc_closed_form(rho, lam):
    # first-neighbour fading link probability for path-loss exponent 2
    a = rho * lam
    return (a * math.sqrt(math.pi) / 2.0) * math.exp(a * a / 4.0) * math.erfc(a / 2.0)


def test_first_neighbour_unit_disc_values(make_params):
    params = make_params()
    r = communication_range(params)
    assert abs(p_sl_ud_mth(params, 1) - (1.0 - math.exp(-params.rho * r))) < 1e-15
    assert abs(p_sl_ud_mth(params, 1) - 0.9915) < 1e-4
    # rho r = 1 gives 1 - 1/e
    params1 = make_params(rho=1.0 / r)
    assert abs(p_sl_ud_mth(params1, 1) - (1.0 - math.exp(-1.0))) < 1e-12
    # empty-road limit
    assert p_sl_ud_mth(make_params(rho=1e-12), 1) < 1e-9


def test_network_connectivity_unit_disc(make_params):
    params = make_params()
    r = communication_range(params)
    expected = (1.0 - math.exp(-params.rho * r)) ** (params.n_vehicles - 1)
    assert abs(p_network_ud(params) - expected) < 1e-12
    assert abs(p_network_ud(params) - 0.2008) < 1e-3
    # N = 2 collapses to the single link
    tiny = make_params(rho=1e-5)
    assert tiny.n_vehicles == 2
    assert abs(p_network_ud(tiny) - p_sl_ud_mth(tiny, 1)) < 1e-15
    # huge radius connects everyone
    assert p_network_ud(make_params(psi_db=-200.0)) > 1.0 - 1e-9


def test_network_connectivity_unit_disc_below_double_precision(make_params):
    # rho * lam ~ 1e-17: exp(-rho * lam) rounds to 1, yet 1 - e^-x = x holds
    params = make_params(rho=0.001, psi_db=340.0)
    x = params.rho * communication_range(params)
    assert 1e-18 < x < 2.0**-53 and math.exp(-x) == 1.0
    expected = (-math.expm1(-x)) ** (params.n_vehicles - 1)
    assert p_network_ud(params) == pytest.approx(expected, rel=1e-12)
    assert p_network_ud(make_params(rho=1e-5, psi_db=340.0)) == pytest.approx(-math.expm1(-x / 100))


def test_mth_neighbour_unit_disc(make_params):
    params = make_params()
    r = communication_range(params)
    assert p_sl_ud_mth(params, 1) == -math.expm1(-params.rho * r)
    t = params.rho * r
    hand_m2 = 1.0 - math.exp(-t) * (1.0 + t)
    assert abs(p_sl_ud_mth(params, 2) - hand_m2) < 1e-12
    assert abs(p_sl_ud_mth(params, 2) - 0.951) < 1e-3
    values = [p_sl_ud_mth(params, m) for m in range(1, 12)]
    assert all(a > b for a, b in zip(values, values[1:])), "monotone decreasing in m"


@pytest.mark.parametrize("m", [1, 2, 5, 10])
def test_mth_neighbour_matches_gap_density_quadrature(make_params, m):
    params = make_params()
    r = communication_range(params)
    oracle, _ = quad(lambda x: erlang_pdf(x, m, params.rho), 0.0, r)
    assert abs(p_sl_ud_mth(params, m) - oracle) < 1e-9, f"m={m}"


def test_fading_link_first_neighbour(make_params):
    params = make_params()
    expected = _erfc_closed_form(params.rho, communication_range(params))
    assert abs(p_sl_rayleigh(params, 1) - expected) < 1e-9
    assert abs(p_sl_rayleigh(params, 1) - 0.93) < 0.01
    # vanishing threshold: everything is above it
    assert abs(p_sl_rayleigh(make_params(psi_db=-250.0), 1) - 1.0) < 1e-9


def test_fading_crossover_against_unit_disc(make_params):
    params = make_params()
    assert p_sl_rayleigh(params, 1) < p_sl_ud_mth(params, 1)
    assert p_sl_rayleigh(params, 10) > p_sl_ud_mth(params, 10)
    # a single crossover index: fading below for every closer neighbour,
    # above for every farther one
    above = [p_sl_rayleigh(params, m) > p_sl_ud_mth(params, m) for m in range(1, 16)]
    m_star = above.index(True)
    assert 0 < m_star and all(above[m_star:]), above


def test_closed_form_first_neighbour_identity(make_params):
    params = make_params()
    expected = _erfc_closed_form(params.rho, communication_range(params))
    assert abs(p_sl_rayleigh_closed_alpha2(params, 1) - expected) < 1e-12


@pytest.mark.parametrize("rho", [0.005, 0.019, 0.05])
@pytest.mark.parametrize("psi_db", [5.0, 15.0, 25.0])
def test_closed_form_matches_quadrature_grid(make_params, rho, psi_db):
    params = make_params(rho=rho, psi_db=psi_db)
    for m in range(1, 11):
        q = p_sl_rayleigh(params, m)
        c = p_sl_rayleigh_closed_alpha2(params, m)
        assert abs(c - q) <= 1e-8 * q, f"m={m}: closed={c!r} quad={q!r}"


def test_closed_form_requirements(make_params):
    with pytest.raises(ValueError):
        p_sl_rayleigh_closed_alpha2(make_params(ple=3), 1)
    # rho^2 lam^2 / 4 past the double-precision guard (about 1250 and 9090):
    # the closed form comes from its recurrence
    for params in (make_params(rho=0.05, psi_db=0.0), make_params(rho=0.24, psi_db=5.0)):
        for m in range(1, 11):
            q = p_sl_rayleigh(params, m)
            c = p_sl_rayleigh_closed_alpha2(params, m)
            assert abs(c - q) <= 1e-8 * q, f"m={m}: closed={c!r} quad={q!r}"
    assert p_sl_rayleigh_closed_alpha2(make_params(rho=1e-9), 3) < 1e-6


@pytest.mark.parametrize("rho", [3.7e-12, 3.3e-10, 1e300])
def test_closed_form_where_a_squared_rounds_coarsely(make_params, rho):
    # a = rho * lam of about 5e6, 5e8 and inf: z = a*a/4 is off a^2/4 by
    # about -4e-4 and -1.4, then infinite
    params = make_params(rho=rho, psi_db=-300.0)
    for m in range(1, 4):
        q = p_sl_rayleigh(params, m)
        c = p_sl_rayleigh_closed_alpha2(params, m)
        assert abs(c - q) <= 1e-8 * q, f"m={m}: closed={c!r} quad={q!r}"


@functools.lru_cache(maxsize=None)
def _gammainc_half(k, z, dps):
    # Gamma(k/2, z) at dps digits; every m at one z shares these
    with mpmath.workdps(dps):
        return mpmath.gammainc(mpmath.mpf(k) / 2, a=z)


def _closed_form_mp_gammainc(m, a, z):
    # the high-precision sum as it was first written, with each incomplete
    # gamma from mpmath.gammainc: the reference the recurrence must reproduce
    prev = None
    dps = 40
    while dps <= 640:
        with mpmath.workdps(dps):
            half_a = mpmath.mpf(a) / 2
            total = mpmath.fsum(
                mpmath.binomial(m - 1, k)
                * (-half_a) ** k
                * _gammainc_half(m - k, z, dps)
                for k in range(m)
            )
            value = float(
                mpmath.mpf(a) ** m * mpmath.exp(z) * total / (2 * mpmath.factorial(m - 1))
            )
        if prev is not None and abs(value - prev) <= 1e-13 * max(abs(value), 1e-300):
            return value
        prev = value
        dps *= 2
    raise ArithmeticError("alternating sum did not stabilise at high precision")


# log-spaced over [1e-3, 200], plus three values with a^2/4 past the double
# precision guard of 700 (about 700, 1250 and 9025)
_ESCALATION_A = [float(a) for a in np.logspace(-3, math.log10(200.0), 13)] + [52.9, 70.7, 190.0]


@pytest.mark.parametrize("a", _ESCALATION_A)
def test_closed_form_mp_is_bit_identical_to_gammainc_sum(a):
    # the recurrence against the high-precision sum: within 1e-14 relative,
    # and the same 12 significant digits the CSV prints
    z = 0.25 * a * a
    for m in range(1, 41):
        got = analytic._closed_form_mp(m, a, z)
        expected = _closed_form_mp_gammainc(m, a, z)
        assert abs(got - expected) <= 1e-14 * expected, f"m={m}"
        assert f"{got:.12g}" == f"{expected:.12g}", f"m={m}"


def _closed_form_mp_per_step(m, a, z):
    # the recurrence as it ran before its backward coefficients came from one
    # numpy expression: a single backward loop that tests k <= m on every step
    if math.isinf(a) or math.isinf(z):
        return 1.0
    if a < analytic._FORWARD_BELOW:
        prev = 1.0
        value = 0.5 * a * math.sqrt(math.pi) * math.exp(0.25 * a * a) * math.erfc(0.5 * a)
        for k in range(1, m):
            prev, value = value, (prev - value) * a * a / (2 * k)
    else:
        a2 = a * a
        ratio = 0.0
        value = 1.0
        for k in range(m + 200 + math.ceil(2000.0 / a2), 0, -1):
            ratio = 1.0 / (1.0 + 2.0 * k / a2 * ratio)
            if k <= m:
                value *= ratio
    an, ad = a.as_integer_ratio()
    zn, zd = z.as_integer_ratio()
    delta = (4 * zn * ad * ad - an * an * zd) / (4 * zd * ad * ad)
    if abs(delta) < analytic._FIRST_ORDER_DELTA:
        value += delta * (value - (m == 1))
    return value


def test_closed_form_mp_gives_the_per_step_bits():
    rng = np.random.default_rng(1812)
    # mostly the backward branch (a >= 0.5), whose loop changed; some forward
    a = np.concatenate([rng.uniform(0.5, 40.0, 600), np.exp(rng.uniform(-7.0, math.log(0.5), 100))])
    m = rng.integers(1, 41, a.size)
    for m_i, a_i in zip(m.tolist(), a.tolist()):
        z = 0.25 * a_i * a_i
        got = analytic._closed_form_mp(m_i, a_i, z)
        assert got == _closed_form_mp_per_step(m_i, a_i, z), (m_i, a_i)


def _closed_form_per_call(params, m):
    # the closed form with every term calling upper_incomplete_gamma itself,
    # so that one that overflows raises
    a = params.rho * communication_range(params)
    z = 0.25 * a * a
    if z >= analytic._EXP_GUARD:
        return min(1.0, analytic._closed_form_mp(m, a, z))
    half_a = 0.5 * a
    try:
        terms = [math.comb(m - 1, k) * (-half_a) ** k * upper_incomplete_gamma(0.5 * (m - k), z)
                 for k in range(m)]
    except OverflowError:
        return min(1.0, analytic._closed_form_mp(m, a, z))
    total, abs_total = analytic._kahan_sum(terms)
    if not (total > 0.0 and abs_total / total <= analytic._CANCELLATION_ESCALATE):
        return min(1.0, analytic._closed_form_mp(m, a, z))
    log_pref = m * math.log(a) + z - math.log(2.0) - math.lgamma(m)
    return min(1.0, math.exp(log_pref + math.log(total)))


@pytest.mark.parametrize("rho, psi_db, neighbours", [
    # the sum, then escalations from m = 340; from m = 344 an incomplete gamma
    # overflows
    (0.0002, -10.0, [*range(1, 41), *range(340, 351)]),
    (0.019, 15.0, range(1, 41)),
    # deep cancellations, and from m = 234 a term that overflows
    (0.03, 0.0, [*range(1, 41), *range(230, 240)]),
    # a^2/4 past 700: no incomplete gamma at all
    (0.3, 0.0, range(1, 41)),
])
def test_closed_form_gives_the_same_bits_whatever_the_memo_holds(
        make_params, rho, psi_db, neighbours):
    # a scalar value computes the incomplete gammas of its own m, a span those
    # of its largest m once for all (no memo is left; the name keeps the id)
    params = make_params(rho=rho, psi_db=psi_db)
    expected = {m: _closed_form_per_call(params, m) for m in neighbours}
    scalar = {m: p_sl_rayleigh_closed_alpha2(params, m) for m in neighbours}
    ms = range(1, max(neighbours) + 1)
    span = dict(zip(ms, analytic._closed_forms(params, ms)))
    assert scalar == expected == {m: span[m] for m in neighbours}


def test_vehicle_connectivity_cache_gives_the_uncached_values(make_params):
    # every p_sl_rayleigh value from its own quadrature, against the products'
    # one batch per span (no cache is left; the name keeps the id)
    def reference(params, big_m):
        prod = 1.0
        for m in range(1, big_m + 1):
            prod *= 1.0 - analytic._link_probabilities(params, range(m, m + 1))[0]
        return 1.0 - prod, 1.0 - prod**2

    first, second = make_params(rho=0.011, psi_db=7.0), make_params(rho=0.023, psi_db=7.0)
    expected = {params: reference(params, 10) for params in (first, second)}
    longer = reference(first, 12)
    for params in (first, first, second, first, second, second):
        got = (p_vehicle_one_side_rayleigh(params, 10), p_vehicle_rayleigh(params, 10))
        assert got == expected[params]
    assert p_vehicle_one_side_rayleigh(first, 12) == longer[0]


def _scalar_rows(params, big_m):
    # the rows of point_rows for both models, each from its public function
    def snr(fn, m):
        try:
            return fn(params, m)
        except DivergentMeanError:
            return "diverges"

    ms = range(1, big_m + 1)
    lam = communication_range(params)
    rows = [("unit_disc", None, "unit_disc_range_m", lam)]
    rows += [("unit_disc", m, "p_single_link", p_sl_ud_mth(params, m)) for m in ms]
    rows += [("unit_disc", m, "avg_snr", snr(avg_snr_ud, m)) for m in ms]
    rows += [("unit_disc", None, "p_network", p_network_ud(params)),
             ("unit_disc", None, "p_vehicle_one_side", p_sl_ud_mth(params, 1)),
             ("unit_disc", None, "avg_node_degree", 2.0 * params.rho * lam)]
    rows += [("rayleigh", m, "p_single_link", p_sl_rayleigh(params, m)) for m in ms]
    if params.ple == 2:
        rows += [("rayleigh", m, "p_single_link_closed", p_sl_rayleigh_closed_alpha2(params, m))
                 for m in ms]
    rows += [("rayleigh", m, "avg_snr", snr(avg_snr_rayleigh, m)) for m in ms]
    rows += [("rayleigh", None, "avg_node_degree", avg_node_degree(params)),
             ("rayleigh", big_m, "p_vehicle_one_side", p_vehicle_one_side_rayleigh(params, big_m)),
             ("rayleigh", big_m, "p_vehicle_two_side", p_vehicle_rayleigh(params, big_m))]
    return rows


_MODEL_SUBSETS = [(), ("unit_disc",), ("rayleigh",), ("unit_disc", "rayleigh"),
                  ("rayleigh", "unit_disc")]
_PSI_DB = (-10.0, 0.0, 20.0)
_RHO = (0.0002, 0.019, 0.3)


def _assert_rows_match_the_scalars(params, big_m):
    expected = _scalar_rows(params, big_m)
    for models in _MODEL_SUBSETS:
        assert analytic.point_rows(params, big_m, models) == [
            row for row in expected if row[0] in models], models


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_point_rows_equal_the_scalar_functions(make_params, alpha):
    for psi_db in _PSI_DB:
        for rho in _RHO:
            _assert_rows_match_the_scalars(make_params(rho=rho, psi_db=psi_db, ple=alpha), 10)


def test_point_rows_equal_the_scalar_functions_past_the_gamma_overflow(make_params):
    # the closed form escalates from m = 340, and from m = 344 an incomplete
    # gamma overflows
    _assert_rows_match_the_scalars(make_params(rho=0.0002, psi_db=-10.0), 400)


def test_point_rows_do_not_depend_on_the_points_before(make_params):
    points = [make_params(rho=rho, psi_db=psi_db, ple=alpha)
              for alpha in (1, 2, 3) for psi_db in _PSI_DB for rho in _RHO]
    models = ("unit_disc", "rayleigh")
    forward = [analytic.point_rows(params, 10, models) for params in points]
    again = [analytic.point_rows(params, 10, models) for params in [*reversed(points), *points]]
    assert again == [*reversed(forward), *forward]


def _p_sl_rayleigh_mp(params, m):
    # P(m) at 40 digits: the Erlang gap density times e^(-c x^alpha), split at
    # multiples of the threshold length scale
    lam = communication_range(params)
    with mpmath.workdps(40):
        rho = mpmath.mpf(params.rho)
        c = (mpmath.mpf(params.psi) * params.noise_power
             / (mpmath.mpf(params.beta) * params.tx_power))

        def density(x):
            return (rho**m * x ** (m - 1) / mpmath.factorial(m - 1)
                    * mpmath.exp(-rho * x - c * x**params.ple))

        return float(mpmath.quad(density, [0, *(k * lam for k in (0.5, 1, 2, 4, 8)), mpmath.inf]))


@pytest.mark.parametrize("rho, psi_db, neighbours", [
    (0.006, 15.0, range(25, 41)),
    (0.008, 14.0, [31]),
    (0.008, 16.0, [28]),
])
def test_tiny_link_probabilities_hold_relative_accuracy(make_params, rho, psi_db, neighbours):
    # values from 1e-14 down to 6e-26, which an absolute 1e-14 error bound
    # left uncertified (off by up to 9e-4 at the last two points)
    params = make_params(rho=rho, psi_db=psi_db)
    for m in neighbours:
        expected = _p_sl_rayleigh_mp(params, m)
        q = p_sl_rayleigh(params, m)
        c = p_sl_rayleigh_closed_alpha2(params, m)
        assert expected < 3e-14, f"m={m}"
        assert abs(q - expected) <= 1e-10 * expected, f"m={m}: quad={q!r} mp={expected!r}"
        assert abs(c - q) <= 1e-10 * q, f"m={m}: closed={c!r} quad={q!r}"


def test_average_snr_reference_value(make_params):
    params = make_params()
    # beta P_T rho^2 / P_noise / ((m-1)(m-2)) at m = 3
    expected = 10.0 * 10**3.3 * 0.019**2 / 0.01 / 2.0
    assert abs(avg_snr_rayleigh(params, 3) - expected) < 1e-12 * expected
    assert abs(expected - 360.1) < 0.1


def test_average_snr_identity_and_divergence(make_params):
    params = make_params()
    for m in range(3, 11):
        ud = avg_snr_ud(params, m)
        ray = avg_snr_rayleigh(params, m)
        assert abs(ud - ray) <= 1e-12 * ray, f"m={m}"
    for m in (1, 2):
        with pytest.raises(DivergentMeanError):
            avg_snr_rayleigh(params, m)
        with pytest.raises(DivergentMeanError):
            avg_snr_ud(params, m)


def test_average_snr_scalings(make_params):
    params = make_params()
    doubled_power = make_params(tx_power=2 * params.tx_power)
    assert abs(avg_snr_rayleigh(doubled_power, 5) / avg_snr_rayleigh(params, 5) - 2.0) < 1e-12
    doubled_rho = make_params(rho=2 * params.rho)
    assert abs(avg_snr_ud(doubled_rho, 5) / avg_snr_ud(params, 5) - 4.0) < 1e-12


def test_node_degree_closed_form(make_params):
    params = make_params()
    lam = communication_range(params)
    assert abs(avg_node_degree(params) - params.rho * lam * math.sqrt(math.pi)) < 1e-9
    assert abs(avg_node_degree(params) - 8.46) < 0.01
    # linear in density
    assert abs(avg_node_degree(make_params(rho=0.038)) / avg_node_degree(params) - 2.0) < 1e-9
    # exponent 1: the integral is lam exactly, also where it is tiny
    for psi_db in (15.0, 300.0):
        p1 = make_params(ple=1, psi_db=psi_db)
        expected = 2.0 * p1.rho * communication_range(p1)
        assert avg_node_degree(p1) == pytest.approx(expected, rel=1e-14, abs=0.0)
    # larger exponents against the quadrature of 2 rho e^(-c x^alpha)
    for alpha in (3, 4, 6):
        pa = make_params(ple=alpha)
        lam = communication_range(pa)
        c = pa.psi * pa.noise_power / (pa.beta * pa.tx_power)
        integral, _ = quad(lambda x: math.exp(-c * x**alpha), 0.0, lam * 60.0 ** (1.0 / alpha),
                           epsabs=1e-14, epsrel=1e-12)
        assert avg_node_degree(pa) == pytest.approx(2.0 * pa.rho * integral, rel=1e-9)


@pytest.mark.parametrize("rho, psi_db", [(0.002, 0.0), (0.03, 0.0), (0.03, 20.0)])
def test_closed_form_escalates_where_its_sum_overflows(make_params, rho, psi_db):
    # corners of the analytic-grid grid: from m = 331, 231 and 325 a term or
    # the sum overflows, and from m = 344 math.gamma raises; the recurrence
    # takes over instead of min(1.0, nan) returning 1
    params = make_params(rho=rho, psi_db=psi_db)
    a = rho * communication_range(params)
    for m in range(200, 401):
        value = p_sl_rayleigh_closed_alpha2(params, m)
        assert value == analytic._closed_form_mp(m, a, 0.25 * a * a), m
        assert value < 1e-6, m


def test_vehicle_connectivity_composition(make_params):
    params = make_params()
    assert abs(
        p_vehicle_one_side_rayleigh(params, 1) - p_sl_rayleigh(params, 1)
    ) < 1e-12
    values = [p_vehicle_one_side_rayleigh(params, big_m) for big_m in range(1, 11)]
    assert all(b >= a for a, b in zip(values, values[1:])), "nondecreasing in the span"
    one = p_vehicle_one_side_rayleigh(params, 10)
    assert abs(p_vehicle_rayleigh(params, 10) - (1.0 - (1.0 - one) ** 2)) < 1e-12
    assert p_vehicle_rayleigh(make_params(rho=1e-10), 5) < 1e-6
    assert p_vehicle_rayleigh(make_params(psi_db=-250.0), 3) > 1.0 - 1e-9


def test_probability_ranges_and_monotonicity(make_params):
    rhos = [0.004, 0.012, 0.03]
    psis = [5.0, 15.0, 25.0]
    metrics = [
        lambda p: p_sl_ud_mth(p, 1),
        lambda p: p_network_ud(p),
        lambda p: p_sl_ud_mth(p, 4),
        lambda p: p_sl_rayleigh(p, 4),
        lambda p: p_vehicle_rayleigh(p, 5),
    ]
    for metric in metrics:
        for psi_db in psis:
            values = [metric(make_params(rho=r, psi_db=psi_db)) for r in rhos]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), \
                "nondecreasing in density"
        for rho in rhos:
            values = [metric(make_params(rho=rho, psi_db=p)) for p in psis]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), \
                "nonincreasing in threshold"


def test_neighbour_index_validation(make_params):
    params = make_params()
    for fn in (p_sl_ud_mth, p_sl_rayleigh, p_sl_rayleigh_closed_alpha2,
               avg_snr_rayleigh, avg_snr_ud):
        with pytest.raises(ValueError):
            fn(params, 0)
    with pytest.raises(ValueError):
        p_vehicle_rayleigh(params, 0)
