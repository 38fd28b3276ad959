import collections
import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from vanetconn import analytic, cli
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


def _seeded_lanes():
    # (m, a, a*a/4): mostly the backward branch (a >= 0.5), whose loop
    # changed; some forward
    rng = np.random.default_rng(1812)
    a = np.concatenate([rng.uniform(0.5, 40.0, 600), np.exp(rng.uniform(-7.0, math.log(0.5), 100))])
    m = rng.integers(1, 41, a.size)
    return [(m_i, a_i, 0.25 * a_i * a_i) for m_i, a_i in zip(m.tolist(), a.tolist())]


def test_closed_form_mp_gives_the_per_step_bits():
    for m_i, a_i, z in _seeded_lanes():
        got = analytic._closed_form_mp(m_i, a_i, z)
        assert got == _closed_form_mp_per_step(m_i, a_i, z), (m_i, a_i)


def _assert_lanes_give_the_scalar_bits(lanes):
    got = analytic._closed_forms_mp(lanes)
    assert len(got) == len(lanes)
    for lane, value in zip(lanes, got):
        assert value == _closed_form_mp_per_step(*lane), lane


def _backward(lanes):
    return [(m, a, z) for m, a, z in lanes if a >= analytic._FORWARD_BELOW and not math.isinf(a)]


def test_lane_solver_gives_the_scalar_bits_on_the_seeded_lanes():
    lanes = _seeded_lanes()
    assert len(_backward(lanes)) == 600
    _assert_lanes_give_the_scalar_bits(lanes)


def test_lane_solver_gives_the_scalar_bits_on_the_corner_grid(make_params, monkeypatch):
    # the escalations of the --big-m 400 golden grid, taken from its closed forms
    points = [make_params(rho=rho, psi_db=psi_db)
              for rho in (0.0002, 0.002, 0.03, 0.3) for psi_db in (-10.0, 0.0, 20.0)]
    batches = []
    solve = analytic._closed_forms_mp

    def capture(lanes):
        batches.append(lanes)
        return solve(lanes)

    monkeypatch.setattr(analytic, "_closed_forms_mp", capture)
    analytic._closed_forms(points, range(1, 401))
    monkeypatch.undo()
    [lanes] = batches
    backward = _backward(lanes)
    assert len(backward) == 3483
    assert max(analytic._backward_depth(m, a * a) for m, a, _ in backward) == 3106
    _assert_lanes_give_the_scalar_bits(lanes)


def test_lane_solver_gives_the_scalar_bits_for_deep_lanes():
    # a = 0.5 starts 8 000 steps deeper than the 100 shallow lanes, so nearly
    # all of its steps run before the numpy recurrence takes over; m = 300
    # at a = 20 starts multiplying its ratios before it does
    shallow = [(m, 30.0 + 0.1 * m, 0.25 * (30.0 + 0.1 * m) ** 2) for m in range(1, 101)]
    deep = [(40, 0.5, 0.0625), (300, 20.0, 100.0)]
    assert analytic._closed_form_mp(*deep[1]) > 0.0
    _assert_lanes_give_the_scalar_bits([*shallow[:50], deep[0], *shallow[50:], deep[1]])


@pytest.mark.parametrize("size", [1, 63, 64, 65, 700])
def test_lane_solver_gives_the_per_step_bits_whatever_the_batch_size(size):
    # below _MIN_LANES lanes a batch steps in Python floats only, from it on
    # in numpy too: the seeded lanes in batches of each size, 700 being one
    lanes = _seeded_lanes()
    assert len(lanes) == 700
    got = [value for i in range(0, len(lanes), size)
           for value in analytic._closed_forms_mp(lanes[i:i + size])]
    assert got == [_closed_form_mp_per_step(*lane) for lane in lanes]


def _closed_form_sum_per_term(m, a, z, gamma=upper_incomplete_gamma):
    # the compensated sum as one scalar Kahan loop, each term calling gamma
    # itself; where the value escalates, why
    if z >= analytic._EXP_GUARD:
        return "z >= 700"
    half_a = 0.5 * a
    total = comp = abs_total = 0.0
    for k in range(m):
        try:
            coefficient = math.comb(m - 1, k) * (-half_a) ** k
        except OverflowError:
            return "term overflows"
        try:
            v = coefficient * gamma(0.5 * (m - k), z)
        except OverflowError:
            return "gamma overflows"
        abs_total += abs(v)
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if not (total > 0.0 and abs_total / total <= analytic._CANCELLATION_ESCALATE):
        return "uncertified"
    log_pref = m * math.log(a) + z - math.log(2.0) - math.lgamma(m)
    return math.exp(log_pref + math.log(total))


def _closed_form_per_call(params, m):
    # the closed form with every term calling upper_incomplete_gamma itself,
    # so that one that overflows raises
    a = params.rho * communication_range(params)
    z = 0.25 * a * a
    value = _closed_form_sum_per_term(m, a, z)
    return min(1.0, analytic._closed_form_mp(m, a, z) if isinstance(value, str) else value)


def _assert_sum_lanes_give_the_scalar_sums(a_s, ms, scalar_gamma):
    # every (a, m) lane: the same certified value, or escalated where the
    # scalar loop over the scalar incomplete gamma escalates; returns why
    # each escalated lane escalates
    z_s = [0.25 * a * a for a in a_s]
    values, certified = analytic._closed_form_sums(a_s, z_s, ms)
    assert values.shape == certified.shape == (len(a_s), len(ms))
    reasons = {}
    for i, (a, z) in enumerate(zip(a_s, z_s)):
        gamma = functools.cache(scalar_gamma)
        for j, m in enumerate(ms):
            expected = _closed_form_sum_per_term(m, a, z, gamma)
            if isinstance(expected, str):
                assert not certified[i, j], (a, m, expected)
                reasons.setdefault(expected, []).append((a, m))
            else:
                assert certified[i, j] and values[i, j] == expected, (a, m)
    return reasons


def test_sum_lanes_give_the_scalar_sums_on_the_seeded_lanes(scalar_upper_gamma):
    a_s = sorted({a for _, a, _ in _seeded_lanes()})
    reasons = _assert_sum_lanes_give_the_scalar_sums(a_s, range(1, 41), scalar_upper_gamma)
    assert set(reasons) == {"uncertified"}


def test_sum_lanes_give_the_scalar_sums_on_the_corner_grid(make_params, scalar_upper_gamma):
    # the --big-m 400 golden grid: every way a sum escalates
    points = [make_params(rho=rho, psi_db=psi_db)
              for rho in (0.0002, 0.002, 0.03, 0.3) for psi_db in (-10.0, 0.0, 20.0)]
    a_s = [params.rho * communication_range(params) for params in points]
    reasons = _assert_sum_lanes_give_the_scalar_sums(a_s, range(1, 401), scalar_upper_gamma)
    assert min(m for _, m in reasons["term overflows"]) == 234
    assert min(m for _, m in reasons["gamma overflows"]) == 344
    assert len(reasons["z >= 700"]) == 1200
    assert reasons["uncertified"]


@pytest.mark.parametrize("m", [1, 2, 40, 234, 344, 400])
def test_sum_lanes_give_the_scalar_sums_for_one_neighbour(make_params, scalar_upper_gamma, m):
    # a span that starts at m, as the scalar function passes it
    a_s = [params.rho * communication_range(params) for params in (
        make_params(rho=0.0002, psi_db=-10.0), make_params(rho=0.03, psi_db=0.0),
        make_params(rho=0.019, psi_db=15.0))]
    _assert_sum_lanes_give_the_scalar_sums(a_s, range(m, m + 1), scalar_upper_gamma)


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
    span = dict(zip(ms, analytic._closed_forms([params], ms)[0]))
    assert scalar == expected == {m: span[m] for m in neighbours}


def _link_one_integral(params, m):
    # P(m) integrated on a row of its own with the single-point integrand:
    # log_norm + power log x - rho x - c x^alpha, in that order
    rho, alpha = params.rho, params.ple
    c = params.psi * params.noise_power / (params.beta * params.tx_power)
    lam = communication_range(params)
    upper = min((50.0 + 2.0 * m) / rho, lam * (50.0 + 2.0 * m) ** (1.0 / alpha))
    log_norm = m * math.log(rho) - math.lgamma(m)

    def integrand(x, *_):
        y = np.log(x)
        y *= m - 1.0
        y += log_norm
        y -= rho * x
        y -= c * x**alpha
        return np.exp(y)

    value, _ = analytic.integrate_semi_infinite(integrand, np.array([upper]), np.array([0]))
    return min(max(float(value[0]), 0.0), 1.0)


@pytest.mark.parametrize("alpha", [1, 2, 3, 4, 6])
def test_chunk_link_probabilities_equal_one_point_calls(make_params, monkeypatch, alpha):
    # four densities by four thresholds: the lanes cut at the gap scale
    # share a row across the thresholds, those cut at the channel scale
    # across the densities; every value keeps the bits of its point alone
    points = [make_params(rho=rho, psi_db=psi_db, ple=alpha)
              for rho in (1e-6, 0.019, 0.3, 100.0) for psi_db in (-300.0, -10.0, 20.0, 300.0)]
    ms = range(1, 401)
    batches = []
    integrate = analytic.integrate_semi_infinite

    def recorded(f, upper, rows):
        batches.append((upper, rows))
        return integrate(f, upper, rows)

    monkeypatch.setattr(analytic, "integrate_semi_infinite", recorded)
    chunk = analytic._link_probabilities(points, ms)
    monkeypatch.undo()
    (upper, rows), = batches
    lanes = np.arange(len(rows)) // len(ms)
    shared = [(len({points[i].rho for i in lanes[rows == r].tolist()}),
               len({points[i].psi for i in lanes[rows == r].tolist()})) for r in range(len(upper))]
    assert any(n_rho == 1 and n_psi > 1 for n_rho, n_psi in shared), "no gap-scale row is shared"
    assert any(n_rho > 1 and n_psi == 1 for n_rho, n_psi in shared), "no channel-scale row is shared"
    assert chunk == [analytic._link_probabilities([params], ms)[0] for params in points]
    for params, links in zip(points, chunk):
        for m in (1, 2, 3, 10, 57, 200, 400):
            assert links[m - 1] == p_sl_rayleigh(params, m) == _link_one_integral(params, m), m


@pytest.mark.parametrize("models", [("unit_disc",), ("rayleigh",)])
def test_grid_rows_rejects_points_of_two_path_loss_exponents(make_params, monkeypatch, models):
    # the points of a grid share the first point's exponent, in every chunk
    mixed = [make_params(ple=2), make_params(ple=3)]
    with pytest.raises(ValueError, match="path-loss exponent 2"):
        next(analytic.grid_rows(mixed, 3, models))
    monkeypatch.setattr(analytic, "_GRID_CHUNK", 1)
    rows = analytic.grid_rows(mixed, 3, models)
    assert next(rows) == analytic.point_rows(mixed[0], 3, models)
    with pytest.raises(ValueError, match="path-loss exponent 2"):
        next(rows)


def test_grid_rows_peak_memory_stays_at_the_per_point_quadrature(make_params):
    # the 165-point analytic-grid workload: its link probabilities run in
    # blocks of lanes, so the traced peak of the whole grid stays at or below
    # 390 106 bytes, the peak of one quadrature call per point (numpy 2.4,
    # CPython 3.11)
    points = [make_params(rho=rho, psi_db=psi_db)
              for rho in cli._parse_value_spec("0.002:0.03:0.002")
              for psi_db in cli._parse_value_spec("0:20:2")]
    models = ("unit_disc", "rayleigh")
    # a first pass fills the quadrature's cached rule tables
    for _ in analytic.grid_rows(points, 10, models):
        pass
    tracemalloc.start()
    try:
        for _ in analytic.grid_rows(points, 10, models):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 390_106


def test_vehicle_connectivity_cache_gives_the_uncached_values(make_params):
    # every p_sl_rayleigh value from its own quadrature, against the products'
    # one batch per span (no cache is left; the name keeps the id)
    def reference(params, big_m):
        prod = 1.0
        for m in range(1, big_m + 1):
            prod *= 1.0 - analytic._link_probabilities([params], range(m, m + 1))[0][0]
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


_TX_MW = (500.0, 2000.0, 2000.0, 8000.0)


@pytest.mark.parametrize("grid", ["rho-major", "psi-major", "tx-power"])
def test_grid_rows_read_the_average_snrs_of_each_density(make_params, monkeypatch, grid):
    # grid_rows computes a model's average SNRs once for each run of points
    # with equal rho and radio budget; every point keeps its own rows, also
    # where consecutive points share rho but not the transmit power
    if grid == "rho-major":
        points = [make_params(rho=rho, psi_db=psi_db) for rho in _RHO for psi_db in _PSI_DB]
    elif grid == "psi-major":
        points = [make_params(rho=rho, psi_db=psi_db) for psi_db in _PSI_DB for rho in _RHO]
    else:
        points = [make_params(rho=rho, tx_power=tx) for rho in _RHO for tx in _TX_MW]
    runs = 1 + sum((p.rho, p.budget) != (q.rho, q.budget) for p, q in zip(points, points[1:]))
    assert runs == {"rho-major": 3, "psi-major": 9, "tx-power": 9}[grid]
    calls = []

    def counted(model, average):
        def wrapper(params, m):
            calls.append(model)
            return average(params, m)
        return wrapper

    monkeypatch.setattr(analytic, "avg_snr_ud", counted("unit_disc", avg_snr_ud))
    monkeypatch.setattr(analytic, "avg_snr_rayleigh", counted("rayleigh", avg_snr_rayleigh))
    for models in _MODEL_SUBSETS:
        expected = [analytic.point_rows(params, 5, models) for params in points]
        calls.clear()
        assert list(analytic.grid_rows(points, 5, models)) == expected, models
        # m = 3..5 have a finite mean at path-loss exponent 2
        assert collections.Counter(calls) == {model: 3 * runs for model in models}, models


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


@pytest.mark.parametrize("average, model", [(avg_snr_rayleigh, "rayleigh"),
                                            (avg_snr_ud, "unit_disc")])
def test_average_snr_overflow_names_its_model_and_m(make_params, average, model):
    # rho^2 overflows a float in the fading average and e^(2 log rho) in the
    # unit disc's; the error says which value, not just "out of range"
    with pytest.raises(OverflowError) as error:
        average(make_params(rho=1e300), 3)
    assert str(error.value) == f"{model} avg_snr at m=3 overflows a float"


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
