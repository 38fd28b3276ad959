import math

import numpy as np
import pytest
from scipy.integrate import quad

from vanetconn import analytic, numerics
from vanetconn.numerics import (
    QuadratureError,
    integrate_semi_infinite,
    upper_incomplete_gamma,
)


def _integrate_one(f, upper):
    """One integral on [0, upper], alone on its abscissa row: (value, abserr)."""
    values, err = integrate_semi_infinite(f, np.array([upper]), np.array([0]))
    return values[0], err


def test_exponential_integral():
    value, err = _integrate_one(lambda x, *_: np.exp(-x), 60.0)
    assert abs(value - 1.0) < 1e-10
    assert err < 1e-9


def test_gamma_two_integral():
    value, _ = _integrate_one(lambda x, *_: x * np.exp(-x), 80.0)
    assert abs(value - 1.0) < 1e-10


def test_shifted_gaussian_against_erfc_closed_form():
    # integral of e^(-a x - b x^2) over [0, inf)
    # = sqrt(pi/(4 b)) * e^(a^2/(4 b)) * erfc(a / (2 sqrt(b)))
    a = 0.019
    b = 1.0 / 251.2**2
    expected = math.sqrt(math.pi / (4 * b)) * math.exp(a * a / (4 * b)) * math.erfc(
        a / (2 * math.sqrt(b))
    )
    value, _ = _integrate_one(lambda x, *_: np.exp(-a * x - b * x * x), 50.0 / a)
    assert abs(expected - 48.7) < 0.2, "sanity: the frozen magnitude of the oracle"
    assert abs(value - expected) < 1e-8 * expected


def test_nonconvergence_is_an_explicit_failure():
    # about 6400 oscillations on [0, 50] exhaust the 256 panels
    with pytest.raises(QuadratureError):
        _integrate_one(lambda x, *_: np.sin(400.0 * x) ** 2 * np.exp(-x), 50.0)


def test_bisected_panels_certify_an_oscillating_integrand():
    # e^-x sin^2(k x) integrates to (1 - 1/(1 + 4 k^2)) / 2; at k = 20 and 40
    # the 16 starting panels fail their check and the rule reruns on more
    for k in (20.0, 40.0):
        expected = 0.5 - 0.5 / (1.0 + 4.0 * k * k)
        value, err = _integrate_one(lambda x, *_: np.exp(-x) * np.sin(k * x) ** 2, 50.0)
        assert abs(value - expected) < 1e-12 * expected, f"k={k}"
        assert err <= 1e-10 * value


def test_error_bound_is_relative_to_a_tiny_value():
    value, err = _integrate_one(lambda x, *_: 1e-250 * np.exp(-x), 60.0)
    assert abs(value - 1e-250) < 1e-13 * 1e-250
    assert err <= 1e-10 * value


def _oscillating(k):
    # e^-x sin^2(k x) for integral i at k[i]; k = 20 and 40 fail the 16
    # starting panels and rerun on more
    return lambda x, ids, at, lanes: np.exp(-x[at]) * np.sin(k[lanes, None] * x[at]) ** 2


def test_each_integral_of_a_batch_is_its_own():
    # one integral per row, some rerun on more panels and some not: every
    # value is the bits it has alone, and the error estimate is the largest one
    k = np.array([1.0, 40.0, 3.0, 20.0])
    upper = np.array([50.0, 50.0, 30.0, 60.0])
    values, err = integrate_semi_infinite(_oscillating(k), upper, np.arange(4))
    assert values.shape == (4,) and isinstance(err, float)
    alone = [_integrate_one(_oscillating(k[i:i + 1]), upper[i]) for i in range(4)]
    assert values.tolist() == [v for v, _ in alone]
    assert err == max(e for _, e in alone)


def test_integrals_that_share_a_row_keep_the_bits_they_have_alone():
    # 40 integrals on 3 abscissa rows, more than one block of lanes, the
    # lanes of a row in no particular order and two of them rerun on more
    # panels: each integral's value is the bits it has on a row of its own
    rng = np.random.default_rng(5)
    k = rng.uniform(0.5, 4.0, size=40)
    k[[7, 30]] = 20.0, 40.0
    rows = rng.integers(0, 3, size=40)
    upper = np.array([50.0, 30.0, 60.0])
    calls = []

    def integrand(x, ids, at, lanes):
        calls.append((x.shape[1] // 60, len(lanes)))
        assert len(x) == len(ids) <= len(lanes) and (at < len(ids)).all()
        assert (rows[lanes] == ids[at]).all()
        return _oscillating(k)(x, ids, at, lanes)

    values, err = integrate_semi_infinite(integrand, upper, rows)
    assert values.shape == (40,) and isinstance(err, float)
    alone = [_integrate_one(_oscillating(k[i:i + 1]), upper[rows[i]]) for i in range(40)]
    assert values.tolist() == [v for v, _ in alone]
    assert err == max(e for _, e in alone)
    # (panels, lanes) of each block: at most 12 lanes on the first panels,
    # half as many each time they double, and only the reruns go on
    assert calls == [(16, 12), (16, 12), (16, 12), (16, 4), (32, 2), (64, 2), (128, 1)]


def test_link_integrals_certify_on_their_first_panels(monkeypatch, make_params):
    # the rule is sized so that link-probability integrals certify on their
    # first 16 panels: over the corners of the path-loss exponent, threshold
    # and density, every abscissa row is laid on 16 panels and none on more
    shapes = []
    abscissae = numerics._abscissae

    def recorded(width, panels):
        shapes.append(panels)
        return abscissae(width, panels)

    monkeypatch.setattr(numerics, "_abscissae", recorded)
    for ple in (1, 2, 3, 4, 6):
        points = [make_params(rho=rho, psi_db=psi_db, ple=ple)
                  for psi_db in (-300.0, 0.0, 15.0, 300.0) for rho in (1e-6, 0.019, 1.0)]
        shapes.clear()
        analytic._link_probabilities(points, range(1, 401))
        assert set(shapes) == {16}, ple


def test_cached_panel_edges_are_read_only():
    # every integration with a panel count shares one tiled rule: its
    # nodes, weights, panel edges and panels column by column
    for panels in (16, 32):
        nodes, weights, rule_edges, columns = numerics._tiled_rule(panels)
        assert numerics._tiled_rule(panels)[2] is rule_edges
        left = np.linspace(0.0, 1.0, panels + 1)[:-1]
        right = np.linspace(0.0, 1.0, panels + 1)[1:]
        assert weights.tolist() == (numerics._FINE_WEIGHTS.tolist() * panels
                                    + numerics._CHECK_WEIGHTS.tolist() * panels)
        assert nodes.tolist() == (numerics._FINE_NODES.tolist() * panels
                                  + numerics._CHECK_NODES.tolist() * panels)
        assert rule_edges.tolist() == [left.tolist() * 2, right.tolist() * 2]
        assert columns.tolist() == [40] * panels + [20] * panels
        for edges in (nodes, weights, rule_edges, columns):
            assert not edges.flags.writeable
            with pytest.raises(ValueError):
                edges[0] = 0.5


def _within_ulps(values, reference, ulps):
    reference = np.asarray(reference, dtype=float)
    return np.abs(values - reference) <= ulps * np.spacing(np.abs(reference))


def test_tabulated_rules_are_the_legendre_rules():
    # the rules are tabulated so that no run imports numpy.polynomial; the
    # golden digests hold their exact bits, so here each literal need only be
    # within 2 ulp of leggauss, whose last bit may vary with numpy and LAPACK
    from numpy.polynomial.legendre import leggauss

    mpmath = pytest.importorskip("mpmath")
    for nodes, weights, n in ((numerics._FINE_NODES, numerics._FINE_WEIGHTS, 40),
                              (numerics._CHECK_NODES, numerics._CHECK_WEIGHTS, 20)):
        expected_nodes, expected_weights = leggauss(n)
        assert _within_ulps(nodes, expected_nodes, 2).all(), n
        assert _within_ulps(weights, expected_weights, 2).all(), n
        # every node within 1 ulp of the root of P_n at 40 digits; leggauss's
        # outer weights are ~1e-12 off the exact ones, so they get a relative bound
        with mpmath.workdps(40):
            roots = [mpmath.findroot(lambda t: mpmath.legendre(n, t), x) for x in nodes.tolist()]
            exact = [2 * (1 - r**2) / (n * mpmath.legendre(n - 1, r))**2 for r in roots]
        assert _within_ulps(nodes, [float(r) for r in roots], 1).all(), n
        np.testing.assert_allclose(weights, [float(w) for w in exact], rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("limit, s, x", [("_MAX_SERIES_ITER", 5.5, 1.0),
                                         ("_MAX_CF_ITER", 2.5, 20.0)])
def test_incomplete_gamma_raises_at_the_step_limit(monkeypatch, limit, s, x):
    # a loop that has not converged at the limit raises, not a truncated value
    monkeypatch.setattr(numerics, limit, 3)
    with pytest.raises(QuadratureError):
        upper_incomplete_gamma(s, x)


def test_upper_gamma_shape_one_is_exponential():
    for x in (0.3, 2.0, 10.0, 50.0):
        assert abs(upper_incomplete_gamma(1.0, x) - math.exp(-x)) < 1e-13 * math.exp(-x)


def test_upper_gamma_at_zero_is_complete_gamma():
    assert abs(upper_incomplete_gamma(3.0, 0.0) - 2.0) < 1e-13
    assert abs(upper_incomplete_gamma(0.5, 0.0) - math.sqrt(math.pi)) < 1e-13


def test_upper_gamma_half_at_one_against_erfc():
    # Gamma(1/2, x^2) = sqrt(pi) * erfc(x), so Gamma(1/2, 1) = sqrt(pi) erfc(1)
    expected = math.sqrt(math.pi) * math.erfc(1.0)
    assert abs(expected - 0.27880) < 5e-5
    value = upper_incomplete_gamma(0.5, 1.0)
    assert abs(value - expected) < 1e-12 * expected


def test_upper_gamma_against_quadrature():
    for s, x in ((0.5, 4.0), (2.5, 1.0), (5.0, 12.0), (7.5, 3.0)):
        oracle, _ = quad(lambda t: t ** (s - 1) * math.exp(-t), x, math.inf)
        value = upper_incomplete_gamma(s, x)
        assert abs(value - oracle) < 1e-10 * oracle, f"s={s}, x={x}"


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_upper_gamma_recurrence(x):
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x
    for s in [0.5 * k for k in range(1, 21)]:
        lhs = upper_incomplete_gamma(s + 1.0, x)
        rhs = s * upper_incomplete_gamma(s, x) + x**s * math.exp(-x)
        assert abs(lhs - rhs) < 1e-10 * abs(rhs), f"s={s}, x={x}"


def test_upper_gamma_domain():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(1.0, -0.1)
