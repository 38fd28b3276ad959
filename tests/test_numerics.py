import math

import pytest
from scipy.integrate import quad

from vanetconn.numerics import (
    QuadratureError,
    integrate_semi_infinite,
    upper_incomplete_gamma,
)


def test_exponential_integral():
    value, err = integrate_semi_infinite(lambda x: math.exp(-x), upper=60.0)
    assert abs(value - 1.0) < 1e-10
    assert err < 1e-9


def test_gamma_two_integral():
    value, _ = integrate_semi_infinite(lambda x: x * math.exp(-x), upper=80.0)
    assert abs(value - 1.0) < 1e-10


def test_shifted_gaussian_against_erfc_closed_form():
    # integral of e^(-a x - b x^2) over [0, inf)
    # = sqrt(pi/(4 b)) * e^(a^2/(4 b)) * erfc(a / (2 sqrt(b)))
    a = 0.019
    b = 1.0 / 251.2**2
    expected = math.sqrt(math.pi / (4 * b)) * math.exp(a * a / (4 * b)) * math.erfc(
        a / (2 * math.sqrt(b))
    )
    value, _ = integrate_semi_infinite(
        lambda x: math.exp(-a * x - b * x * x), upper=50.0 / a
    )
    assert abs(expected - 48.7) < 0.2, "sanity: the frozen magnitude of the oracle"
    assert abs(value - expected) < 1e-8 * expected


def test_nonconvergence_is_an_explicit_failure():
    # about 6400 oscillations on [0, 50] exhaust the 200 subdivisions
    with pytest.raises(QuadratureError):
        integrate_semi_infinite(lambda x: math.sin(400.0 * x) ** 2 * math.exp(-x), upper=50.0)


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
