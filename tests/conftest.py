import math

import pytest

from vanetconn import channel, numerics
from vanetconn.scenario import ScenarioParams

# the reference operating point: 33 dBm transmit power, 0.01 mW noise,
# beta = 10, path-loss exponent 2, a 10 km segment
REF_KW = dict(
    road_length=10_000.0,
    tx_power=channel.dbm_to_mw(33.0),
    noise_power=0.01,
    beta=10.0,
    ple=2,
)


def _make(rho=0.019, psi_db=15.0, **overrides):
    kw = {**REF_KW, **overrides}
    return ScenarioParams(rho=rho, psi=channel.db_to_linear(psi_db), **kw)


@pytest.fixture
def make_params():
    return _make


@pytest.fixture
def scalar_upper_gamma():
    """The incomplete gamma as scalar loops, as written before they ran as numpy lanes.

    Power series below x = s + 1, modified-Lentz continued fraction above
    it: the bit reference of every lane of ``numerics._upper_incomplete_gammas``.
    """
    return _upper_gamma_reference


def _upper_gamma_reference(s, x):
    if x == 0.0:
        return math.gamma(s)
    if x < s + 1.0:
        return _upper_gamma_series_reference(s, x)
    return _upper_gamma_contfrac_reference(s, x)


def _upper_gamma_series_reference(s, x):
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(numerics._MAX_SERIES_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * numerics._EPS:
            lower = total * math.exp(-x + s * math.log(x))
            return math.gamma(s) - lower
    raise numerics.QuadratureError(f"incomplete gamma series stalled at s={s}, x={x}")


def _upper_gamma_contfrac_reference(s, x):
    tiny, eps = numerics._TINY, numerics._EPS
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, numerics._MAX_CF_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return math.exp(-x + s * math.log(x)) * h
    raise numerics.QuadratureError(f"incomplete gamma continued fraction stalled at s={s}, x={x}")
