import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetconn.channel import (
    LinkBudget,
    db_to_linear,
    dbm_to_mw,
    deterministic_snr,
    link_reach,
    pair_uniforms,
    sample_rayleigh_snr,
    snr_rayleigh,
    snr_unit_disc,
    unit_disc_range,
)

BUDGET = LinkBudget(tx_power=dbm_to_mw(33.0), noise_power=0.01, beta=10.0, ple=2)


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(tx_power=0.0, noise_power=0.01, beta=10.0, ple=2)
    with pytest.raises(ValueError):
        LinkBudget(tx_power=1.0, noise_power=0.01, beta=10.0, ple=0)


def test_snr_at_threshold_distance():
    # direct arithmetic: 10 * 10^3.3 / (251.19^2 * 0.01) is 15 dB
    d = 251.18864315095797
    expected = 10.0 * 10**3.3 / (d * d * 0.01)
    value = deterministic_snr(d, BUDGET)
    assert abs(value - expected) < 1e-12 * expected
    assert abs(value - 31.6228) < 1e-3


def test_snr_power_law():
    assert abs(deterministic_snr(200.0, BUDGET) / deterministic_snr(400.0, BUDGET) - 4.0) < 1e-12
    assert deterministic_snr(1e12, BUDGET) < 1e-15


def test_snr_rejects_zero_distance():
    with pytest.raises(ValueError):
        deterministic_snr(0.0, BUDGET)


def test_unit_disc_range_reference_point():
    r = unit_disc_range(BUDGET, db_to_linear(15.0))
    # hand evaluation: sqrt(10 * 1995.26 mW / (31.623 * 0.01 mW))
    assert abs(r - 251.18864315) < 1e-6
    assert abs(r - 251.2) < 0.1


def test_unit_disc_range_inverts_snr():
    for d0 in (10.0, 251.19, 4000.0):
        psi = deterministic_snr(d0, BUDGET)
        assert abs(unit_disc_range(BUDGET, psi) - d0) < 1e-12 * d0
    r = unit_disc_range(BUDGET, 31.6228)
    assert abs(deterministic_snr(r, BUDGET) - 31.6228) < 1e-12 * 31.6228


def test_range_scales_linearly_with_power_at_ple_one():
    b1 = LinkBudget(tx_power=100.0, noise_power=0.01, beta=10.0, ple=1)
    b2 = LinkBudget(tx_power=200.0, noise_power=0.01, beta=10.0, ple=1)
    psi = 50.0
    assert abs(unit_disc_range(b2, psi) / unit_disc_range(b1, psi) - 2.0) < 1e-12


def test_rayleigh_mean_matches_deterministic_snr():
    rng = np.random.default_rng(5)
    d = 180.0
    draws = np.array([sample_rayleigh_snr(d, BUDGET, rng) for _ in range(100_000)])
    target = deterministic_snr(d, BUDGET)
    assert abs(draws.mean() - target) < 0.02 * target


def test_rayleigh_exceedance_probability():
    # P(S > psi) at distance d is e^(-psi d^alpha P_noise / (beta P_T))
    rng = np.random.default_rng(6)
    d, psi = 300.0, db_to_linear(15.0)
    n = 100_000
    draws = np.array([sample_rayleigh_snr(d, BUDGET, rng) for _ in range(n)])
    expected = math.exp(-psi / deterministic_snr(d, BUDGET))
    observed = np.mean(draws > psi)
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(observed - expected) < 3 * sigma, f"{observed} vs {expected}"


def test_rayleigh_memorylessness():
    rng = np.random.default_rng(7)
    d = 150.0
    mean = deterministic_snr(d, BUDGET)
    a, b = mean, 0.5 * mean
    draws = np.array([sample_rayleigh_snr(d, BUDGET, rng) for _ in range(200_000)])
    p_b = np.mean(draws > b)
    p_ab = np.mean(draws > a + b)
    p_a = np.mean(draws > a)
    assert abs(p_ab / p_b - p_a) < 0.01


def test_rayleigh_draw_deterministic():
    a = sample_rayleigh_snr(100.0, BUDGET, np.random.default_rng(9))
    b = sample_rayleigh_snr(100.0, BUDGET, np.random.default_rng(9))
    assert a == b
    with pytest.raises(ValueError):
        sample_rayleigh_snr(0.0, BUDGET, np.random.default_rng(9))


def test_unit_disc_matrix():
    # pair vector of three vehicles at 0, 100 and 300 m: (0,1), (0,2), (1,2)
    d = np.array([100.0, 300.0, 200.0])
    snr = snr_unit_disc(d, BUDGET)
    assert snr.tolist() == [deterministic_snr(x, BUDGET) for x in d]
    assert snr[0] > snr[2] > snr[1]


def test_rayleigh_matrix_reciprocity_and_seeding():
    # one draw per unordered pair, so each link is reciprocal by construction;
    # 15 distances are the whole pair triangle of 6 vehicles
    d = np.arange(1, 16) * 120.0
    ahead, none = np.array([5, 4, 3, 2, 1]), np.zeros(5, dtype=int)
    a = snr_rayleigh(d, ahead, none, BUDGET, np.random.default_rng(3))
    b = snr_rayleigh(d, ahead, none, BUDGET, np.random.default_rng(3))
    assert np.array_equal(a, b)
    assert a.shape == d.shape
    assert np.all(a > 0.0)
    # inverse-CDF draws in pair order from a single uniform call
    u = 1.0 - np.random.default_rng(3).random(d.size)
    assert np.array_equal(a, -snr_unit_disc(d, BUDGET) * np.log(u))
    # a window of pairs (0, 1), (0, 2), (1, 2), (3, 4) keeps their stream places
    window = np.array([2, 1, 0, 1, 0])
    skipped = ahead - window
    w = snr_rayleigh(d[[0, 1, 5, 12]], window, skipped, BUDGET, np.random.default_rng(3))
    assert np.array_equal(w, a[[0, 1, 5, 12]])
    # so do rows 3 and 4 drawn after rows 0 to 2 have been
    rng = np.random.default_rng(3)
    snr_rayleigh(d[[0, 1, 5]], window[:3], skipped[:3], BUDGET, rng)
    assert np.array_equal(snr_rayleigh(d[[12]], window[3:], skipped[3:], BUDGET, rng),
                          a[[12]])


def test_coincident_vehicles_always_link():
    d = np.array([0.0])
    assert snr_unit_disc(d, BUDGET)[0] == math.inf
    one, none = np.array([1]), np.array([0])
    assert snr_rayleigh(d, one, none, BUDGET, np.random.default_rng(0))[0] == math.inf


def test_fading_factor_bound():
    # the largest factor -ln(1 - u) a double uniform can give is 53 ln 2
    assert -np.log(2.0**-53) < 37
    assert 1.0 - (1.0 - 2.0**-53) == 2.0**-53
    for ple in (1, 2, 3, 4, 6):
        budget = LinkBudget(tx_power=dbm_to_mw(33.0), noise_power=0.01, beta=10.0, ple=ple)
        for psi in (0.01, 1.0, db_to_linear(15.0), 1e4):
            reach = link_reach(budget, psi, fading=True)
            assert reach > unit_disc_range(budget, psi)
            # the strongest fade at the reach stays below the threshold
            assert -np.log(2.0**-53) * deterministic_snr(reach, budget) < psi
            # the unit disc reaches just past its range, and no further
            disc = link_reach(budget, psi, fading=False)
            assert unit_disc_range(budget, psi) < disc < reach
            assert deterministic_snr(disc, budget) < psi


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2**32 - 1))
def test_pair_uniforms_keep_their_stream_places(n, seed):
    rng = np.random.default_rng(seed)
    # any count of used pairs per row, from none to the whole row
    ahead = rng.integers(0, np.arange(n - 1, 0, -1) + 1)
    ahead[rng.random(n - 1) < 0.3] = 0
    rows = np.repeat(np.arange(n - 1), ahead)
    row_start = np.arange(n - 1) * (2 * n - np.arange(n - 1) - 1) // 2
    k = np.arange(rows.size) - np.repeat(np.cumsum(ahead) - ahead, ahead) + row_start[rows]
    ours, dense = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    row_lengths = np.arange(n - 1, 0, -1)
    skipped = row_lengths - ahead
    expected = dense.random(n * (n - 1) // 2)[k]
    assert np.array_equal(pair_uniforms(ahead, skipped, ours), expected)
    # the generator ends where the full draw leaves it
    assert ours.random() == dense.random()


def test_db_conversions():
    # one formula: a power in dBm is a ratio in dB to 1 mW
    assert dbm_to_mw is db_to_linear
    assert abs(dbm_to_mw(33.0) - 1995.262315) < 1e-6
    assert db_to_linear(0.0) == 1.0
    assert abs(db_to_linear(15.0) - 31.6227766) < 1e-7
