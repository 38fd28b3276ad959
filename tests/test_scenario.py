import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from vanetconn import scenario
from vanetconn.scenario import (
    PairBlock,
    erlang_cdf,
    erlang_pdf,
    pair_blocks,
    sample_headways,
)


def test_params_reject_nonpositive(make_params):
    for field, bad in [("rho", 0.0), ("road_length", -1.0), ("tx_power", 0.0),
                       ("noise_power", -0.01), ("beta", 0.0), ("psi_db", None)]:
        if field == "psi_db":
            with pytest.raises(ValueError):
                make_params(psi_db=-math.inf)
        else:
            with pytest.raises(ValueError):
                make_params(**{field: bad})
    with pytest.raises(ValueError):
        make_params(ple=0)
    with pytest.raises(ValueError):
        make_params(ple=1.5)


def test_vehicle_count_rule(make_params):
    assert make_params(rho=0.019).n_vehicles == 190
    assert make_params(rho=0.002).n_vehicles == 20
    # floor of 2 vehicles even on a nearly empty road
    assert make_params(rho=1e-9).n_vehicles == 2


def test_headway_sample_mean(make_params):
    # 1e5 draws need N-1 >= 1e5; use a long road instead of many calls
    params = make_params(rho=0.019, road_length=100_001 / 0.019)
    rng = np.random.default_rng(42)
    draws = sample_headways(params, rng)
    assert draws.size >= 100_000
    mean = draws.mean()
    assert abs(mean - 1 / 0.019) < 0.01 * (1 / 0.019), f"mean={mean}"


def test_headways_degenerate_at_huge_density(make_params):
    params = make_params(rho=1e6, road_length=1e-4)
    rng = np.random.default_rng(0)
    draws = sample_headways(params, rng)
    assert np.all(draws < 1e-4)


def test_headways_deterministic_for_fixed_seed(make_params):
    params = make_params()
    a = sample_headways(params, np.random.default_rng(123))
    b = sample_headways(params, np.random.default_rng(123))
    assert np.array_equal(a, b)
    assert np.all(a > 0)


def _window(headways, reach):
    """The window as one block: its pair blocks concatenated, rows in order."""
    return PairBlock(*map(np.concatenate, zip(*pair_blocks(headways, reach))))


def _positions(headways):
    return np.concatenate(([0.0], np.cumsum(headways)))


def test_placement_prefix_sums():
    p = _window([10.0, 20.0], math.inf)
    # pairs (0, 1), (0, 2), (1, 2)
    assert p.distances.tolist() == [10.0, 30.0, 20.0]
    assert p.i.tolist() == [0, 0, 1] and p.j.tolist() == [1, 2, 2]
    assert p.ahead.tolist() == [2, 1] and p.skipped.tolist() == [0, 0]
    # a 25 m reach drops the 30 m pair (0, 2)
    q = _window([10.0, 20.0], 25.0)
    assert q.ahead.tolist() == [1, 1] and q.skipped.tolist() == [1, 0]
    assert q.distances.tolist() == [10.0, 20.0]


def test_placement_rejects_bad_input():
    # the checks run at the call, before any block is asked for
    with pytest.raises(ValueError):
        pair_blocks([], math.inf)
    with pytest.raises(ValueError):
        pair_blocks([1.0, -2.0], math.inf)
    with pytest.raises(ValueError):
        pair_blocks([1.0, math.inf], math.inf)
    for reach in (-1.0, math.nan):
        with pytest.raises(ValueError):
            pair_blocks([1.0, 2.0], reach)


def test_placement_symmetry_and_invariants():
    p = _window([5.0, 5.0, 5.0], math.inf)
    assert p.distances.tolist() == [5.0, 10.0, 15.0, 5.0, 10.0, 5.0]
    # at infinite reach the pair vector is the upper triangle of the
    # symmetric distance matrix
    rng = np.random.default_rng(7)
    headways = rng.exponential(50.0, size=30)
    positions = _positions(headways)
    n = positions.size
    dense = np.abs(positions[:, None] - positions[None, :])
    assert np.array_equal(_window(headways, math.inf).distances, dense[np.triu_indices(n, 1)])
    # distance grows with neighbour order on a line
    for i in range(n - 2):
        row = dense[i, i + 1 :]
        assert np.all(np.diff(row) > 0)
    # a finite reach keeps exactly the triangle pairs within it, in order,
    # coincident vehicles included
    headways[[4, 5, 17]] = 0.0
    positions = _positions(headways)
    rows, cols = np.triu_indices(n, 1)
    for reach in (0.0, 40.0, 120.0, 1e3):
        w = _window(headways, reach)
        keep = positions[cols] <= positions[rows] + reach
        assert np.array_equal(w.i, rows[keep]) and np.array_equal(w.j, cols[keep])
        assert np.array_equal(w.distances, (positions[cols] - positions[rows])[keep])
        assert np.array_equal(w.ahead, np.bincount(w.i, minlength=n - 1))


def test_infinite_reach_window_is_the_upper_triangle():
    for n in (2, 3, 7, 40):
        p = _window(np.ones(n - 1), math.inf)
        rows, cols = np.triu_indices(n, 1)
        assert np.array_equal(p.i, rows) and np.array_equal(p.j, cols)
        assert p.ahead.tolist() == list(range(n - 1, 0, -1))
    # a reach shorter than every headway leaves no pair at all
    p = _window(np.ones(4), 0.5)
    assert p.i.size == 0 and p.j.size == 0 and p.distances.size == 0
    assert p.ahead.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("block_pairs", [1, 3, 10**9])
def test_blocks_tile_the_window_in_whole_rows(monkeypatch, block_pairs):
    # a coincident pair, a row of three pairs and two rows without any at the end
    headways = [1.0, 1.0, 0.0, 5.0, 1.0, 1.0, 9.0, 9.0]
    positions = _positions(headways)
    monkeypatch.setattr(scenario, "_BLOCK_PAIRS", block_pairs)
    blocks = list(pair_blocks(headways, 2.5))
    assert all(b.i.size <= block_pairs or b.ahead.size == 1 for b in blocks)
    tiled = PairBlock(*map(np.concatenate, zip(*blocks)))
    assert tiled.ahead.tolist() == [3, 2, 1, 0, 2, 1, 0, 0]
    # each row's listed and skipped pairs make up its n - 1 - r triangle pairs
    assert tiled.skipped.tolist() == [5, 5, 5, 5, 2, 2, 2, 1]
    assert np.array_equal(tiled.skipped + tiled.ahead, np.arange(len(headways), 0, -1))
    # the triangle pairs within reach, in order; distances as one row range
    rows, cols = np.triu_indices(positions.size, 1)
    keep = positions[cols] <= positions[rows] + 2.5
    assert np.array_equal(tiled.i, rows[keep]) and np.array_equal(tiled.j, cols[keep])
    assert np.array_equal(tiled.distances, positions[tiled.j] - positions[tiled.i])


def test_erlang_pdf_first_neighbour_is_exponential():
    rho = 0.019
    for x in (0.0, 10.0, 52.6, 400.0):
        assert abs(erlang_pdf(x, 1, rho) - rho * math.exp(-rho * x)) < 1e-15


def test_erlang_pdf_domain():
    assert erlang_pdf(-5.0, 3, 0.019) == 0.0
    with pytest.raises(ValueError):
        erlang_pdf(1.0, 0, 0.019)
    with pytest.raises(ValueError):
        erlang_pdf(1.0, 2, 0.0)


@pytest.mark.parametrize("m", range(1, 11))
def test_erlang_pdf_normalisation(m):
    rho = 0.019
    value, _ = quad(lambda x: erlang_pdf(x, m, rho), 0.0, (50.0 + 2.0 * m) / rho)
    assert abs(value - 1.0) < 1e-9, f"m={m}: integral={value}"


def test_erlang_mean_is_m_over_rho():
    rho = 0.019
    for m in (1, 3, 7):
        mean, _ = quad(lambda x: x * erlang_pdf(x, m, rho), 0.0, (60.0 + 2.0 * m) / rho)
        assert abs(mean - m / rho) < 1e-7 * (m / rho)


def test_erlang_cdf_matches_pdf_quadrature():
    rho = 0.019
    for m, x in ((1, 30.0), (3, 150.0), (5, 251.2), (10, 600.0)):
        oracle, _ = quad(lambda t: erlang_pdf(t, m, rho), 0.0, x)
        assert abs(erlang_cdf(x, m, rho) - oracle) < 1e-10, f"m={m}, x={x}"
    assert erlang_cdf(0.0, 3, rho) == 0.0
    assert erlang_cdf(-1.0, 3, rho) == 0.0
    # m = 1 keeps its relative accuracy where 1 - e^-t rounds to 0
    assert erlang_cdf(1.0, 1, 1e-17) == -math.expm1(-1e-17)
    # rho x below the smallest double is a zero probability, not a log(0)
    assert erlang_cdf(1e-300, 2, 1e-300) == 0.0
    # rho x above the largest double is a sure one, not a NaN head read as 0
    assert [erlang_cdf(1e308, m, 10.0) for m in range(1, 61)] == [1.0] * 60


def _erlang_cdf_per_m(t, m):
    # each m summing its own Poisson head, as erlang_cdf did before every m
    # read one running sum
    if t <= 0:
        return 0.0
    if t == math.inf:
        return 1.0
    if m == 1:
        return -math.expm1(-t)
    log_t = math.log(t)
    total = 0.0
    for k in range(m):
        total += math.exp(k * log_t - t - math.lgamma(k + 1.0))
    return max(0.0, 1.0 - total)


@pytest.mark.parametrize("t", [0.0, 1e-300, 1e-17, 0.28, 1.0, 7.5, 31.6, 60.0, 250.0, math.inf])
def test_erlang_cdf_running_sum_gives_the_per_m_bits(t):
    cdfs = list(itertools.islice(scenario._erlang_cdfs(t), 60))
    expected = [_erlang_cdf_per_m(t, m) for m in range(1, 61)]
    assert cdfs == expected
    assert [erlang_cdf(t, m, 1.0) for m in range(1, 61)] == expected


def test_summed_headways_follow_erlang(make_params):
    # smoke-scale convolution check; the acceptance suite runs the full one
    m, rho, n = 3, 0.019, 20_000
    params = make_params(rho=rho, road_length=(m * n + 1) / rho)
    draws = sample_headways(params, np.random.default_rng(11))[: m * n]
    sums = draws.reshape(n, m).sum(axis=1)
    sums.sort()
    grid = np.arange(1, n + 1) / n
    cdf = np.array([erlang_cdf(x, m, rho) for x in sums])
    d_stat = max(np.max(np.abs(grid - cdf)), np.max(np.abs(grid - 1.0 / n - cdf)))
    critical = 1.6276 / math.sqrt(n)  # 1% level
    assert d_stat < critical, f"KS statistic {d_stat:.4f} >= {critical:.4f}"
