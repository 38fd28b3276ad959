import concurrent.futures
import dataclasses
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vanetconn import analytic, montecarlo, scenario
from vanetconn.montecarlo import (
    MODELS,
    RAYLEIGH,
    UNIT_DISC,
    run_ensemble,
    run_trial,
    sweep,
    trial_rng,
    wilson_interval,
)
from vanetconn.scenario import ScenarioParams, sample_headways

ARRAYS = ("connected", "mismatch", "linked_by_gap", "n_isolated_two_side",
          "n_isolated_forward", "degree_mean_interior")


def _trial_edges(params, model, rng):
    """Edge list of the trial that ``run_trial`` runs on the stream ``rng``."""
    return montecarlo._trial_edges(sample_headways(params, rng), params, model, rng)


def test_benchmark_tracer_hooks_exist(make_params, monkeypatch):
    # bench/spans.py wraps these by name, and bench/run.py expects one call
    # of the module-level run_trial per (cell, trial) of a traced run
    assert callable(analytic._closed_form_mp)
    for method in ("network_connectivity", "single_link", "node_degree",
                   "vehicle_connectivity", "decider_mismatches"):
        assert callable(getattr(montecarlo.EnsembleResult, method)), method
    calls = []
    trial = montecarlo.run_trial

    def counted(*args, **kwargs):
        calls.append(args)
        return trial(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "run_trial", counted)
    sweep([make_params(rho=0.02), make_params(rho=0.03)], MODELS, trials=3, master_seed=1,
          big_m=2)
    assert len(calls) == 2 * len(MODELS) * 3 == 12


def test_trial_outcome_is_one_row_of_the_ensemble_arrays():
    # run_ensemble stacks the outcomes field by field into these arrays
    fields = [field.name for field in dataclasses.fields(montecarlo.EnsembleResult)]
    assert montecarlo.TrialOutcome._fields == ARRAYS
    assert fields == ["params", "model", "trials", "master_seed", "big_m", "decider", *ARRAYS]


def test_trial_with_vanishing_threshold_is_complete(make_params):
    params = make_params(rho=0.004, psi_db=-250.0)
    outcome = run_trial(params, UNIT_DISC, trial_rng(1, 0), big_m=3)
    n = params.n_vehicles
    assert outcome.connected
    assert _trial_edges(params, UNIT_DISC, trial_rng(1, 0)).degrees.tolist() == [n - 1] * n
    assert outcome.degree_mean_interior == n - 1
    assert outcome.n_isolated_two_side == 0
    assert outcome.n_isolated_forward == 0
    assert outcome.linked_by_gap.tolist() == [n - 1, n - 2, n - 3]


def test_threshold_is_inclusive():
    # the SNR 10 * 10 / 1 at 10 m under path-loss exponent 2 is exactly psi = 1
    params = ScenarioParams(rho=0.01, road_length=100.0, tx_power=10.0, noise_power=1.0,
                            beta=10.0, ple=2, psi=1.0)

    def edges(headway):
        return montecarlo._trial_edges(np.array([headway]), params, UNIT_DISC, trial_rng(0, 0))

    at_range = edges(10.0)
    assert (at_range.i.tolist(), at_range.j.tolist()) == ([0], [1])
    assert edges(np.nextafter(10.0, np.inf)).i.size == 0


def test_trial_sparse_road_is_disconnected(make_params):
    # headways run ~1/rho = 1e5 m, far beyond the 251 m radius
    params = make_params(rho=1e-5, road_length=3e6)
    outcome = run_trial(params, UNIT_DISC, trial_rng(1, 0))
    assert not outcome.connected
    assert outcome.n_isolated_two_side > params.n_vehicles // 2


def test_trial_deterministic_for_fixed_stream(make_params):
    params = make_params(rho=0.01)
    a = run_trial(params, RAYLEIGH, trial_rng(7, 3), big_m=5)
    b = run_trial(params, RAYLEIGH, trial_rng(7, 3), big_m=5)
    for name, value in a._asdict().items():
        assert np.array_equal(getattr(b, name), value), name


def test_fading_edges_can_jump_over_an_isolated_vehicle(make_params):
    # vehicle 3 links to nobody, yet the fading link (0, 5) jumps over it, so
    # every cut between successive vehicles is crossed by some edge
    params = make_params(rho=0.005, psi_db=5.0)
    n = params.n_vehicles
    edges = _trial_edges(params, RAYLEIGH, trial_rng(3, 188))
    assert edges.degrees[3] == 0
    crossings = np.cumsum(np.bincount(edges.i, minlength=n) - np.bincount(edges.j, minlength=n))
    assert np.all(crossings[:-1] > 0)

    outcome = run_trial(params, RAYLEIGH, trial_rng(3, 188), decider="both")
    assert not outcome.connected
    assert outcome.mismatch is False


def _full_triangle_edges(headways, params, model, rng):
    """Reference edge list: every pair of the triangle, one uniform per pair."""
    positions = np.concatenate(([0.0], np.cumsum(headways)))
    i, j = np.triu_indices(positions.size, 1)
    d = positions[j] - positions[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = params.budget.snr_scale / d**params.budget.ple
        if model == RAYLEIGH:
            snr = -snr * np.log(1.0 - rng.random(i.size))
    snr[np.isnan(snr)] = np.inf
    linked = snr >= params.psi
    return i[linked], j[linked]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(2, 400),
    mean_gap=st.floats(0.5, 500.0),
    psi_db=st.floats(-20.0, 25.0),
    ple=st.integers(2, 4),
    model=st.sampled_from(MODELS),
    coincident=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=300, mean_gap=3.0, psi_db=25.0, ple=4, model=RAYLEIGH, coincident=8, seed=5)
@example(n=60, mean_gap=30.0, psi_db=-20.0, ple=2, model=RAYLEIGH, coincident=3, seed=6)
def test_pair_window_is_exact(make_params, n, mean_gap, psi_db, ple, model, coincident, seed):
    # from a window over the whole road down to a few vehicles per window
    params = make_params(psi_db=psi_db, ple=ple)
    rng = np.random.default_rng(seed)
    headways = rng.exponential(mean_gap, n - 1)
    headways[rng.integers(0, n - 1, coincident)] = 0.0
    ref_i, ref_j = _full_triangle_edges(headways, params, model, np.random.default_rng([seed, 1]))
    edges = montecarlo._trial_edges(headways, params, model, np.random.default_rng([seed, 1]))
    assert np.array_equal(edges.i, ref_i) and np.array_equal(edges.j, ref_j)


@pytest.mark.parametrize("block_pairs", [1, 7, 10**9])
def test_trial_does_not_depend_on_the_block_size(monkeypatch, make_params, block_pairs):
    # 300 vehicles: about 12 000 window pairs on the unit disc and 45 000
    # under fading, so the default block size splits both windows too
    params = make_params(rho=0.03, psi_db=0.0, road_length=300 / 0.03)

    def trial(model, decider):
        rng = trial_rng(5, 2)
        outcome = run_trial(params, model, rng, big_m=4, decider=decider)
        edges = _trial_edges(params, model, trial_rng(5, 2))
        # a dropped advance after the last row would move the next draw
        return {**outcome._asdict(), "i": edges.i, "j": edges.j}, rng.random()

    cases = [(model, decider) for model in MODELS for decider in ("components", "both")]
    expected = [trial(*case) for case in cases]
    monkeypatch.setattr(scenario, "_BLOCK_PAIRS", block_pairs)
    for case, (want, want_next) in zip(cases, expected):
        got, got_next = trial(*case)
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), (case, key)
        assert got_next == want_next, case


def test_trial_matches_the_full_triangle(make_params):
    for psi_db in (-10.0, 5.0, 25.0):
        params = make_params(rho=0.02, road_length=6_000.0, psi_db=psi_db)
        n = params.n_vehicles
        margin = montecarlo.default_interior_margin(params)
        assert margin > 0
        for model in MODELS:
            for t in range(3):
                rng = trial_rng(13, t)
                i, j = _full_triangle_edges(sample_headways(params, rng), params, model, rng)
                edges = _trial_edges(params, model, trial_rng(13, t))
                assert np.array_equal(edges.i, i) and np.array_equal(edges.j, j)
                outcome = run_trial(params, model, trial_rng(13, t), big_m=n - 1)
                degrees = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
                assert outcome.degree_mean_interior == degrees[margin : n - margin].mean()
                assert np.array_equal(outcome.linked_by_gap, np.bincount(j - i, minlength=n)[1:])


def test_trial_memory_is_linear_in_vehicles(make_params):
    # the full pair triangle of 20 000 vehicles would need about 1.6 GB
    params = make_params(rho=0.03, road_length=20_000 / 0.03, psi_db=15.0)
    assert params.n_vehicles == 20_000
    tracemalloc.start()
    try:
        run_trial(params, RAYLEIGH, trial_rng(1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_trial_memory_does_not_grow_with_big_m(make_params):
    # the per-gap counts are sized by N (190 here), not by the span
    params = make_params()
    tracemalloc.start()
    try:
        outcome = run_trial(params, RAYLEIGH, trial_rng(1, 0), big_m=10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.linked_by_gap.shape == (params.n_vehicles - 1,)
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_trial_validates_inputs(make_params):
    params = make_params()
    with pytest.raises(ValueError):
        run_trial(params, "freespace", trial_rng(0, 0))
    with pytest.raises(ValueError):
        run_trial(params, UNIT_DISC, trial_rng(0, 0), decider="oracle")


def test_connected_trials_have_no_isolated_vehicles(make_params):
    params = make_params(rho=0.019)
    for t in range(40):
        outcome = run_trial(params, RAYLEIGH, trial_rng(11, t))
        if outcome.connected:
            assert outcome.n_isolated_two_side == 0


def test_unit_disc_connectivity_equals_successor_rule(make_params):
    # on a unit disc the network is connected exactly when every spacing
    # fits inside the communication radius
    params = make_params(rho=0.008)
    r = analytic.communication_range(params)
    for t in range(60):
        rng = trial_rng(23, t)
        outcome = run_trial(params, UNIT_DISC, trial_rng(23, t))
        headways = sample_headways(params, rng)
        assert outcome.connected == bool(np.all(headways <= r)), f"trial {t}"


def test_wilson_interval_basics():
    lo, hi = wilson_interval(8, 10)
    assert 0.0 <= lo < 0.8 < hi <= 1.0
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo < 1.0
    lo, hi = wilson_interval(1, 1)
    assert lo <= 1.0 <= hi
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**6).flatmap(lambda t: st.tuples(st.integers(0, t), st.just(t))))
def test_wilson_interval_brackets_the_proportion(successes_trials):
    successes, trials = successes_trials
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


def test_connectivity_estimate_matches_closed_form(make_params):
    params = make_params(rho=0.019)
    est = run_ensemble(params, UNIT_DISC, trials=400, master_seed=5).network_connectivity()
    assert est.covers(analytic.p_network_ud(params)), (
        f"[{est.ci_lo:.3f}, {est.ci_hi:.3f}] misses {analytic.p_network_ud(params):.3f}"
    )


def test_degenerate_single_trial(make_params):
    params = make_params(rho=0.004, psi_db=-250.0)
    est = run_ensemble(params, UNIT_DISC, trials=1, master_seed=0).network_connectivity()
    assert est.estimate == 1.0
    assert est.ci_lo <= 1.0 <= est.ci_hi


def test_single_link_estimates(make_params):
    params = make_params()
    est = run_ensemble(params, UNIT_DISC, trials=250, master_seed=10, big_m=1).single_link(1)
    assert est.covers(analytic.p_sl_ud_mth(params, 1))
    ray = run_ensemble(params, RAYLEIGH, trials=250, master_seed=10, big_m=1).single_link(1)
    assert ray.covers(analytic.p_sl_rayleigh(params, 1))
    n = params.n_vehicles
    with pytest.raises(ValueError):
        run_ensemble(params, UNIT_DISC, trials=5, master_seed=0, big_m=n).single_link(n)
    # far gap on a nearly empty road never links
    sparse = make_params(rho=0.0004)
    m = sparse.n_vehicles - 1
    far = run_ensemble(sparse, UNIT_DISC, trials=100, master_seed=2, big_m=m).single_link(m)
    assert far.estimate == 0.0


def test_node_degree_estimates(make_params):
    params = make_params(rho=0.019)
    est = run_ensemble(params, RAYLEIGH, trials=300, master_seed=3, big_m=1).node_degree()
    target = analytic.avg_node_degree(params)
    assert abs(est.mean - target) < 3 * est.std_error + 0.05 * target
    everyone = make_params(rho=0.004, psi_db=-250.0)
    full = run_ensemble(everyone, UNIT_DISC, trials=3, master_seed=1, big_m=1).node_degree()
    assert full.mean == everyone.n_vehicles - 1
    assert full.std_error == 0.0


def test_unit_disc_degree_scales_with_density(make_params):
    base = make_params(rho=0.01)
    double = make_params(rho=0.02)
    d1 = run_ensemble(base, UNIT_DISC, trials=300, master_seed=8, big_m=1).node_degree()
    d2 = run_ensemble(double, UNIT_DISC, trials=300, master_seed=8, big_m=1).node_degree()
    assert abs(d2.mean / d1.mean - 2.0) < 0.15


def test_vehicle_connectivity_estimates(make_params):
    params = make_params(rho=0.019)
    everyone = make_params(rho=0.01, psi_db=-250.0)
    full = run_ensemble(everyone, RAYLEIGH, trials=5, master_seed=4, big_m=1)
    for side in ("one", "two"):
        assert full.vehicle_connectivity(side).estimate == 1.0
    unit_disc = run_ensemble(params, UNIT_DISC, trials=300, master_seed=12, big_m=1)
    assert unit_disc.vehicle_connectivity("one").covers(analytic.p_sl_ud_mth(params, 1))
    fading = run_ensemble(params, RAYLEIGH, trials=300, master_seed=12, big_m=1)
    two_side = fading.vehicle_connectivity("two")
    assert two_side.estimate <= analytic.p_vehicle_rayleigh(params, 10) + 2e-3
    with pytest.raises(ValueError):
        unit_disc.vehicle_connectivity("three")


def test_parallel_run_is_bit_identical(monkeypatch, make_params):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    params = make_params(rho=0.008)
    serial = run_ensemble(params, RAYLEIGH, trials=60, master_seed=21, big_m=4)
    parallel = run_ensemble(params, RAYLEIGH, trials=60, master_seed=21, big_m=4, workers=3)
    assert serial.network_connectivity() == parallel.network_connectivity()
    assert serial.single_link(4) == parallel.single_link(4)
    assert serial.node_degree() == parallel.node_degree()
    assert np.array_equal(serial.connected, parallel.connected)
    assert np.array_equal(serial.linked_by_gap, parallel.linked_by_gap)
    assert np.array_equal(serial.degree_mean_interior, parallel.degree_mean_interior)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trials=st.integers(2, 80), model=st.sampled_from(MODELS), seed=st.integers(0, 2**16))
@example(trials=80, model=RAYLEIGH, seed=3)  # 5 trials per chunk
def test_per_trial_arrays_do_not_depend_on_workers(make_params, trials, model, seed):
    params = make_params(rho=0.01, road_length=3_000.0)
    with mock.patch.object(os, "cpu_count", lambda: 2):
        serial = run_ensemble(params, model, trials, seed, big_m=3)
        parallel = run_ensemble(params, model, trials, seed, big_m=3, workers=2)
    for name in ARRAYS:
        assert np.array_equal(getattr(serial, name), getattr(parallel, name)), name


def test_ensemble_arrays_are_the_trials(make_params):
    params = make_params(rho=0.012)
    for model in MODELS:
        result = run_ensemble(params, model, trials=6, master_seed=19, big_m=3, decider="both")
        assert result.linked_by_gap.shape == (6, 3)
        for name in ARRAYS:
            column = getattr(result, name)
            assert column.shape[0] == 6 and column.flags.c_contiguous, name
        for t in range(6):
            outcome = run_trial(params, model, trial_rng(19, t), big_m=3, decider="both")
            for name, value in outcome._asdict().items():
                assert np.array_equal(getattr(result, name)[t], value), (model, t, name)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rho=st.floats(0.002, 0.05),
    psi_db=st.floats(-5.0, 25.0),
    ple=st.integers(2, 4),
    model=st.sampled_from(MODELS),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_and_spectral_deciders_agree(make_params, rho, psi_db, ple, model, seed):
    # up to 200 vehicles; windows from the whole road down to a few vehicles
    params = make_params(rho=rho, road_length=4_000.0, psi_db=psi_db, ple=ple)
    outcome = run_trial(params, model, trial_rng(seed, 0), decider="both")
    assert outcome.mismatch is False


def test_decider_paths_agree(make_params):
    params = make_params(rho=0.012)
    for model in MODELS:
        both = run_ensemble(params, model, trials=80, master_seed=31, decider="both")
        assert both.decider_mismatches() == 0
        default = run_ensemble(params, model, trials=80, master_seed=31)
        eigen = run_ensemble(params, model, trials=80, master_seed=31, decider="eigen")
        assert default.decider == "components"
        assert default.network_connectivity() == both.network_connectivity()
        assert eigen.network_connectivity() == both.network_connectivity()


def test_sweep_opens_one_pool_and_matches_serial(monkeypatch, make_params):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    points = [make_params(rho=0.008, psi_db=15.0), make_params(rho=0.012, psi_db=5.0)]
    serial = sweep(points, MODELS, trials=12, master_seed=9, big_m=3)
    assert opened == []
    parallel = sweep(points, MODELS, trials=12, master_seed=9, big_m=3, workers=2)
    assert opened == [2]
    for a, b in zip(serial, parallel, strict=True):
        assert (a.params, a.model) == (b.params, b.model)
        assert np.array_equal(a.result.connected, b.result.connected)
        assert np.array_equal(a.result.linked_by_gap, b.result.linked_by_gap)
        assert np.array_equal(a.result.degree_mean_interior, b.result.degree_mean_interior)


@pytest.mark.parametrize("cores, trials, size", [
    (4, 3, 3),  # no more processes than trials
    (2, 10, 2),  # no more processes than cores
    (None, 10, None),  # unknown core count: serial
    (8, 1, None),  # one trial: serial
])
def test_pool_is_bounded_by_trials_and_cores(monkeypatch, make_params, cores, trials, size):
    opened = []

    class InlinePool:
        """Stands in for the process pool: records its size, maps in this process."""

        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    params = make_params(rho=0.01, road_length=2_000.0)
    expected = [] if size is None else [size]
    serial = run_ensemble(params, RAYLEIGH, trials, 4, big_m=2)
    pooled = run_ensemble(params, RAYLEIGH, trials, 4, big_m=2, workers=5000)
    assert opened == expected
    rows = sweep([params], MODELS, trials, 4, big_m=2, workers=5000)
    assert opened == expected * 2
    for name in ARRAYS:
        assert np.array_equal(getattr(serial, name), getattr(pooled, name)), name
        assert np.array_equal(getattr(serial, name), getattr(rows[1].result, name)), name


def test_sweep_rows(make_params):
    params = make_params(rho=0.019)
    rows = sweep([params, params], (UNIT_DISC,), trials=60, master_seed=17)
    assert [(r.params, r.model) for r in rows] == [(params, UNIT_DISC)] * 2
    first, second = rows
    # a duplicated point reproduces the identical row
    assert first.result.network_connectivity() == second.result.network_connectivity()
    direct = run_ensemble(params, UNIT_DISC, trials=60, master_seed=17)
    direct = direct.network_connectivity()
    assert first.result.network_connectivity().estimate == direct.estimate


def test_sweep_records_failures_and_continues(make_params):
    # N = 800 and a complete graph: the spectral decider refuses it before any eigensolve
    bad, good = make_params(rho=0.08, psi_db=-250.0), make_params(rho=0.02)
    rows = sweep([bad, good], (UNIT_DISC,), trials=5, master_seed=1, decider="eigen")
    assert rows[0].params is bad and rows[0].result is None
    assert rows[0].error.startswith("SpectralCeilingError: ")
    assert rows[1].params is good and rows[1].error is None
    assert rows[1].result.trials == 5


def test_sweep_does_not_record_programming_errors(make_params):
    # a point that is not a ScenarioParams is the caller's bug, not a failed cell
    with pytest.raises(TypeError):
        sweep([make_params(rho=0.02), (0.02, 31.6)], (UNIT_DISC,), trials=5, master_seed=1)


@pytest.mark.parametrize("kwargs", [
    {"decider": "bogus"},
    {"big_m": 0},
    {"trials": 0},
    {"master_seed": -1},
    {"models": ("freespace",)},
], ids=["decider", "big_m", "trials", "master_seed", "models"])
def test_sweep_rejects_bad_arguments_before_any_cell(monkeypatch, make_params, kwargs):
    opened = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: opened.append(kw))
    args = {"models": MODELS, "trials": 3, "master_seed": 1, "workers": 2, **kwargs}
    with pytest.raises(ValueError):
        sweep([make_params(rho=0.02)], **args)
    assert opened == []


def test_sweep_requires_points():
    with pytest.raises(ValueError):
        sweep([], (UNIT_DISC,), trials=5, master_seed=1)


def test_estimator_error_shrinks_with_trials(make_params):
    # 80 vehicles at a density where roughly half the snapshots connect
    params = make_params(rho=0.019, road_length=4210.0)
    truth = analytic.p_network_ud(params)
    assert 0.3 < truth < 0.7
    errors = {
        trials: abs(
            run_ensemble(params, UNIT_DISC, trials, 77, big_m=1).network_connectivity().estimate
            - truth
        )
        for trials in (100, 1000, 10_000)
    }
    assert errors[10_000] < errors[100], errors
    assert errors[10_000] < 2e-2 and errors[1000] < 5e-2, errors
