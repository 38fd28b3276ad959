"""End-to-end acceptance checks at the reference operating points.

Each test prints one [acceptance] PASS/FAIL line so the suite doubles as a
report when run with ``pytest -s tests/test_acceptance.py``.
"""

import math

import numpy as np

from vanetconn import analytic, channel, cli
from vanetconn.graph import count_components, count_partitions_eigen, edges_from_adjacency
from vanetconn.montecarlo import RAYLEIGH, UNIT_DISC, run_ensemble, sweep
from vanetconn.scenario import ScenarioParams, erlang_cdf, sample_headways

TRIALS = 1000
L = 10_000.0
TX_MW = channel.dbm_to_mw(33.0)
NOISE_MW = 0.01
BETA = 10.0
ALPHA = 2

MC_KW = dict(road_length=L, tx_power=TX_MW, noise_power=NOISE_MW, beta=BETA, ple=ALPHA)


def _params(rho, psi_db):
    return ScenarioParams(rho=rho, psi=channel.db_to_linear(psi_db), **MC_KW)


def _report(label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {label}: {status}" + (f" — {detail}" if detail else ""))
    assert passed, f"{label}: {detail}"


def _binomial_se(estimate, trials):
    return math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)


def test_unit_disc_connectivity_matches_closed_form():
    hits, misses = 0, []
    for rho in (0.005, 0.01, 0.019, 0.03):
        for psi_db in (5.0, 15.0):
            params = _params(rho, psi_db)
            result = run_ensemble(params, UNIT_DISC, TRIALS, master_seed=101, big_m=1)
            est = result.network_connectivity()
            target = analytic.p_network_ud(params)
            if est.covers(target):
                hits += 1
            else:
                misses.append(f"rho={rho},psi={psi_db}dB: "
                              f"[{est.ci_lo:.3f},{est.ci_hi:.3f}] vs {target:.3f}")
    _report(
        "unit-disc ensemble vs closed-form network connectivity",
        hits >= 7,
        f"{hits}/8 grid points inside the 95% interval" + ("; " + "; ".join(misses) if misses else ""),
    )


def test_closed_form_single_link_matches_quadrature():
    worst = 0.0
    for psi_db in (5.0, 15.0):
        params = _params(0.019, psi_db)
        for m in range(1, 11):
            quad_value = analytic.p_sl_rayleigh(params, m)
            closed = analytic.p_sl_rayleigh_closed_alpha2(params, m)  # guard must not trip
            worst = max(worst, abs(closed - quad_value) / quad_value)
    _report(
        "closed form vs quadrature for the fading link probability",
        worst <= 1e-8,
        f"worst relative difference {worst:.2e} over m=1..10 at 5 and 15 dB",
    )


def test_average_snr_identity_between_channels():
    params = _params(0.019, 15.0)
    worst = 0.0
    for m in range(3, 11):
        ray = analytic.avg_snr_rayleigh(params, m)
        ud = analytic.avg_snr_ud(params, m)
        worst = max(worst, abs(ray - ud) / ray)
    _report(
        "average received SNR identical in both channel models",
        worst <= 1e-12,
        f"worst relative difference {worst:.2e} for m=3..10",
    )


def test_single_link_crossover_and_mc_agreement():
    params = _params(0.019, 15.0)
    near_ok = analytic.p_sl_rayleigh(params, 1) < analytic.p_sl_ud_mth(params, 1)
    far_ok = analytic.p_sl_rayleigh(params, 10) > analytic.p_sl_ud_mth(params, 10)
    misses = []
    for model, oracle in ((UNIT_DISC, analytic.p_sl_ud_mth), (RAYLEIGH, analytic.p_sl_rayleigh)):
        result = run_ensemble(params, model, TRIALS, master_seed=202, big_m=10)
        for m in (1, 3, 5, 10):
            est = result.single_link(m)
            target = oracle(params, m)
            if not est.covers(target):
                misses.append(f"{model} m={m}: [{est.ci_lo:.4f},{est.ci_hi:.4f}] vs {target:.4f}")
    _report(
        "link-probability crossover between channel models",
        near_ok and far_ok and not misses,
        "fading loses at m=1, wins at m=10; ensemble matches analytics"
        + ("; " + "; ".join(misses) if misses else ""),
    )


def test_mean_node_degree_matches_integral():
    misses = []
    for rho in (0.01, 0.019, 0.03):
        params = _params(rho, 15.0)
        result = run_ensemble(params, RAYLEIGH, TRIALS, master_seed=303, big_m=1)
        est = result.node_degree()
        target = analytic.avg_node_degree(params)
        if abs(est.mean - target) > 3.0 * est.std_error:
            misses.append(f"rho={rho}: {est.mean:.3f}±{est.std_error:.3f} vs {target:.3f}")
    _report(
        "fading mean node degree vs analytic expectation",
        not misses,
        "within 3 standard errors at three densities (8.46 expected at rho=0.019)"
        + ("; " + "; ".join(misses) if misses else ""),
    )


def test_vehicle_connectivity_upper_bound():
    misses = []
    for rho in (0.005, 0.01, 0.019, 0.025, 0.03):
        params = _params(rho, 15.0)
        result = run_ensemble(params, RAYLEIGH, TRIALS, master_seed=404, big_m=1)
        est = result.vehicle_connectivity(side="two")
        se = (est.estimate - est.ci_lo) / 1.959963984540054
        bound = analytic.p_vehicle_rayleigh(params, 10)
        if bound < est.estimate - 2.0 * se:
            misses.append(f"rho={rho}: bound {bound:.4f} < {est.estimate:.4f} - 2se")
    _report(
        "independence approximation upper-bounds two-side vehicle connectivity",
        not misses,
        "bound holds at five densities, 15 dB" + ("; " + "; ".join(misses) if misses else ""),
    )


def test_fading_dominates_unit_disc_connectivity():
    points = [_params(round(0.002 + 0.004 * k, 3), psi_db)
              for psi_db in (5.0, 15.0) for k in range(8)]
    rows = sweep(points, (UNIT_DISC, RAYLEIGH), TRIALS, master_seed=505, big_m=1)
    by_point = {}
    for row in rows:
        assert row.error is None, row.error
        by_point.setdefault((row.params.rho, row.params.psi), {})[row.model] = (
            row.result.network_connectivity()
        )
    violations, strict, informative = [], 0, 0
    for point, models in by_point.items():
        ud, ray = models[UNIT_DISC], models[RAYLEIGH]
        combined_se = math.hypot(
            _binomial_se(ud.estimate, TRIALS), _binomial_se(ray.estimate, TRIALS)
        )
        if ray.estimate < ud.estimate - 2.0 * combined_se:
            violations.append(f"{point}: {ray.estimate:.3f} < {ud.estimate:.3f} - 2se")
        if 0.05 < ud.estimate < 0.95:
            informative += 1
            if ray.estimate > ud.estimate:
                strict += 1
    strict_ok = informative == 0 or strict >= 0.8 * informative
    _report(
        "fading improves network connectivity across the density sweep",
        not violations and strict_ok,
        f"no 2-sigma violations on 16 points; strictly above at {strict}/{informative} "
        "informative points" + ("; " + "; ".join(violations) if violations else ""),
    )


def test_eigen_and_components_partition_counts_agree():
    rng = np.random.default_rng(606)
    disagreements = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 101))
        p = float(rng.choice([0.01, 0.03, 0.1, 0.3, 0.8]))
        upper = np.triu((rng.random((n, n)) < p).astype(int), 1)
        g = edges_from_adjacency(upper + upper.T)
        if count_partitions_eigen(g) != count_components(g):
            disagreements += 1
    _report(
        "spectral and connected-components partition counts agree",
        disagreements == 0,
        f"{disagreements} disagreements over 10^4 random graphs up to 100 nodes",
    )


def test_sampling_distributions():
    rho, n_samples = 0.019, 100_000
    failures = []
    critical = 1.6276 / math.sqrt(n_samples)  # Kolmogorov, 1% level
    for m in (2, 5, 10):
        params = ScenarioParams(
            rho=rho, road_length=(m * n_samples + 1) / rho, psi=channel.db_to_linear(15.0),
            tx_power=TX_MW, noise_power=NOISE_MW, beta=BETA, ple=ALPHA,
        )
        draws = sample_headways(params, np.random.default_rng(707 + m))[: m * n_samples]
        sums = np.sort(draws.reshape(n_samples, m).sum(axis=1))
        cdf = np.array([erlang_cdf(x, m, rho) for x in sums])
        grid = np.arange(1, n_samples + 1) / n_samples
        d_stat = max(np.max(np.abs(grid - cdf)), np.max(np.abs(grid - 1.0 / n_samples - cdf)))
        if d_stat >= critical:
            failures.append(f"gap-sum KS m={m}: {d_stat:.4f} >= {critical:.4f}")
    budget = channel.LinkBudget(tx_power=TX_MW, noise_power=NOISE_MW, beta=BETA, ple=ALPHA)
    d = 200.0
    rng = np.random.default_rng(808)
    mean = np.mean([channel.sample_rayleigh_snr(d, budget, rng) for _ in range(n_samples)])
    target = channel.deterministic_snr(d, budget)
    if abs(mean - target) > 0.02 * target:
        failures.append(f"conditional mean {mean:.2f} vs {target:.2f}")
    _report(
        "sampled distributions match their densities",
        not failures,
        "gap sums pass 1%-level KS for m in {2,5,10}; fading mean within 2%"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_simulate_csv_determinism(tmp_path):
    args = ["simulate", "--rho", "0.006,0.019", "--psi-db", "15", "--trials", "60",
            "--seed", "99", "--big-m", "3", "--model", "both"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "w.csv")]
    assert cli.main([*args, "--out", str(paths[0])]) == 0
    assert cli.main([*args, "--out", str(paths[1])]) == 0
    assert cli.main([*args, "--workers", "4", "--out", str(paths[2])]) == 0
    repeat_ok = paths[0].read_bytes() == paths[1].read_bytes()
    worker_ok = paths[0].read_bytes() == paths[2].read_bytes()
    _report(
        "simulation CSV is byte-identical across runs and worker counts",
        repeat_ok and worker_ok,
        "two serial runs and a 4-worker run produced identical bytes",
    )
