"""Seeded graph-ensemble simulation of every connectivity metric.

One trial draws a placement, computes the SNR of every vehicle pair that can
link at all under the chosen channel model, thresholds it into an edge list
and reads all metrics off that edge list.  Trial t always uses the stream
seeded by (master_seed, t), so results are bit-identical regardless of
execution order or worker count, and the two channel models see the same
placements at the same seed.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

# numpy 2 loads numpy.random on first use; importing it here keeps that
# import out of the first trial
from numpy.random import default_rng

from . import channel, graph, scenario
from .scenario import ScenarioParams

__all__ = [
    "UNIT_DISC",
    "RAYLEIGH",
    "MODELS",
    "DECIDERS",
    "TrialOutcome",
    "EnsembleEstimate",
    "MeanEstimate",
    "EnsembleResult",
    "SweepRow",
    "wilson_interval",
    "run_trial",
    "run_ensemble",
    "sweep",
]

UNIT_DISC = "unit_disc"
RAYLEIGH = "rayleigh"
MODELS = (UNIT_DISC, RAYLEIGH)
DECIDERS = ("eigen", "components", "both")

_Z95 = 1.959963984540054


class TrialOutcome(NamedTuple):
    """All metrics of one snapshot: entry t of each ``EnsembleResult`` array."""

    connected: bool
    mismatch: bool  # the spectral test disagreed with the exact one (decider "both")
    linked_by_gap: np.ndarray  # linked (i, i+m) pairs, m = 1..min(big_m, N-1)
    n_isolated_two_side: int  # vehicles with no linked neighbour at all
    n_isolated_forward: int  # vehicles (but the last) with no forward link
    degree_mean_interior: float  # mean degree inside default_interior_margin


@dataclass(frozen=True)
class EnsembleEstimate:
    """Point estimate of a probability with its 95% confidence interval."""

    estimate: float
    ci_lo: float
    ci_hi: float

    def __post_init__(self):
        if not (self.ci_lo <= self.estimate <= self.ci_hi):
            raise ValueError("interval must bracket the estimate")
        if not (0.0 <= self.estimate <= 1.0):
            raise ValueError("estimate must be a probability")

    def covers(self, value: float) -> bool:
        return self.ci_lo <= value <= self.ci_hi


@dataclass(frozen=True)
class MeanEstimate:
    """Sample mean with its standard error across trials and its 95% normal interval."""

    mean: float
    std_error: float
    ci_lo: float
    ci_hi: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval; well behaved near 0/1 and at small trial counts."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # the score interval always contains p; keep that exact under roundoff
    return min(p, max(0.0, center - half)), max(p, min(1.0, center + half))


def _trial_mean(values: np.ndarray) -> MeanEstimate:
    """Mean of one value per trial; the standard error is 0 for a single trial."""
    mean = float(values.mean())
    se = float(values.std(ddof=1)) / math.sqrt(values.size) if values.size > 1 else 0.0
    return MeanEstimate(mean, se, mean - _Z95 * se, mean + _Z95 * se)


def _cluster_interval(fractions: np.ndarray) -> EnsembleEstimate:
    """Mean of per-trial fractions with a normal interval on the trial means.

    Pairs or vehicles inside one trial share headways, so they are dependent;
    the trials themselves are i.i.d. and carry the valid standard error.
    """
    est = _trial_mean(fractions)
    return EnsembleEstimate(est.mean, max(0.0, est.ci_lo), min(1.0, est.ci_hi))


def _check_arguments(models, big_m: int, decider: str, trials: int = 1, master_seed: int = 0):
    for model in models:
        if model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    if decider not in DECIDERS:
        raise ValueError(f"decider must be one of {DECIDERS}, got {decider!r}")
    if big_m < 1:
        raise ValueError("big_m must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if master_seed < 0:
        raise ValueError("master_seed must be a nonnegative integer")


@contextmanager
def _trial_map(workers: int, trials: int):
    """The ``map`` that runs ``trials`` trials: the builtin, or a process pool's.

    A pool is opened when more than one process is worth starting, no more
    than the workers, the trials or the cores.  ``ProcessPoolExecutor`` is
    imported here: ``concurrent.futures.process`` loads ``multiprocessing``,
    which only a pool needs.
    """
    size = min(workers, trials, os.cpu_count() or 1)
    if size < 2:
        yield map
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        yield partial(pool.map, chunksize=max(1, trials // (size * 8)))


def trial_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    """Stream for one trial, derived only from (master_seed, trial index)."""
    return default_rng([master_seed, trial_index])


def _trial_edges(
    headways: np.ndarray, params: ScenarioParams, model: str, rng: np.random.Generator
) -> graph.EdgeList:
    """Edge list of one snapshot, thresholded a block of its pair window at a time.

    The window holds every pair within the model's ``channel.link_reach``,
    so every pair that can link; the fading uniforms keep their places in
    the full pair stream.  Only the linked pairs outlive their block.
    """
    fading = model == RAYLEIGH
    reach = channel.link_reach(params.budget, params.psi, fading)
    i, j = [], []
    for block in scenario.pair_blocks(headways, reach):
        if fading:
            snr = channel.snr_rayleigh(
                block.distances, block.ahead, block.skipped, params.budget, rng
            )
        else:
            snr = channel.snr_unit_disc(block.distances, params.budget)
        linked = snr >= params.psi
        i.append(block.i[linked])
        j.append(block.j[linked])
    return graph.EdgeList(headways.size + 1, np.concatenate(i), np.concatenate(j))


def run_trial(
    params: ScenarioParams,
    model: str,
    rng: np.random.Generator,
    big_m: int = 10,
    decider: str = "components",
) -> TrialOutcome:
    """One snapshot: in-window pairs -> SNR -> edge list -> metrics.

    The edge list is the one of a trial over all pairs (see ``_trial_edges``),
    built in time linear in the window and memory linear in the vehicles
    and edges.  The outcome is the trial's entry of each ``EnsembleResult``
    array; its mean degree leaves out ``default_interior_margin`` vehicles
    at each end.

    ``components`` decides connectivity exactly.  On the unit disc a link
    at some distance implies links at every shorter one, so the graph is
    connected exactly when every successive pair links.  Fading links can
    jump over an isolated vehicle, so there the connected components are
    counted.  ``eigen`` uses the spectral test instead; ``both`` reports the
    exact answer and flags a disagreement of the spectral one.
    """
    _check_arguments((model,), big_m, decider)

    headways = scenario.sample_headways(params, rng)
    edges = _trial_edges(headways, params, model, rng)
    n = edges.n

    degrees = edges.degrees
    forward_links = np.bincount(edges.i, minlength=n)
    # gaps run 1..n-1, so the counts are sized by n, never by big_m
    linked = np.bincount(edges.j - edges.i, minlength=n)[1 : big_m + 1]

    if decider == "eigen":
        connected = graph.is_connected(edges)
    elif model == RAYLEIGH:
        connected = graph.count_components(edges) == 1
    else:
        # lag-1 pair distances are np.diff(positions), not the headways,
        # which differ from them by cumsum rounding
        connected = bool(linked[0] == n - 1)
    mismatch = decider == "both" and graph.is_connected(edges) != connected

    margin = default_interior_margin(params)
    return TrialOutcome(
        connected=connected,
        mismatch=mismatch,
        linked_by_gap=linked,
        n_isolated_two_side=int(np.count_nonzero(degrees == 0)),
        n_isolated_forward=int(np.count_nonzero(forward_links[:-1] == 0)),
        degree_mean_interior=float(degrees[margin : n - margin].mean()),
    )


def default_interior_margin(params: ScenarioParams) -> int:
    """Vehicles to drop from each end before averaging node degree.

    An interior vehicle must have effectively all its reachable neighbours
    present on both sides for its expected degree to match the infinite-road
    value; the link probability is negligible beyond a few multiples of
    rho * lam neighbours.  Clamped so at least ten vehicles remain.
    """
    reach = params.rho * channel.unit_disc_range(params.budget, params.psi)
    margin = math.ceil(min(8.0 * reach, params.n_vehicles)) + 12
    return max(0, min(margin, (params.n_vehicles - 10) // 2))


def _trial_row(
    trial_index: int,
    params: ScenarioParams,
    model: str,
    master_seed: int,
    big_m: int,
    decider: str,
) -> TrialOutcome:
    """Trial ``trial_index`` of an ensemble, the row its ``EnsembleResult`` arrays stack."""
    return run_trial(params, model, trial_rng(master_seed, trial_index), big_m, decider)


@dataclass(frozen=True)
class EnsembleResult:
    """Per-trial arrays of one ensemble, entry t from trial t, plus the estimators over them."""

    params: ScenarioParams
    model: str
    trials: int
    master_seed: int
    big_m: int
    decider: str
    connected: np.ndarray  # bool, (trials,)
    mismatch: np.ndarray  # bool, (trials,): the spectral test disagreed (decider "both")
    linked_by_gap: np.ndarray  # int, (trials, min(big_m, N-1)): linked (i, i+m) pairs
    n_isolated_two_side: np.ndarray  # int, (trials,)
    n_isolated_forward: np.ndarray  # int, (trials,)
    degree_mean_interior: np.ndarray  # float, (trials,): inside default_interior_margin

    def network_connectivity(self) -> EnsembleEstimate:
        successes = int(np.count_nonzero(self.connected))
        lo, hi = wilson_interval(successes, self.trials)
        return EnsembleEstimate(successes / self.trials, lo, hi)

    def single_link(self, m: int) -> EnsembleEstimate:
        if not 1 <= m <= self.big_m:
            raise ValueError(f"gap m must lie in [1, {self.big_m}], got {m}")
        eligible = self.params.n_vehicles - m
        if eligible < 1:
            raise ValueError(f"no (i, i+{m}) pairs exist for N={self.params.n_vehicles}")
        counts = self.linked_by_gap[:, m - 1].astype(float)
        return _cluster_interval(counts / eligible)

    def node_degree(self) -> MeanEstimate:
        """Mean degree over the vehicles inside ``default_interior_margin``.

        Vehicles near the segment ends miss neighbours on one side, which
        would bias the average low against the infinite-road expectation.
        """
        return _trial_mean(self.degree_mean_interior)

    def vehicle_connectivity(self, side: str = "two") -> EnsembleEstimate:
        """Share of vehicles with a linked neighbour: on either side, or ahead (``side="one"``)."""
        n = self.params.n_vehicles
        if side == "two":
            isolated = self.n_isolated_two_side.astype(float)
            eligible = n
        elif side == "one":
            isolated = self.n_isolated_forward.astype(float)
            eligible = n - 1
        else:
            raise ValueError(f"side must be 'one' or 'two', got {side!r}")
        return _cluster_interval(1.0 - isolated / eligible)

    def decider_mismatches(self) -> int:
        return int(np.count_nonzero(self.mismatch))


def run_ensemble(
    params: ScenarioParams,
    model: str,
    trials: int,
    master_seed: int,
    big_m: int = 10,
    decider: str = "components",
    workers: int = 1,
    trial_map=None,
) -> EnsembleResult:
    """Run the full trial ensemble; deterministic in master_seed alone.

    The trials run through ``trial_map`` if given (``sweep`` shares one
    across its cells), else through ``_trial_map(workers, trials)``: in a
    process pool of up to ``workers`` processes, or serially.  A trial
    needs numpy and this package alone, so a worker has every module it
    uses whichever way it was started.  The per-trial streams and the
    index-ordered columns keep the result identical to a serial run.
    """
    _check_arguments((model,), big_m, decider, trials, master_seed)
    row = partial(
        _trial_row,
        params=params,
        model=model,
        master_seed=master_seed,
        big_m=big_m,
        decider=decider,
    )
    with nullcontext(trial_map) if trial_map else _trial_map(workers, trials) as mapped:
        rows = list(mapped(row, range(trials)))
    columns = (np.array(column) for column in zip(*rows))
    return EnsembleResult(params, model, trials, master_seed, big_m, decider, *columns)


@dataclass(frozen=True)
class SweepRow:
    """Outcome of one (operating point, model) cell; failures land in ``error``."""

    params: ScenarioParams
    model: str
    result: EnsembleResult | None
    error: str | None


def sweep(
    points,
    models,
    trials: int,
    master_seed: int,
    *,
    big_m: int = 10,
    decider: str = "components",
    workers: int = 1,
) -> list[SweepRow]:
    """Run the ensemble at every operating point for every model.

    Rows follow point order, then model order.  Per-trial streams depend only
    on (master_seed, trial index), so duplicated points produce identical
    rows and both models share placements at the same seed.  Every cell runs
    through one ``_trial_map(workers, trials)``: one process pool for the
    whole sweep, or serially.  Arguments are checked before any
    cell runs; a cell that fails with a numerical or input error is recorded
    in its row and the sweep continues.
    """
    points = list(points)
    if not points:
        raise ValueError("points must contain at least one operating point")
    for params in points:
        if not isinstance(params, ScenarioParams):
            raise TypeError(f"points must be ScenarioParams, got {type(params).__name__}")
    _check_arguments(models, big_m, decider, trials, master_seed)
    rows: list[SweepRow] = []
    with _trial_map(workers, trials) as trial_map:
        for params in points:
            for model in models:
                try:
                    result = run_ensemble(
                        params,
                        model,
                        trials,
                        master_seed,
                        big_m=big_m,
                        decider=decider,
                        workers=workers,
                        trial_map=trial_map,
                    )
                except (ValueError, ArithmeticError) as exc:
                    rows.append(SweepRow(params, model, None, f"{type(exc).__name__}: {exc}"))
                else:
                    rows.append(SweepRow(params, model, result, None))
    return rows
