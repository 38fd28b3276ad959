"""Free-flow traffic placements on a 1D road and the spacing distribution math.

Vehicles on a sparse highway arrive as a Poisson process, so the spacing
between successive vehicles is exponential with rate equal to the vehicle
density.  The gap to the m-th neighbour is a sum of m spacings and follows an
Erlang distribution.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import _EXP_DRAW_MAX, LinkBudget, _exponential_draws, unit_disc_range

__all__ = [
    "ScenarioParams",
    "PairBlock",
    "sample_headways",
    "pair_blocks",
    "erlang_pdf",
    "erlang_cdf",
]


@dataclass(frozen=True)
class ScenarioParams:
    """Single source of truth for one operating point.

    rho          vehicle density [vehicles/m]
    road_length  road segment length [m]; its only role is fixing the count
    tx_power     transmit power [mW, linear]
    noise_power  noise power [mW, linear]
    beta         reference path loss times antenna gain, dimensionless
    ple          path-loss exponent, positive integer
    psi          SNR threshold, linear

    The vehicle count is derived as max(2, round(rho * road_length)); the
    placement itself is never truncated to the segment.  The unit-disc range
    (see ``channel.unit_disc_range``) and every position a trial can draw
    must be finite.  ``budget`` is the radio part (tx_power, noise_power,
    beta, ple), built and validated once.
    """

    rho: float
    road_length: float
    tx_power: float
    noise_power: float
    beta: float
    ple: int
    psi: float
    n_vehicles: int = field(init=False)
    budget: LinkBudget = field(init=False)

    def __post_init__(self):
        for name in ("rho", "road_length", "psi"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        budget = LinkBudget(self.tx_power, self.noise_power, self.beta, self.ple)
        if not math.isfinite(unit_disc_range(budget, self.psi)):
            raise ValueError("unit-disc range (beta * tx_power / (noise_power * psi))^(1/ple) "
                             "overflows a float")
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "ple", budget.ple)
        object.__setattr__(self, "n_vehicles", max(2, round(self.rho * self.road_length)))
        # a headway is at most _EXP_DRAW_MAX / rho, so no position can overflow
        if not math.isfinite((self.n_vehicles - 1) / self.rho * _EXP_DRAW_MAX):
            raise ValueError(f"rho {self.rho!r} is too small: {self.n_vehicles} vehicles "
                             "could be placed past the largest float")


# pairs per block of a pair window; a block holds whole rows, however long
_BLOCK_PAIRS = 8192


class PairBlock(NamedTuple):
    """Consecutive rows of a pair window: their pairs and each row's counts.

    Row r of n vehicles has ``n - 1 - r`` pairs in the upper triangle.  It
    lists its first ``ahead`` of them, pairs (r, r + 1), (r, r + 2), ...,
    and ``skipped`` are the rest, past the window; ``i``, ``j`` and
    ``distances`` hold the listed pairs in order.
    """

    i: np.ndarray
    j: np.ndarray
    distances: np.ndarray
    ahead: np.ndarray
    skipped: np.ndarray


def sample_headways(params: ScenarioParams, rng: np.random.Generator) -> np.ndarray:
    """Draw the N-1 intervehicle spacings, i.i.d. exponential with rate rho.

    Uses the inverse CDF x = -ln(1 - u)/rho with u uniform on [0, 1), so a
    fixed seed reproduces the same vector on any platform.
    """
    return _exponential_draws(rng.random(params.n_vehicles - 1)) / params.rho


def pair_blocks(headways: np.ndarray, reach: float) -> Iterator[PairBlock]:
    """The pairs within ``reach`` of the vehicles the headways place, in blocks.

    Positions are prefix sums, so sorted: row i of the window ends at the
    first vehicle past ``positions[i] + reach``, and one ``searchsorted``
    finds every row's end before this returns, so bad input raises here.
    The window lists every pair (i, j), i < j, with ``positions[j] <=
    positions[i] + reach`` in row-major upper-triangle order, row i its first
    ``ahead[i]`` successors; ``reach = inf`` lists the whole triangle.  The
    pairs are built a block at a time as they are read: this is the only
    pair layout, shared by the channel draw and the edge list.
    """
    headways = np.asarray(headways, dtype=float)
    if headways.ndim != 1 or headways.size < 1:
        raise ValueError("need at least one headway (two vehicles)")
    if not np.all(np.isfinite(headways)) or np.any(headways < 0):
        raise ValueError("headways must be finite and >= 0")
    if not reach >= 0:
        raise ValueError(f"reach must be >= 0, got {reach!r}")
    positions = np.concatenate(([0.0], np.cumsum(headways)))
    rows = np.arange(headways.size)
    ahead = np.searchsorted(positions, positions[:-1] + reach, side="right") - rows - 1
    return _blocks(positions, ahead)


def _blocks(positions: np.ndarray, ahead: np.ndarray) -> Iterator[PairBlock]:
    """The window in row order, in blocks of at most ``_BLOCK_PAIRS`` pairs.

    A row longer than that is a block of its own.  Every row, including
    those without pairs, lies in exactly one block.
    """
    ends = np.cumsum(ahead)
    start = 0
    while start < ahead.size:
        limit = ends[start] - ahead[start] + _BLOCK_PAIRS
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        rows = np.arange(start, stop)
        block_ahead = ahead[start:stop]
        i = np.repeat(rows, block_ahead)
        # j runs i + 1, i + 2, ... within each row
        row_start = np.cumsum(block_ahead) - block_ahead
        j = np.arange(i.size) + np.repeat(rows + 1 - row_start, block_ahead)
        yield PairBlock(i, j, positions[j] - positions[i], block_ahead,
                        ahead.size - rows - block_ahead)
        start = stop


def _require_neighbor_index(m) -> int:
    if m != int(m) or m < 1:
        raise ValueError(f"neighbour index must be a positive integer, got {m!r}")
    return int(m)


def erlang_pdf(x: float, m: int, rho: float) -> float:
    """Density of the gap to the m-th neighbour: rho^m x^(m-1) e^(-rho x)/(m-1)!.

    m = 1 reduces to the exponential spacing density.  Computed in log space
    so large m does not overflow the factorial.  Negative x has zero density.
    """
    m = _require_neighbor_index(m)
    if not rho > 0:
        raise ValueError(f"density must be > 0, got {rho!r}")
    if x < 0:
        return 0.0
    if x == 0:
        return float(rho) if m == 1 else 0.0
    return math.exp(m * math.log(rho) - math.lgamma(m) + (m - 1) * math.log(x) - rho * x)


def erlang_cdf(x: float, m: int, rho: float) -> float:
    """P(gap to the m-th neighbour <= x) = 1 - e^(-rho x) sum_{k<m} (rho x)^k / k!.

    m = 1 is the exponential CDF, -expm1(-rho x), exact down to the smallest
    rho x; larger m subtract the sum from 1.  Where rho x overflows, every m
    reads 1.
    """
    m = _require_neighbor_index(m)
    if not rho > 0:
        raise ValueError(f"density must be > 0, got {rho!r}")
    return next(itertools.islice(_erlang_cdfs(rho * x), m - 1, None))


def _erlang_cdfs(t: float) -> Iterator[float]:
    """The Erlang CDFs at rho x = t for m = 1, 2, ...

    Larger m read one running sum of the Poisson head, its terms added in k
    order, so a caller that needs every m up to some M sums M terms.
    """
    # x <= 0, or rho x below the smallest double
    if t <= 0:
        return itertools.repeat(0.0)
    if t == math.inf:
        return itertools.repeat(1.0)
    log_t = math.log(t)
    terms = (math.exp(k * log_t - t - math.lgamma(k + 1.0)) for k in itertools.count())
    heads = itertools.islice(itertools.accumulate(terms), 1, None)
    return itertools.chain([-math.expm1(-t)], (max(0.0, 1.0 - head) for head in heads))
