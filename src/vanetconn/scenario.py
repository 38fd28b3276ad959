"""Free-flow traffic placements on a 1D road and the spacing distribution math.

Vehicles on a sparse highway arrive as a Poisson process, so the spacing
between successive vehicles is exponential with rate equal to the vehicle
density.  The gap to the m-th neighbour is a sum of m spacings and follows an
Erlang distribution.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel import LinkBudget

__all__ = [
    "ScenarioParams",
    "PairBlock",
    "Placement",
    "sample_headways",
    "placement_from_headways",
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
    placement itself is never truncated to the segment.  ``budget`` is the
    radio part (tx_power, noise_power, beta, ple), built and validated once.
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
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "ple", budget.ple)
        object.__setattr__(self, "n_vehicles", max(2, round(self.rho * self.road_length)))


# pairs per block of a pair window; a block holds whole rows, however long
_BLOCK_PAIRS = 8192


class PairBlock(NamedTuple):
    """Consecutive rows of a pair window: their pairs and each row's lengths.

    Row r of n vehicles has ``n - 1 - r`` pairs in the upper triangle
    (``row_lengths``) and lists its first ``ahead`` of them, pairs (r, r + 1),
    (r, r + 2), ...; ``i``, ``j`` and ``distances`` hold those pairs in order.
    """

    i: np.ndarray
    j: np.ndarray
    distances: np.ndarray
    ahead: np.ndarray
    row_lengths: np.ndarray


@dataclass(frozen=True)
class Placement:
    """One sampled snapshot: spacings, coordinates and the pairs within reach.

    The pair window lists every pair (i, j), i < j, with
    ``positions[j] <= positions[i] + reach``, in row-major upper-triangle
    order: row i holds its first ``ahead[i]`` successors.  ``blocks`` yields
    it a few thousand pairs at a time, whole rows each; it is the only pair
    layout, shared by the channel draw and the edge list.
    """

    headways: np.ndarray
    positions: np.ndarray
    ahead: np.ndarray

    @property
    def n_vehicles(self) -> int:
        return self.positions.shape[0]

    def _rows(self, start: int, stop: int) -> PairBlock:
        """Pairs of window rows ``start`` to ``stop - 1``."""
        ahead = self.ahead[start:stop]
        rows = np.arange(start, stop)
        i = np.repeat(rows, ahead)
        # j runs i + 1, i + 2, ... within each row
        row_start = np.cumsum(ahead) - ahead
        j = np.arange(i.size) + np.repeat(rows + 1 - row_start, ahead)
        distances = self.positions[j] - self.positions[i]
        return PairBlock(i, j, distances, ahead, self.ahead.size - rows)

    def blocks(self) -> Iterator[PairBlock]:
        """The window in row order, in blocks of at most ``_BLOCK_PAIRS`` pairs.

        A row longer than that is a block of its own.  Every row, including
        those without pairs, lies in exactly one block.
        """
        ends = np.cumsum(self.ahead)
        start = 0
        while start < self.ahead.size:
            limit = ends[start] - self.ahead[start] + _BLOCK_PAIRS
            stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
            yield self._rows(start, stop)
            start = stop

    @property
    def distances(self) -> np.ndarray:
        """``positions[j] - positions[i]`` over the whole window, built on every read.

        Trials read the window only through ``blocks``.  This stays because
        ``bench/spans.py`` sizes a placement by its ``headways``,
        ``positions`` and ``distances``.
        """
        return self._rows(0, self.ahead.size).distances


def sample_headways(params: ScenarioParams, rng: np.random.Generator) -> np.ndarray:
    """Draw the N-1 intervehicle spacings, i.i.d. exponential with rate rho.

    Uses the inverse CDF x = -ln(u)/rho with u uniform on (0, 1], so a fixed
    seed reproduces the same vector on any platform.
    """
    n = params.n_vehicles - 1
    u = 1.0 - rng.random(n)  # maps [0, 1) onto (0, 1]
    return -np.log(u) / params.rho


def placement_from_headways(headways: np.ndarray, reach: float) -> Placement:
    """Build positions by prefix sums and the window of pairs within reach.

    Positions are sorted, so row i of the window ends at the first vehicle
    past ``positions[i] + reach``; one ``searchsorted`` finds every row's
    end.  The pairs themselves are built only when read, so this takes time
    and memory linear in the vehicles.  ``reach = inf`` lists the whole
    upper triangle.
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
    headways = headways.copy()
    for arr in (headways, positions, ahead):
        arr.flags.writeable = False
    return Placement(headways, positions, ahead)


def _require_neighbor_index(m) -> int:
    if m != int(m) or m < 1:
        raise ValueError(f"neighbour index must be a positive integer, got {m!r}")
    return int(m)


def erlang_pdf(x, m: int, rho: float):
    """Density of the gap to the m-th neighbour: rho^m x^(m-1) e^(-rho x)/(m-1)!.

    m = 1 reduces to the exponential spacing density.  Computed in log space
    so large m does not overflow the factorial.  Accepts scalars or arrays;
    negative x has zero density.
    """
    m = _require_neighbor_index(m)
    if not rho > 0:
        raise ValueError(f"density must be > 0, got {rho!r}")
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr)
    log_norm = m * math.log(rho) - math.lgamma(m)
    pos = x_arr > 0
    with np.errstate(divide="ignore"):
        out[pos] = np.exp(log_norm + (m - 1) * np.log(x_arr[pos]) - rho * x_arr[pos])
    if m == 1:
        out[x_arr == 0] = rho
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def erlang_cdf(x: float, m: int, rho: float) -> float:
    """P(gap to the m-th neighbour <= x) = 1 - e^(-rho x) sum_{k<m} (rho x)^k / k!.

    m = 1 is the exponential CDF, -expm1(-rho x), exact down to the smallest
    rho x; larger m subtract the sum from 1.
    """
    m = _require_neighbor_index(m)
    if not rho > 0:
        raise ValueError(f"density must be > 0, got {rho!r}")
    t = rho * x
    # x <= 0, or rho x below the smallest double
    if t <= 0:
        return 0.0
    if m == 1:
        return -math.expm1(-t)
    log_t = math.log(t)
    total = 0.0
    for k in range(m):
        total += math.exp(k * log_t - t - math.lgamma(k + 1.0))
    return max(0.0, 1.0 - total)
