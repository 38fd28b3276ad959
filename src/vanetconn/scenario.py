"""Free-flow traffic placements on a 1D road and the spacing distribution math.

Vehicles on a sparse highway arrive as a Poisson process, so the spacing
between successive vehicles is exponential with rate equal to the vehicle
density.  The gap to the m-th neighbour is a sum of m spacings and follows an
Erlang distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkBudget
from .numerics import log_factorial

__all__ = [
    "ScenarioParams",
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


@dataclass(frozen=True)
class Placement:
    """One sampled snapshot: spacings, coordinates and the pairs within reach.

    The pair window lists every pair (i, j), i < j, with
    ``positions[j] <= positions[i] + reach``, in row-major upper-triangle
    order: row i holds its first ``ahead[i]`` successors.  ``distances`` is
    ``positions[j] - positions[i]`` for those pairs.  This is the only pair
    layout, shared by the channel draw and the edge list.
    """

    headways: np.ndarray
    positions: np.ndarray
    distances: np.ndarray
    ahead: np.ndarray
    i: np.ndarray
    j: np.ndarray

    @property
    def n_vehicles(self) -> int:
        return self.positions.shape[0]


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
    end, and time and memory are linear in the number of pairs listed.
    ``reach = inf`` lists the whole upper triangle.
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
    i = np.repeat(rows, ahead)
    # j runs i + 1, i + 2, ... within each row
    row_start = np.cumsum(ahead) - ahead
    j = np.arange(i.size) + np.repeat(rows + 1 - row_start, ahead)
    distances = positions[j] - positions[i]
    headways = headways.copy()
    for arr in (headways, positions, distances, ahead, i, j):
        arr.flags.writeable = False
    return Placement(headways, positions, distances, ahead, i, j)


def erlang_pdf(x, m: int, rho: float):
    """Density of the gap to the m-th neighbour: rho^m x^(m-1) e^(-rho x)/(m-1)!.

    m = 1 reduces to the exponential spacing density.  Computed in log space
    so large m does not overflow the factorial.  Accepts scalars or arrays;
    negative x has zero density.
    """
    if m != int(m) or m < 1:
        raise ValueError(f"neighbour index must be a positive integer, got {m!r}")
    if not rho > 0:
        raise ValueError(f"density must be > 0, got {rho!r}")
    m = int(m)
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr)
    log_norm = m * math.log(rho) - log_factorial(m - 1)
    pos = x_arr > 0
    with np.errstate(divide="ignore"):
        out[pos] = np.exp(log_norm + (m - 1) * np.log(x_arr[pos]) - rho * x_arr[pos])
    if m == 1:
        out[x_arr == 0] = rho
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(out)
    return out


def erlang_cdf(x: float, m: int, rho: float) -> float:
    """P(gap to the m-th neighbour <= x) = 1 - e^(-rho x) sum_{k<m} (rho x)^k / k!."""
    if m != int(m) or m < 1:
        raise ValueError(f"neighbour index must be a positive integer, got {m!r}")
    if not rho > 0:
        raise ValueError(f"density must be > 0, got {rho!r}")
    if x <= 0:
        return 0.0
    m = int(m)
    t = rho * x
    log_t = math.log(t)
    total = 0.0
    for k in range(m):
        total += math.exp(k * log_t - t - log_factorial(k))
    return max(0.0, 1.0 - total)
