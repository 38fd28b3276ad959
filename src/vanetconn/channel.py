"""Per-link SNR under the unit-disc and Rayleigh-fading channel models.

All math in this module runs on linear quantities.  dB and dBm appear only in
the to-linear helper the CLI calls at its boundary; nothing converts back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkBudget",
    "deterministic_snr",
    "unit_disc_range",
    "link_reach",
    "sample_rayleigh_snr",
    "snr_unit_disc",
    "pair_uniforms",
    "snr_rayleigh",
    "dbm_to_mw",
    "db_to_linear",
]


@dataclass(frozen=True)
class LinkBudget:
    """Radio constants of a link: powers in mW (linear), PLE a positive integer."""

    tx_power: float
    noise_power: float
    beta: float
    ple: int

    def __post_init__(self):
        for name in ("tx_power", "noise_power", "beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.ple != int(self.ple) or self.ple < 1:
            raise ValueError(f"ple must be a positive integer, got {self.ple!r}")
        object.__setattr__(self, "ple", int(self.ple))

    @property
    def snr_scale(self) -> float:
        """Received SNR at 1 m: beta * tx_power / noise_power."""
        return self.beta * self.tx_power / self.noise_power


def deterministic_snr(d: float, budget: LinkBudget) -> float:
    """Path-loss-only received SNR at distance d: beta*P_T / (d^alpha * P_noise).

    d = 0 is rejected; the free-space power law is singular there.
    """
    if not d > 0:
        raise ValueError(f"distance must be > 0, got {d!r}")
    return budget.snr_scale / d**budget.ple


def unit_disc_range(budget: LinkBudget, psi: float) -> float:
    """Distance at which the deterministic SNR equals the threshold psi."""
    if not psi > 0:
        raise ValueError(f"threshold must be > 0, got {psi!r}")
    return (budget.snr_scale / psi) ** (1.0 / budget.ple)


# Generator.random returns multiples of 2^-53 in [0, 1), so 1 - u >= 2^-53 and
# an inverse-CDF unit-mean exponential draw -ln(1 - u), a fading factor or a
# headway times rho, never exceeds 53 ln 2 = 36.737.
_EXP_DRAW_MAX = 37.0


def _exponential_draws(u: np.ndarray) -> np.ndarray:
    """Unit-mean exponential draws -ln(1 - u) of uniforms u in [0, 1), written over u."""
    np.subtract(1.0, u, out=u)  # maps [0, 1) onto (0, 1]
    np.log(u, out=u)
    return np.negative(u, out=u)


# far above the rounding of the reach and of the pair distances
_REACH_MARGIN = 1.0 + 1e-6


def link_reach(budget: LinkBudget, psi: float, fading: bool) -> float:
    """Distance beyond which no pair can link under the channel model.

    The unit disc links up to ``unit_disc_range``.  A fading draw is at
    most 37 times its mean (see ``_EXP_DRAW_MAX``), so a pair whose
    deterministic SNR times 37 is below psi never links; that happens past
    ``unit_disc_range * 37^(1/ple)``.  Both reaches carry ``_REACH_MARGIN``,
    so leaving out the pairs beyond them is exact.
    """
    reach = unit_disc_range(budget, psi)
    if fading:
        reach *= _EXP_DRAW_MAX ** (1.0 / budget.ple)
    return reach * _REACH_MARGIN


def sample_rayleigh_snr(d: float, budget: LinkBudget, rng: np.random.Generator) -> float:
    """One fading-channel SNR draw at distance d.

    Received SNR is exponential with mean equal to the deterministic SNR at
    the same distance, sampled by inverse CDF for seed reproducibility.
    """
    return deterministic_snr(d, budget) * _exponential_draws(rng.random(1)).item()


def snr_unit_disc(distances: np.ndarray, budget: LinkBudget) -> np.ndarray:
    """Deterministic SNR at each distance of a pair vector.

    Coincident vehicles (zero distance) get infinite SNR, the limit of the
    power law, so they always clear any threshold.
    """
    snr = distances**budget.ple
    with np.errstate(divide="ignore"):
        return np.divide(budget.snr_scale, snr, out=snr)


def pair_uniforms(
    ahead: np.ndarray, skipped: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Uniforms of the pairs in consecutive window rows, at their stream places.

    The stream holds one uniform per pair (i, j), i < j, of all vehicles in
    row-major upper-triangle order; row r uses its first ``ahead[r]`` pairs
    and skips the next ``skipped[r]``.  Each run of used pairs is one
    ``rng.random`` call and the skipped pairs at the end of a row are
    ``advance``d over, so rows fed in order, all of them or a block at a
    time, give ``rng.random(n * (n - 1) // 2)`` at the used pairs and leave
    the generator where that call would.  This needs a bit generator whose
    ``advance`` counts doubles, as PCG64 (the default) does.
    """
    ends = np.cumsum(ahead)
    u = np.empty(ends[-1])
    rows = np.flatnonzero(skipped)
    # one pass per row that skips pairs, about 2 us each, so bound methods
    draw, advance = rng.random, rng.bit_generator.advance
    start = 0
    for stop, skip in zip(ends[rows].tolist(), skipped[rows].tolist()):
        draw(out=u[start:stop])
        advance(skip)
        start = stop
    draw(out=u[start:])
    return u


def snr_rayleigh(
    distances: np.ndarray,
    ahead: np.ndarray,
    skipped: np.ndarray,
    budget: LinkBudget,
    rng: np.random.Generator,
) -> np.ndarray:
    """Fading SNR at each distance of consecutive window rows, one draw per pair.

    Each draw is exponential with mean the deterministic SNR at the pair
    distance, sampled by inverse CDF from the pair's uniform in the stream
    of ``pair_uniforms``; a pair is one reciprocal link, so there is nothing
    to mirror.  Computed in place, which keeps the result bit-identical to
    ``-means * log(1 - u)`` while holding only two pair-sized arrays.
    """
    snr = snr_unit_disc(distances, budget)
    with np.errstate(invalid="ignore"):
        np.multiply(snr, _exponential_draws(pair_uniforms(ahead, skipped, rng)), out=snr)
    # inf * 0 at coincident vehicles: keep the infinite-SNR limit
    snr[np.isnan(snr)] = np.inf
    return snr


def db_to_linear(x: float) -> float:
    return 10.0 ** (x / 10.0)


# a power in dBm is a ratio in dB to 1 mW
dbm_to_mw = db_to_linear
