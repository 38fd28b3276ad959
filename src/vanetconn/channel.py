"""Per-link SNR under the unit-disc and Rayleigh-fading channel models.

All math in this module runs on linear quantities; dB and dBm appear only at
the conversion helpers, and should stay confined to the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkBudget",
    "deterministic_snr",
    "unit_disc_range",
    "sample_rayleigh_snr",
    "snr_unit_disc",
    "snr_rayleigh",
    "dbm_to_mw",
    "mw_to_dbm",
    "db_to_linear",
    "linear_to_db",
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


def sample_rayleigh_snr(d: float, budget: LinkBudget, rng: np.random.Generator) -> float:
    """One fading-channel SNR draw at distance d.

    Received SNR is exponential with mean equal to the deterministic SNR at
    the same distance, sampled by inverse CDF for seed reproducibility.
    """
    mean = deterministic_snr(d, budget)
    u = 1.0 - rng.random()
    return -mean * math.log(u)


def snr_unit_disc(distances: np.ndarray, budget: LinkBudget) -> np.ndarray:
    """Deterministic SNR at each distance of a pair vector.

    Coincident vehicles (zero distance) get infinite SNR, the limit of the
    power law, so they always clear any threshold.
    """
    snr = distances**budget.ple
    with np.errstate(divide="ignore"):
        return np.divide(budget.snr_scale, snr, out=snr)


def snr_rayleigh(
    distances: np.ndarray, budget: LinkBudget, rng: np.random.Generator
) -> np.ndarray:
    """Fading SNR at each distance of a pair vector, one draw per pair.

    Each draw is exponential with mean the deterministic SNR at the pair
    distance, sampled by inverse CDF from one ``rng.random`` call in pair
    order; a pair is one reciprocal link, so there is nothing to mirror.
    Computed in place, which keeps the result bit-identical to
    ``-means * log(1 - u)`` while holding only two pair-sized arrays.
    """
    snr = snr_unit_disc(distances, budget)
    u = rng.random(snr.size)
    np.subtract(1.0, u, out=u)  # maps [0, 1) onto (0, 1]
    np.log(u, out=u)
    with np.errstate(invalid="ignore"):
        np.multiply(snr, u, out=snr)
    np.negative(snr, out=snr)
    # inf * 0 at coincident vehicles: keep the infinite-SNR limit
    snr[np.isnan(snr)] = np.inf
    return snr


def dbm_to_mw(x: float) -> float:
    return 10.0 ** (x / 10.0)


def mw_to_dbm(x: float) -> float:
    if not x > 0:
        raise ValueError(f"power must be > 0 mW, got {x!r}")
    return 10.0 * math.log10(x)


def db_to_linear(x: float) -> float:
    return 10.0 ** (x / 10.0)


def linear_to_db(x: float) -> float:
    if not x > 0:
        raise ValueError(f"ratio must be > 0, got {x!r}")
    return 10.0 * math.log10(x)
