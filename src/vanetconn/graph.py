"""Snapshot graphs and the connectivity deciders.

A trial's graph is an edge list thresholded from the SNR of a pair window.
The exact decider counts its connected components with scipy's
``connected_components``.  The spectral decider follows the Laplacian route:
the number of zero eigenvalues equals the number of connected components, so
a graph is connected exactly when one eigenvalue is zero (its algebraic
connectivity, the second-smallest, is positive).  It needs a dense Laplacian
and a tolerance for "zero", and serves as the cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "EdgeList",
    "SpectralCeilingError",
    "edges_from_snr",
    "edges_from_adjacency",
    "count_components",
    "check_spectral_ceiling",
    "count_partitions_eigen",
    "is_connected",
]

_RELATIVE_ZERO_TOL = 1e-8


class SpectralCeilingError(ArithmeticError):
    """The spectral zero tolerance could exceed the algebraic connectivity."""


@dataclass(frozen=True)
class EdgeList:
    """Undirected simple graph on n vertices: edge k joins i[k] < j[k]."""

    n: int
    i: np.ndarray
    j: np.ndarray

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.bincount(self.i, minlength=self.n) + np.bincount(self.j, minlength=self.n)

    @property
    def laplacian(self) -> np.ndarray:
        """Dense float Laplacian, built on every access; only the spectral path uses it."""
        lap = np.zeros((self.n, self.n))
        lap[self.i, self.j] = -1.0
        lap[self.j, self.i] = -1.0
        lap[np.diag_indices(self.n)] = self.degrees
        return lap


def edges_from_snr(
    snr: np.ndarray, psi: float, i: np.ndarray, j: np.ndarray, n: int
) -> EdgeList:
    """Threshold the SNR of pairs (i, j) of n vehicles: an edge exists where snr >= psi."""
    linked = snr >= psi
    return EdgeList(n=n, i=i[linked], j=j[linked])


def edges_from_adjacency(adjacency: np.ndarray) -> EdgeList:
    """Validate a dense 0/1 adjacency matrix and list its edges."""
    a = np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("need at least two nodes")
    if not np.array_equal(a, a.T):
        raise ValueError("adjacency must be symmetric (undirected graph)")
    if np.any(np.diagonal(a) != 0):
        raise ValueError("adjacency must have a zero diagonal (no self-loops)")
    if not np.all((a == 0) | (a == 1)):
        raise ValueError("adjacency entries must be 0 or 1")
    i, j = np.nonzero(np.triu(a, 1))
    return EdgeList(n=a.shape[0], i=i, j=j)


@cache
def _csgraph():
    """``scipy.sparse.csr_array`` and ``connected_components``, imported on first use.

    Only the ensemble counts components, so the closed forms never pay for
    ``scipy.sparse.csgraph``.  A process pool inherits the import when the
    parent calls this before forking.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    return csr_array, connected_components


def count_components(g: EdgeList) -> int:
    """Exact number of connected components.

    The edges become CSR rows directly when they come in row order, as a
    trial lists them; any other order is sorted by row first.
    """
    csr_array, connected_components = _csgraph()
    i, j = g.i, g.j
    if np.any(i[1:] < i[:-1]):
        order = np.argsort(i, kind="stable")
        i, j = i[order], j[order]
    indptr = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum(np.bincount(i, minlength=g.n), out=indptr[1:])
    # csgraph reads the index buffer as is, so it must be contiguous
    indices = np.ascontiguousarray(j)
    adjacency = csr_array((np.ones(j.size), indices, indptr), shape=(g.n, g.n))
    return int(connected_components(adjacency, directed=False, return_labels=False))


def check_spectral_ceiling(n: int, max_degree: int) -> None:
    """Raise SpectralCeilingError where the zero test could misread a connected graph.

    A connected graph on n vertices has algebraic connectivity at least
    4 / (n * diameter) >= 4 / (n (n - 1)) (Mohar 1991), and each component
    of a disconnected one obeys the same bound on its own vertex count.  The
    zero tolerance is 1e-8 * max(1, lambda_max), and lambda_max is at most
    min(n, 2 * max_degree).  While that tolerance bound stays below 4 / (n (n - 1)),
    no nonzero eigenvalue can be read as zero.  A path graph passes up to
    n = 10^4.
    """
    tol = _RELATIVE_ZERO_TOL * max(1.0, float(min(n, 2 * max_degree)))
    floor = 4.0 / (n * (n - 1))
    if tol >= floor:
        raise SpectralCeilingError(
            f"spectral zero tolerance {tol:.3g} reaches the algebraic-connectivity "
            f"floor {floor:.3g} of a {n}-vertex graph; use the components decider"
        )


def count_partitions_eigen(g: EdgeList) -> int:
    """Number of connected components as the count of (near-)zero eigenvalues.

    An eigenvalue is zero when its magnitude is below 1e-8 * max(1, lambda_max);
    the ceiling check runs first.
    """
    check_spectral_ceiling(g.n, int(g.degrees.max()))
    eigenvalues = np.linalg.eigvalsh(g.laplacian)
    tol = _RELATIVE_ZERO_TOL * max(1.0, float(eigenvalues[-1]))
    return int(np.count_nonzero(np.abs(eigenvalues) < tol))


def is_connected(g: EdgeList) -> bool:
    """Spectral connectivity decision: exactly one zero Laplacian eigenvalue."""
    return count_partitions_eigen(g) == 1
