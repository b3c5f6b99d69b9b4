"""Least-squares reconstruction of smooth signals from generalized samples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .variation import VariationOperator

# singular values of S.T @ prior at or below INV_TOL times the largest
# are left out of the correction's (pseudo-)inverse
INV_TOL = 1e-10


class GramSolver(Protocol):
    """What reconstruction needs of a variation operator F: its dimension n
    and solves with ``F.T @ F``. ``VariationOperator`` and
    ``SparseVariationOperator`` are both one."""

    @property
    def dim(self) -> int: ...

    def solve_gram(self, B: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class ReconstructionPipeline:
    """Precomputed operators mapping samples back to a full signal.

    ``prior_matrix`` solves the smoothness-weighted normal system for
    the sampling matrix and also synthesizes the reconstruction, whose
    range is its column space. ``correction`` is the inverse of
    ``sampling_matrix.T @ prior_matrix``, or its Moore-Penrose
    pseudo-inverse when that product is numerically singular (flagged by
    ``used_pseudo_inverse``).
    """

    sampling_matrix: np.ndarray
    prior_matrix: np.ndarray
    correction: np.ndarray
    used_pseudo_inverse: bool

    @property
    def num_samples(self) -> int:
        return self.sampling_matrix.shape[1]

    def reconstruct(self, samples: np.ndarray) -> np.ndarray:
        """Synthesize a full signal from a length-K sample vector."""
        c = np.asarray(samples, dtype=float).ravel()
        if c.shape != (self.num_samples,):
            raise ValueError(
                f"expected {self.num_samples} samples, got shape {c.shape}"
            )
        return self.prior_matrix @ (self.correction @ c)


def build_pipeline(vo: GramSolver, S: np.ndarray) -> ReconstructionPipeline:
    """Build the least-squares reconstruction pipeline for a sampling matrix.

    The prior matrix Q solves ``(F.T @ F) Q = S`` through
    ``vo.solve_gram`` (no explicit inverse); ``vo`` needs nothing else
    but its ``dim``. The correction
    inverts ``S.T @ Q`` through its SVD, keeping the singular values
    above ``INV_TOL`` relative to the largest: the inverse when all are
    kept, the pseudo-inverse with that cutoff otherwise.

    Raises:
        ValueError: if the sampling matrix has the wrong shape, no
            column, or a non-finite entry.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != vo.dim or S.shape[1] == 0:
        raise ValueError(
            f"sampling matrix must have {vo.dim} rows and at least one column, "
            f"got shape {S.shape}"
        )
    if not np.all(np.isfinite(S)):
        raise ValueError("sampling matrix has non-finite entries")
    prior = vo.solve_gram(S)
    product = S.T @ prior
    U, s, Vt = np.linalg.svd(product)
    keep = s > INV_TOL * s[0]
    return ReconstructionPipeline(
        sampling_matrix=S,
        prior_matrix=prior,
        correction=(Vt[keep].T / s[keep]) @ U[:, keep].T,
        used_pseudo_inverse=not keep.all(),
    )


def sample(S: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the sampling map: ``S.T @ x``."""
    S = np.asarray(S, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    if S.ndim != 2 or S.shape[0] != x.shape[0]:
        raise ValueError(
            f"sampling matrix shape {S.shape} does not match signal length {x.shape[0]}"
        )
    return S.T @ x


def kkt_reconstruct(
    vo: VariationOperator, S: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Reconstruct through the constrained least-squares KKT system.

    Solves ``argmin ||F x||^2 subject to S.T x = c`` by assembling the
    saddle-point system ``[[F.T F, S], [S.T, 0]]`` and solving it
    directly. Slower than the pipeline and sharing no machinery with it,
    so the two serve as independent cross-checks.

    Raises:
        ValueError: if the KKT system is singular (degenerate sampling
            matrix); the pipeline's pseudo-inverse path is the
            production fallback for that case.
    """
    S = np.asarray(S, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    if S.ndim != 2 or S.shape[0] != vo.dim:
        raise ValueError(
            f"sampling matrix must have {vo.dim} rows, got shape {S.shape}"
        )
    n, k = S.shape
    if c.shape != (k,):
        raise ValueError(f"expected {k} samples, got shape {c.shape}")
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = (vo.basis * vo.values**2) @ vo.basis.T  # F.T @ F
    kkt[:n, n:] = S
    kkt[n:, :n] = S.T
    rhs = np.zeros(n + k)
    rhs[n:] = c
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular KKT system: sampling matrix is degenerate"
        ) from exc
    return solution[:n]
