"""Least-squares reconstruction of smooth signals from generalized samples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .variation import VariationOperator

# eigenvalues of S.T @ prior at or below INV_TOL times the largest in
# magnitude are left out of the correction's (pseudo-)inverse
INV_TOL = 1e-10


class GramSolver(Protocol):
    """What reconstruction needs of a variation operator F, the prior's
    precision: its dimension n and solves with F. ``VariationOperator`` and
    ``SparseVariationOperator`` are both one."""

    @property
    def dim(self) -> int: ...

    def solve_gram(self, B: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class ReconstructionPipeline:
    """Precomputed operators mapping samples back to a full signal.

    ``prior_matrix`` is the prior covariance ``F^-1`` applied to the
    sampling matrix and synthesizes the reconstruction, whose range is
    its column space. ``correction`` is the inverse of the symmetric
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

    The prior matrix Q solves ``F Q = S`` through ``vo.solve_gram`` (no
    explicit inverse), F being the prior's precision; ``vo`` needs
    nothing else but its ``dim``. So ``Q C S.T x`` is the prior's
    conditional mean of x given the samples. The correction C inverts
    ``S.T @ Q = S.T F^-1 S``, which is symmetric, through the
    eigendecomposition of its symmetric part, keeping the eigenvalues
    above ``INV_TOL`` relative to the largest in magnitude: the inverse
    when all are kept, the pseudo-inverse with that cutoff otherwise (a
    symmetric matrix's singular values are its eigenvalues' magnitudes,
    so this is the SVD's rule).

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
    w, W = np.linalg.eigh(0.5 * (product + product.T))
    keep = np.abs(w) > INV_TOL * np.abs(w).max()
    return ReconstructionPipeline(
        sampling_matrix=S,
        prior_matrix=prior,
        correction=(W[:, keep] / w[keep]) @ W[:, keep].T,
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

    Solves ``argmin x.T F x subject to S.T x = c``, F the prior's
    precision, by assembling the saddle-point system
    ``[[F, S], [S.T, 0]]`` and solving it directly. Slower than the
    pipeline and sharing no machinery with it, so the two serve as
    independent cross-checks.

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
    kkt[:n, :n] = (vo.basis * vo.values) @ vo.basis.T  # F
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
