"""Least-squares reconstruction of smooth signals from generalized samples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .variation import VariationOperator

# eigenvalues of S.T @ prior at or below INV_TOL times the largest in
# magnitude are left out of the correction's (pseudo-)inverse
INV_TOL = 1e-10


class PrecisionSolver(Protocol):
    """What reconstruction needs of the prior's precision F: its ``shape``
    (n, n) and solves ``F X = B``. ``VariationOperator`` and the scipy
    ``SuperLU`` factor that ``build_sparse_variation_operator`` returns are
    both one."""

    @property
    def shape(self) -> tuple[int, int]: ...

    def solve(self, B: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True, eq=False)
class ReconstructionPipeline:
    """Precomputed operators mapping samples back to a full signal.

    The pipeline is built at unit scale: with ``2^e`` the power of two
    that brings the largest entry of ``sampling_matrix`` S into [1, 2),
    ``prior_matrix`` is the prior covariance ``F^-1`` applied to
    ``S 2^-e``, and synthesizes the reconstruction, whose range is its
    column space. ``correction`` is the inverse of the symmetric
    ``sampling_matrix.T @ prior_matrix``, or its Moore-Penrose
    pseudo-inverse when that product is numerically singular (flagged by
    ``used_pseudo_inverse``), so the estimate does not depend on e.
    ``sampling_matrix`` is S at its own scale.
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


def build_pipeline(vo: PrecisionSolver, S: np.ndarray) -> ReconstructionPipeline:
    """Build the least-squares reconstruction pipeline for a sampling matrix.

    It is built at unit scale, on ``U = S 2^-e`` with e the binary
    exponent that puts U's largest entry in [1, 2) (0 for a 0/1
    selection matrix). The prior matrix Q solves ``F Q = U`` through
    ``vo.solve`` (no explicit inverse), F being the prior's precision;
    ``vo`` needs nothing else but its ``shape``. The correction C is
    ``2^-e`` times the inverse of the symmetric ``U.T @ Q``, taken
    through the eigendecomposition of its symmetric part, keeping the
    eigenvalues above ``INV_TOL`` relative to the largest in magnitude:
    the inverse when all are kept, the pseudo-inverse with that cutoff
    otherwise (a symmetric matrix's singular values are its eigenvalues'
    magnitudes, so this is the SVD's rule). So C (pseudo-)inverts
    ``S.T @ Q``, and ``Q C S.T x`` is the prior's conditional mean of x
    given the samples. Powers of two scale without rounding, barring
    underflow, so S times ``2^k`` gives the same estimate bit for bit.

    Raises:
        ValueError: if the sampling matrix has the wrong shape, no
            column, or a non-finite entry.
    """
    S = np.asarray(S, dtype=float)
    n = vo.shape[0]
    if S.ndim != 2 or S.shape[0] != n or S.shape[1] == 0:
        raise ValueError(
            f"sampling matrix must have {n} rows and at least one column, "
            f"got shape {S.shape}"
        )
    if not np.all(np.isfinite(S)):
        raise ValueError("sampling matrix has non-finite entries")
    e = int(np.frexp(np.abs(S).max())[1]) - 1
    unit = np.ldexp(S, -e)
    prior = vo.solve(unit)
    product = unit.T @ prior
    w, W = np.linalg.eigh(0.5 * (product + product.T))
    keep = np.abs(w) > INV_TOL * np.abs(w).max()
    return ReconstructionPipeline(
        sampling_matrix=S,
        prior_matrix=prior,
        correction=np.ldexp((W[:, keep] / w[keep]) @ W[:, keep].T, -e),
        used_pseudo_inverse=not keep.all(),
    )


def sample(S: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the sampling map: ``S.T @ x``.

    Raises:
        ValueError: if the shapes do not match, or a sample is not finite,
            as when the scales of S and x together overflow.
    """
    S = np.asarray(S, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    if S.ndim != 2 or S.shape[0] != x.shape[0]:
        raise ValueError(
            f"sampling matrix shape {S.shape} does not match signal length {x.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        samples = S.T @ x
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples S.T @ x are not finite")
    return samples


def kkt_reconstruct(
    vo: VariationOperator, S: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Reconstruct through the constrained least-squares KKT system.

    Solves ``argmin x.T F x subject to S.T x = c``, F the prior's
    precision, by assembling the saddle-point system
    ``[[F, U], [U.T, 0]]`` with right-hand side ``(0, c 2^-e)`` and
    solving it directly, where ``U = S 2^-e`` for the exponent e of
    ``build_pipeline``. Scaling the constraint leaves its solution x
    as it is, so an S far from unit scale makes the system neither
    singular nor inaccurate. Slower than the pipeline and sharing no
    machinery with it, so the two serve as independent cross-checks.

    Raises:
        ValueError: if the KKT system is singular (degenerate sampling
            matrix); the pipeline's pseudo-inverse path is the
            production fallback for that case.
    """
    S = np.asarray(S, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    n = vo.shape[0]
    if S.ndim != 2 or S.shape[0] != n:
        raise ValueError(
            f"sampling matrix must have {n} rows, got shape {S.shape}"
        )
    k = S.shape[1]
    if c.shape != (k,):
        raise ValueError(f"expected {k} samples, got shape {c.shape}")
    e = int(np.frexp(np.abs(S).max(initial=0.0))[1]) - 1
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = (vo.basis * vo.values) @ vo.basis.T  # F
    kkt[:n, n:] = np.ldexp(S, -e)
    kkt[n:, :n] = kkt[:n, n:].T
    rhs = np.zeros(n + k)
    rhs[n:] = np.ldexp(c, -e)
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular KKT system: sampling matrix is degenerate"
        ) from exc
    return solution[:n]
