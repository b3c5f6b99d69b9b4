"""Smoothness (variation) operators: spectral, from a Laplacian spectrum and a
response, or sparse, from the Laplacian itself when the response is affine."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, identity
from scipy.sparse.linalg import SuperLU, eigsh, splu

from .graphs import Spectrum


@dataclass(frozen=True)
class SpectralResponse:
    """Affine scalar response ``slope * lam + offset`` applied to Laplacian eigenvalues."""

    slope: float = 1.0
    offset: float = 0.1

    def __call__(self, eigenvalues) -> np.ndarray:
        return self.slope * np.asarray(eigenvalues, dtype=float) + self.offset


@dataclass(frozen=True, eq=False)
class VariationOperator:
    """Invertible variation operator ``F = basis @ diag(values) @ basis.T``.

    ``basis`` is the spectrum's orthogonal eigenvector matrix itself,
    shared and in the spectrum's order, and ``values`` the positive
    response on each of its columns. F is never formed. Orthogonality of
    ``basis`` is the caller's contract and is not re-checked.

    Raises:
        ValueError: on mismatched shapes, or a value not positive and finite.
    """

    values: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        n = self.values.size
        if self.values.shape != (n,) or self.basis.shape != (n, n):
            raise ValueError(
                f"variation operator needs n values and an n x n basis, got shapes "
                f"{self.values.shape} and {self.basis.shape}"
            )
        bad = np.flatnonzero(~(np.isfinite(self.values) & (self.values > 0.0)))
        if bad.size:
            raise ValueError(
                f"variation operator value {bad[0]} must be positive and finite, "
                f"got {self.values[bad[0]]}"
            )

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def whitener(self) -> VariationOperator:
        """The inverse ``F^-1``, sharing ``basis``; F is symmetric, so
        ``F^-1.T @ F^-1 == inv(F.T @ F)`` and F^-1 whitens the prior."""
        return VariationOperator(1.0 / self.values, self.basis)

    def solve_gram(self, B: np.ndarray) -> np.ndarray:
        """Solve ``(F.T @ F) X = B`` through the spectral factors."""
        coeffs = self.basis.T @ _rows(B, self.dim)
        inv_sq = self.values**2
        if coeffs.ndim == 1:
            return self.basis @ (coeffs / inv_sq)
        return self.basis @ (coeffs / inv_sq[:, None])

    def gram(self) -> np.ndarray:
        """Materialize ``F.T @ F`` from the spectral factors."""
        return (self.basis * self.values**2) @ self.basis.T


def build_variation_operator(
    spectrum: Spectrum, response: SpectralResponse
) -> VariationOperator:
    """Assemble the variation operator for a spectrum and response.

    The operator is ``U @ diag(response(eigenvalues)) @ U.T`` with U the
    spectrum's eigenvector matrix, which it keeps as its ``basis``
    without a copy. The response must be strictly positive on every
    eigenvalue, which makes the operator symmetric positive definite.

    The spectrum is a connected graph's Laplacian's, so the affine
    response's extremes over it are at λ = 0 and the largest eigenvalue.
    The checks are made there, as ``build_sparse_variation_operator``
    makes them, and not on ``eigh``'s smallest eigenvalue, which is 0
    only to rounding and of either sign.

    Raises:
        ValueError: if the response is not strictly positive on the
            spectrum, or the operator is numerically singular.
    """
    _check_response(response, float(spectrum.eigenvalues.max()))
    values = np.asarray(response(spectrum.eigenvalues), dtype=float)
    return VariationOperator(values=values, basis=spectrum.eigenvectors)


@dataclass(frozen=True, eq=False)
class SparseVariationOperator:
    """Variation operator ``F = slope * L + offset * I`` of an affine response,
    kept as the sparse LU factors of F.

    F is symmetric, so ``(F.T @ F)^-1 B`` is two solves with F. Neither a
    dense n x n array nor a spectrum is needed.
    """

    factor: SuperLU

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    def solve_gram(self, B: np.ndarray) -> np.ndarray:
        """Solve ``(F.T @ F) X = B`` as ``F^-1 (F^-1 B)``."""
        return self.factor.solve(self.factor.solve(_rows(B, self.dim)))


def build_sparse_variation_operator(
    lap: csc_matrix, response: SpectralResponse
) -> SparseVariationOperator:
    """Factor ``F = slope * L + offset * I`` for a connected graph's sparse Laplacian.

    Makes the checks of ``build_variation_operator`` without a spectrum:
    the response is affine, so its extremes over the spectrum are at
    λ_min = 0 (the graph is connected) and at λ_max, which ARPACK finds
    from a fixed start.

    Raises:
        ValueError: if the response is not strictly positive on the
            spectrum, or the operator is numerically singular.
    """
    n = lap.shape[0]
    _check_response(response, _largest_eigenvalue(lap))
    F = response.slope * lap + response.offset * identity(n, format="csc")
    # the checks make F symmetric positive definite, so its LU needs no row
    # pivoting and takes a symmetric fill-reducing order (half COLAMD's fill)
    factor = splu(
        F.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return SparseVariationOperator(factor)


def _largest_eigenvalue(lap: csc_matrix) -> float:
    """λ_max of a symmetric sparse matrix, by ARPACK from a fixed start vector.

    ARPACK's default start is random, and the constant vector is a
    Laplacian's null vector, so the start is a fixed Gaussian draw. A
    1 x 1 matrix (an edgeless 1-vertex graph), where ARPACK cannot run,
    is its own eigenvalue.
    """
    n = lap.shape[0]
    if n == 1:
        return float(lap.diagonal()[0])
    v0 = np.random.default_rng(0).standard_normal(n)
    return float(eigsh(lap, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])


def _check_response(response: SpectralResponse, lam_max: float) -> None:
    """Reject an affine response that, over a connected graph's Laplacian
    spectrum [0, lam_max], is not finite and positive or makes the operator
    numerically singular."""
    values = np.asarray(response(np.array([0.0, lam_max])), dtype=float)
    if values.ndim != 1 or not np.all(np.isfinite(values)):
        raise ValueError("spectral response must evaluate to finite scalars")
    if np.any(values <= 0.0):
        raise ValueError(
            "spectral response must be positive on the whole spectrum "
            f"(min value {float(values.min()):g})"
        )
    if values.min() <= 1e-12 * values.max():
        raise ValueError("variation operator is numerically singular")


def _rows(B, dim: int) -> np.ndarray:
    """``B`` as a float array, checked to have ``dim`` rows."""
    B = np.asarray(B, dtype=float)
    if B.shape[0] != dim:
        raise ValueError(f"expected {dim} rows, got shape {B.shape}")
    return B
