"""Smoothness (variation) operators built from a spectral response."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Invertible operator measuring signal variation, stored as its SVD factors.

    The operator is symmetric positive definite by construction, so its
    left and right singular bases coincide and only
    ``singular_values`` (descending) and the orthogonal
    ``singular_vectors`` are stored. ``matrix`` is
    ``singular_vectors @ diag(singular_values) @ singular_vectors.T``
    and ``whitener`` is ``diag(1 / singular_values) @ singular_vectors.T``,
    which satisfies ``whitener.T @ whitener == inv(matrix.T @ matrix)``;
    both are assembled on each access.
    """

    singular_values: np.ndarray
    singular_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.singular_values.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense operator ``V diag(sigma) V.T``."""
        return (self.singular_vectors * self.singular_values) @ self.singular_vectors.T

    @property
    def whitener(self) -> np.ndarray:
        """Dense whitening factor ``diag(1 / sigma) V.T``."""
        return self.singular_vectors.T / self.singular_values[:, None]

    def whiten(self, S: np.ndarray) -> np.ndarray:
        """Apply the whitening factor, ``whitener @ S``, as a rotation then a row scaling."""
        S = np.asarray(S, dtype=float)
        if S.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} rows, got shape {S.shape}")
        return (self.singular_vectors.T @ S) / self.singular_values[:, None]

    def solve_gram(self, B: np.ndarray) -> np.ndarray:
        """Solve ``(matrix.T @ matrix) X = B`` through the spectral factors."""
        B = np.asarray(B, dtype=float)
        if B.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} rows, got shape {B.shape}")
        coeffs = self.singular_vectors.T @ B
        inv_sq = self.singular_values**2
        if coeffs.ndim == 1:
            return self.singular_vectors @ (coeffs / inv_sq)
        return self.singular_vectors @ (coeffs / inv_sq[:, None])

    def gram(self) -> np.ndarray:
        """Materialize ``matrix.T @ matrix`` from the spectral factors."""
        return (
            self.singular_vectors * self.singular_values**2
        ) @ self.singular_vectors.T


def build_variation_operator(
    spectrum: Spectrum, response: SpectralResponse
) -> VariationOperator:
    """Assemble the variation operator for a spectrum and response.

    The operator is ``U @ diag(response(eigenvalues)) @ U.T`` with U the
    spectrum's eigenvector matrix. The response must be strictly
    positive on every eigenvalue, which makes the operator symmetric
    positive definite; its SVD is then read off the spectral factors
    directly (re-sorted so singular values are descending) instead of a
    general SVD routine, which also removes sign and ordering
    nondeterminism.

    Raises:
        ValueError: if the response is not strictly positive on the
            spectrum, or the operator is numerically singular.
    """
    values = np.asarray(response(spectrum.eigenvalues), dtype=float)
    if values.ndim != 1 or not np.all(np.isfinite(values)):
        raise ValueError("spectral response must evaluate to finite scalars")
    if np.any(values <= 0.0):
        raise ValueError(
            "spectral response must be positive on the whole spectrum "
            f"(min value {float(values.min()):g})"
        )
    order = np.argsort(-values, kind="stable")
    sing_vals = values[order]
    if sing_vals[-1] <= 1e-12 * sing_vals[0]:
        raise ValueError("variation operator is numerically singular")
    return VariationOperator(
        singular_values=sing_vals,
        singular_vectors=spectrum.eigenvectors[:, order],
    )
