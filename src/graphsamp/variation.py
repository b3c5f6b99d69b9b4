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
class Whitener:
    """Whitening factor ``diag(scales) @ basis.T``, kept as its two factors.

    ``basis`` is an orthogonal n x n matrix and ``scales`` n positive,
    finite row scales; orthogonality is the caller's contract, as it is
    for ``VariationOperator.singular_vectors``, and is not re-checked.

    Raises:
        ValueError: on mismatched shapes, or a scale that is not
            positive and finite (a zero scale is a zero whitener row).
    """

    scales: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        n = self.scales.size
        if self.scales.shape != (n,) or self.basis.shape != (n, n):
            raise ValueError(
                f"whitener needs n scales and an n x n basis, got shapes "
                f"{self.scales.shape} and {self.basis.shape}"
            )
        bad = np.flatnonzero(~(np.isfinite(self.scales) & (self.scales > 0.0)))
        if bad.size:
            raise ValueError(
                f"whitener scale {bad[0]} must be positive and finite, "
                f"got {self.scales[bad[0]]}"
            )


@dataclass(frozen=True, eq=False)
class VariationOperator:
    """Invertible operator measuring signal variation, stored as its SVD factors.

    The operator is symmetric positive definite by construction, so its
    left and right singular bases coincide and only
    ``singular_values`` (descending) and the orthogonal
    ``singular_vectors`` are stored. ``matrix`` is
    ``singular_vectors @ diag(singular_values) @ singular_vectors.T``
    (assembled on each access) and ``whitener`` is the factored
    ``W = diag(1 / singular_values) @ singular_vectors.T``, for which
    ``W.T @ W == inv(matrix.T @ matrix)``.
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
    def whitener(self) -> Whitener:
        """Whitening factor ``diag(1 / sigma) V.T``, in factored form."""
        return Whitener(1.0 / self.singular_values, self.singular_vectors)

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
