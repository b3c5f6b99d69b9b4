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
    finite row scales, one per basis column; orthogonality is the
    caller's contract, as it is for ``VariationOperator.basis``, and is
    not re-checked.

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
    """Invertible variation operator ``F = basis @ diag(values) @ basis.T``.

    ``basis`` is the spectrum's orthogonal eigenvector matrix itself,
    shared and in the spectrum's order, and ``values`` the positive
    response on each of its columns. F is never formed: ``whitener`` is
    the factored ``W = diag(1 / values) @ basis.T``, for which
    ``W.T @ W == inv(F.T @ F)``, sharing the same ``basis`` array.
    """

    values: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def whitener(self) -> Whitener:
        """Whitening factor ``diag(1 / values) basis.T``, in factored form."""
        return Whitener(1.0 / self.values, self.basis)

    def solve_gram(self, B: np.ndarray) -> np.ndarray:
        """Solve ``(F.T @ F) X = B`` through the spectral factors."""
        B = np.asarray(B, dtype=float)
        if B.shape[0] != self.dim:
            raise ValueError(f"expected {self.dim} rows, got shape {B.shape}")
        coeffs = self.basis.T @ B
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
    if values.min() <= 1e-12 * values.max():
        raise ValueError("variation operator is numerically singular")
    return VariationOperator(values=values, basis=spectrum.eigenvectors)
