"""Smoothness (variation) operators: spectral, from a Laplacian spectrum and a
response, or sparse, from the Laplacian itself when the response is affine.

The operator ``F = r(L)`` is read as the precision of the signal prior:
reconstruction solves with F itself, so at slope 1 and offset η the
prior is the GMRF ``N(0, (L + ηI)^-1)`` and the reconstruction its
conditional mean given the samples (Rue & Held 2005). The design reads
``F^-1`` (``VariationOperator.whitener``), whose largest scales span the
same smoothest eigenvectors as the precision's ``F^-1/2`` and give the
same optimum in half the iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graphs import Spectrum

if TYPE_CHECKING:
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import SuperLU


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
    def shape(self) -> tuple[int, int]:
        return self.basis.shape

    @property
    def whitener(self) -> VariationOperator:
        """The inverse ``F^-1``, sharing ``basis``: the design's input. Its
        scales ``1/r(λ)`` order the eigenvectors as the prior covariance
        ``F^-1`` does, so the design's optimum span is the covariance's."""
        return VariationOperator(1.0 / self.values, self.basis)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve ``F X = B`` through the spectral factors: F is the prior's
        precision, so X is the prior covariance applied to B."""
        B = np.asarray(B, dtype=float)
        if B.ndim not in (1, 2) or B.shape[0] != self.values.size:
            raise ValueError(f"expected {self.values.size} rows, got shape {B.shape}")
        coeffs = self.basis.T @ B
        if coeffs.ndim == 1:
            return self.basis @ (coeffs / self.values)
        return self.basis @ (coeffs / self.values[:, None])


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


def build_sparse_variation_operator(
    lap: csc_matrix, response: SpectralResponse
) -> SuperLU:
    """Factor ``F = slope * L + offset * I`` for a connected graph's sparse Laplacian.

    F is the prior's precision, so applying the prior covariance is one
    ``solve`` with the returned sparse LU factor, which has the
    ``shape`` and ``solve`` that ``build_pipeline`` reads. Neither a
    dense n x n array nor a spectrum is needed.

    Makes the checks of ``build_variation_operator`` without a spectrum:
    the response is affine, so its extremes over the spectrum are at
    λ_min = 0 (the graph is connected) and at λ_max. They are first made
    at the Gershgorin bound ``2 * max weighted degree >= λ_max``: the
    response on [0, λ_max] lies between its values at 0 and the bound,
    so a pass there is a pass at λ_max. Only a refusal there has ARPACK
    find λ_max, and the checks are made again at it, so every decision
    and message is that of the λ_max checks.

    Raises:
        ValueError: if the response is not strictly positive on the
            spectrum, or the operator is numerically singular.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu  # loads scipy's sparse solvers only where one runs

    n = lap.shape[0]
    try:
        _check_response(response, float(abs(lap).sum(axis=0).max()))
    except ValueError:
        _check_response(response, _largest_eigenvalue(lap))
    F = response.slope * lap + response.offset * identity(n, format="csc")
    # the checks make F symmetric positive definite, so its LU needs no row
    # pivoting and takes a symmetric fill-reducing order (half COLAMD's fill)
    return splu(
        F.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _largest_eigenvalue(lap: csc_matrix) -> float:
    """λ_max of a symmetric sparse matrix, by ARPACK from a fixed start vector.

    ARPACK's default start is random, and the constant vector is a
    Laplacian's null vector, so the start is a fixed Gaussian draw. A
    1 x 1 matrix (an edgeless 1-vertex graph), where ARPACK cannot run,
    is its own eigenvalue.
    """
    from scipy.sparse.linalg import eigsh

    n = lap.shape[0]
    if n == 1:
        return float(lap.diagonal()[0])
    v0 = np.random.default_rng(0).standard_normal(n)
    return float(eigsh(lap, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])


def _check_response(response: SpectralResponse, lam_max: float) -> None:
    """Reject an affine response that, over a connected graph's Laplacian
    spectrum [0, lam_max], is not finite and positive or makes the operator
    numerically singular: a value within 1e-12 of the largest, or below
    the smallest normal float, where F carries too few bits to factor."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and overflow are refused below
        values = np.asarray(response(np.array([0.0, lam_max])), dtype=float)
    if values.ndim != 1 or not np.all(np.isfinite(values)):
        raise ValueError("spectral response must evaluate to finite scalars")
    if np.any(values <= 0.0):
        raise ValueError(
            "spectral response must be positive on the whole spectrum "
            f"(min value {float(values.min()):g})"
        )
    if values.min() <= 1e-12 * values.max() or values.min() < np.finfo(float).tiny:
        raise ValueError("variation operator is numerically singular")

