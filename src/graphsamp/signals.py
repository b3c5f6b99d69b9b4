"""Synthetic graph-signal models used in the sampling benchmark."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graphs import Spectrum, _real_csc
from .seeds import _seed
from .variation import SpectralResponse, _check_response

if TYPE_CHECKING:
    from scipy.sparse import csc_matrix

MODEL_KINDS = ("gmrf", "pwl")


@dataclass(frozen=True)
class SignalModelSpec:
    """Which signal model to draw from and with what parameters.

    ``eta`` applies to the 'gmrf' kind, ``density`` to 'pwl'.
    """

    kind: str = "gmrf"
    eta: float = 0.1
    density: float = 0.125

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"model kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must lie in (0, 1], got {self.density}")


def gmrf_signal(spectrum: Spectrum, eta: float, seed: int) -> np.ndarray:
    """Gaussian field whose spectral power is 1 / (eigenvalue + eta).

    Mode i carries an independent N(0, 1/(lam_i + eta)) coefficient in
    the eigenbasis; the proportionality constant is fixed to 1.

    ``L + eta I`` is the field's precision, so eta passes the rule that
    ``build_variation_operator`` applies to a precision, at λ = 0 and
    the largest eigenvalue: ``eigh``'s smallest eigenvalue is 0 only to
    rounding, and an eta below that rounding would take the square root
    of a negative number.
    """
    if not 0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")
    lam_max = float(spectrum.eigenvalues.max())
    try:
        _check_response(SpectralResponse(1.0, eta), lam_max)
    except ValueError:
        raise ValueError(
            f"eta {eta:g} makes L + eta I numerically singular on a spectrum up to "
            f"{lam_max:g}; eta must exceed 1e-12 of lam_max + eta"
        ) from None
    rng = np.random.default_rng(_seed("seed", seed))
    n = spectrum.eigenvalues.shape[0]
    coeffs = rng.standard_normal(n) / np.sqrt(spectrum.eigenvalues + eta)
    return spectrum.eigenvectors @ coeffs


def pwl_signal(lap: csc_matrix, density: float, seed: int) -> np.ndarray:
    """Piecewise-linear signal by harmonic interpolation from random anchors.

    round(density * n) anchors of the n x n Laplacian ``lap`` (at least
    one; drawn uniformly without replacement, then sorted) take
    independent uniform values on [-1, 1]; every other vertex gets the
    harmonic extension, the sparse LU solve of ``L_ff x_f = -L_fa x_a``,
    so the Laplacian applied to the result vanishes off the anchors and
    the maximum principle keeps values inside the anchor range.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    L = _real_csc(lap, "Laplacian")
    n = L.shape[0]
    if L.shape != (n, n):
        raise ValueError(f"Laplacian must be square, got shape {L.shape}")
    rng = np.random.default_rng(_seed("seed", seed))
    num_anchors = min(n, max(1, int(np.floor(density * n + 0.5))))
    anchors = np.sort(rng.choice(n, size=num_anchors, replace=False))
    values = rng.uniform(-1.0, 1.0, size=num_anchors)
    x = np.zeros(n)
    x[anchors] = values
    if num_anchors == n:
        return x
    from scipy.sparse.linalg import splu  # loads scipy's sparse solvers only where one runs

    free = np.setdiff1d(np.arange(n), anchors)
    rhs = -(L[:, anchors] @ values)[free]
    x[free] = splu(L[:, free][free]).solve(rhs)
    return x


def generate_signal(
    model: SignalModelSpec, spectrum: Spectrum, lap: csc_matrix, seed: int
) -> np.ndarray:
    """Draw one signal from the configured model family with the given seed."""
    if model.kind == "gmrf":
        return gmrf_signal(spectrum, model.eta, seed)
    return pwl_signal(lap, model.density, seed)
