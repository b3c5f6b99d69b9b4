"""Test-only oracles: nuclear norm, numerical rank, the nuclear-norm
subgradient, and the dense matrix of a factored whitener.

The package reads none of these; the design loop takes the polar factor
through ``graphsamp.design._polar_factor``, which ``nuclear_subgradient``
wraps so the subgradient tests exercise the loop's own step.
"""

import numpy as np

from graphsamp.design import _polar_factor


def nuclear_norm(M):
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)))


def numerical_rank(M, rank_tol=1e-10):
    """Count singular values above ``rank_tol`` times the largest."""
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def nuclear_subgradient(M):
    """The polar factor ``U @ V.T`` of M, an element of its nuclear-norm
    subdifferential; raises ValueError for the zero matrix."""
    return _polar_factor(np.asarray(M, dtype=float))[0]


def dense_whitener(whitener):
    """The n x n matrix ``diag(scales) @ basis.T`` of a ``Whitener``."""
    return whitener.scales[:, None] * whitener.basis.T
