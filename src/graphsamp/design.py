"""Sampling matrix design by a proximal linearized difference-of-convex loop.

The target is a dense sampling matrix S inside a Frobenius ball whose
whitened image ``whitener @ S`` has full column rank, which is exactly
what makes the downstream least-squares reconstruction well posed. Rank
is relaxed to the nuclear norm, and the resulting concave maximization
over the ball is solved by iterating a nuclear-norm subgradient step
(the polar factor of the whitened iterate) followed by the metric
projection back onto the ball. The nuclear norm of the whitened iterate
never decreases along the loop, iterates stay in the ball, and the step
sizes vanish, so the iteration settles at a critical point of the
relaxation.

The loop runs in spectral coordinates. The whitener must have orthogonal
rows, as every ``VariationOperator.whitener`` does, so it factors as
``A = diag(d) Q.T`` with d its row norms and Q orthogonal; one product
``A @ A.T`` checks the rows and reads off the factors. Q drops out of
the loop, because the Frobenius ball is invariant under rotation. So
the loop iterates on ``T = Q.T @ S``, where whitening is a row scaling
by d, and rotates back once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeds import _UINT64_MASK

# relative step size ||T_next - T||_F / ||T||_F below which the loop stops
STOP_TOL = 1e-5


@dataclass(frozen=True)
class DesignConfig:
    """Knobs for the sampling matrix design loop.

    ``epsilon`` bounds the Frobenius norm of the designed matrix;
    ``max_iter`` caps the iteration count; ``seed`` drives the Gaussian
    initializer.
    """

    epsilon: float
    max_iter: int = 10000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if int(self.max_iter) < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if not 0 <= int(self.seed) <= _UINT64_MASK:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class SamplingDesign:
    """Designed sampling matrix plus the per-iteration trace.

    Trace entry t describes iterate t (before its update): the nuclear
    norm of the whitened iterate, the Frobenius norm of the iterate, and
    the norm of the step taken from it.
    """

    matrix: np.ndarray
    iterations: int
    converged: bool
    nuclear_norms: np.ndarray
    step_norms: np.ndarray
    frobenius_norms: np.ndarray


def project_frobenius_ball(X: np.ndarray, radius: float) -> np.ndarray:
    """Metric projection onto the Frobenius ball of the given radius.

    Returns X unchanged inside the ball, otherwise X scaled by
    ``radius / ||X||_F``.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    X = np.asarray(X, dtype=float)
    norm = float(np.linalg.norm(X))
    if norm <= radius:
        return X
    return X * (radius / norm)


def nuclear_norm(M: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)))


def numerical_rank(M: np.ndarray, rank_tol: float = 1e-10) -> int:
    """Count singular values above ``rank_tol`` times the largest."""
    if not rank_tol > 0:
        raise ValueError(f"rank_tol must be positive, got {rank_tol}")
    s = np.linalg.svd(np.asarray(M, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


def nuclear_subgradient(M: np.ndarray) -> np.ndarray:
    """The polar factor of M, an element of its nuclear-norm subdifferential.

    With the thin SVD ``M = U diag(s) V.T`` this is ``U @ V.T``. On a
    full-rank M it is the only subgradient. On a rank-deficient M the
    subdifferential also holds other matrices, which differ only on the
    singular vectors of the zero singular values; the proximal
    linearized DC loop reaches a critical point with any of them. All
    singular values of the output are at most 1.

    Raises:
        ValueError: for the zero matrix, whose subdifferential is the
            whole unit spectral-norm ball with no canonical element;
            callers should re-randomize their iterate instead.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    return _polar_factor(M)[0]


def _polar_factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``U @ V.T`` of the thin SVD of M, and M's singular values."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise ValueError(
            "the zero matrix has no canonical nuclear-norm subgradient; "
            "re-randomize the iterate"
        )
    return U @ Vt, s


# largest |cosine| between two distinct rows of a whitener for which its
# rows count as orthogonal
_ROW_ORTHOGONAL_TOL = 1e-12


def _whitener_factors(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row norms ``d`` and the orthogonal ``Q = A.T / d``, so that ``A = diag(d) Q.T``.

    One product ``A @ A.T`` gives the row norms and the cosines between
    rows. At most one n x n array besides Q is held at a time.

    Raises:
        ValueError: if A has a zero row, or two rows that are not
            orthogonal.
    """
    cosines = A @ A.T
    d = np.sqrt(np.diag(cosines))
    if d.min() <= 0.0:
        raise ValueError(f"whitener row {int(np.argmin(d))} is zero")
    cosines /= d[:, None]
    cosines /= d
    np.fill_diagonal(cosines, 0.0)
    worst = float(np.max(np.abs(cosines, out=cosines)))
    del cosines
    if not worst <= _ROW_ORTHOGONAL_TOL:
        raise ValueError(
            f"whitener rows are not orthogonal: the largest |cosine| between "
            f"two rows is {worst:.3g}, above {_ROW_ORTHOGONAL_TOL:g}"
        )
    return d, A.T / d


def design_sampling_operator(
    whitener: np.ndarray, num_samples: int, config: DesignConfig
) -> SamplingDesign:
    """Design a dense sampling matrix maximizing the whitened nuclear norm.

    Starts from a standard-Gaussian matrix S (seeded by ``config.seed``)
    projected into the Frobenius ball of radius ``config.epsilon``.
    With the whitener factored as ``diag(d) Q.T`` (see the module
    docstring), the loop iterates on ``T = Q.T @ S`` and repeats: take
    the polar factor G of ``d * T``, which is the nuclear-norm
    subgradient at ``whitener @ S``, move along ``d * G``, and project
    back onto the ball. This is the step ``S + whitener.T @ G`` written
    in the rotated coordinates, and the trace's norms are the same in
    either. Stops when ``||T_next - T||_F <= STOP_TOL * ||T||_F`` or
    after ``max_iter`` iterations (reported via ``converged``), and
    returns ``S = Q @ T``.

    Raises:
        ValueError: on a non-square or non-finite whitener, a whitener
            with a zero row or rows that are not orthogonal, an
            out-of-range sample count, or a zero whitened iterate
            (propagated from the subgradient).
    """
    A = np.asarray(whitener, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"whitener must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("whitener has a non-finite entry")
    n = A.shape[0]
    if not 1 <= num_samples < n:
        raise ValueError(
            f"num_samples must satisfy 1 <= K < {n}, got {num_samples}"
        )
    d, Q = _whitener_factors(A)
    d = d[:, None]
    rng = np.random.default_rng(int(config.seed))
    T = Q.T @ project_frobenius_ball(
        rng.standard_normal((n, num_samples)), config.epsilon
    )
    nuc, steps, frobs = [], [], []
    converged = False
    iterations = 0
    for _ in range(int(config.max_iter)):
        G, s = _polar_factor(d * T)
        T_next = project_frobenius_ball(T + d * G, config.epsilon)
        step = float(np.linalg.norm(T_next - T))
        current = float(np.linalg.norm(T))
        nuc.append(float(np.sum(s)))
        steps.append(step)
        frobs.append(current)
        T = T_next
        iterations += 1
        if step <= STOP_TOL * current:
            converged = True
            break
    return SamplingDesign(
        matrix=Q @ T,
        iterations=iterations,
        converged=converged,
        nuclear_norms=np.asarray(nuc),
        step_norms=np.asarray(steps),
        frobenius_norms=np.asarray(frobs),
    )
