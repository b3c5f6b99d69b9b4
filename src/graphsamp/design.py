"""Sampling matrix design by a proximal linearized difference-of-convex loop.

The target is a dense sampling matrix S inside a Frobenius ball whose
whitened image ``A @ S`` (A the whitener) has full column rank, which
is exactly what makes the downstream least-squares reconstruction well
posed. Rank is relaxed to the nuclear norm, and the resulting concave maximization
over the ball is solved by iterating a nuclear-norm subgradient step
(the polar factor of the whitened iterate) followed by the metric
projection back onto the ball. The nuclear norm of the whitened iterate
never decreases along the loop, iterates stay in the ball, and the step
sizes vanish, so the iteration settles at a critical point of the
relaxation.

The loop runs in spectral coordinates. The whitener is ``A = F^-1 =
Q diag(d) Q.T``, held as its factors (a ``VariationOperator``). The left
Q drops out, because the nuclear norm ignores a left rotation and the
polar factor turns with it, and the right Q too, because the Frobenius
ball is invariant under rotation. So the loop iterates on
``T = Q.T @ S``, where whitening is a row scaling by d, and rotates back
once at the end.

Reconstruction reads F as the prior's precision, whose own whitener is
``F^-1/2``. The loop takes ``F^-1`` (``VariationOperator.whitener``)
instead: any scales d that decrease in λ put the optimum in the span of
the same K smoothest eigenvectors, and with ``d = 1/r(λ)`` the loop
needs about half the iterations of ``d = r(λ)^-1/2`` (107.6 against
221.5 on average, n = 256, K = 32, 40 GMRF trials).

Only the rows of T for the ``m = min(n, ROWS_PER_SAMPLE * K)`` largest
scales take part. The optimum ``Q_K diag(epsilon d_K / ||d_K||)`` lies in
the span of the K columns of Q with the largest scales, and a row of T
that is zero stays zero under the row scaling, the polar factor and the
ball projection. So the loop on those m rows is exactly the full loop
started from ``Q_m Q_m.T S_0``, with the same ball constraint, monotone
nuclear norm and critical-point limit, and each iteration costs m x K
work instead of n x K. With twice K rows the reconstructions match the
full loop's; with K + 1 they were about 8% further from the closed-form
optimum's at n = 1024, K = 128.

The step length is ``gamma = STEP_SCALE * epsilon / max(d)``. The
proximal linearized DC loop reaches a critical point for any gamma > 0
(Souza, Oliveira & Soubeyran 2016), and this is the one rule that is
invariant to scale: multiplying d by a and epsilon by b multiplies every
iterate by b and leaves the iteration count unchanged. That holds
exactly when the Gaussian start is longer than epsilon in both runs, so
that its projection onto the ball scales it by b too; a start inside
the ball keeps its own length (on a 64-vertex sensor graph, k = 6 and
seed 1, with K = 8, an epsilon of 1e150 leaves it inside, and the loop
takes 250 iterations against 242 at epsilon = 1). epsilon must also
keep the squares of the loop's norms normal floats, which
``_check_epsilon`` checks before the first iteration. The polar factor
comes from the K x K Gram matrix of the whitened iterate, not from its
n x K SVD; the SVD is kept for iterates too ill-conditioned for the Gram
matrix to resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeds import _count, _sample_count, _seed
from .variation import VariationOperator

# relative step size ||T_next - T||_F / ||T||_F below which the loop stops
STOP_TOL = 1e-5
# step length gamma = STEP_SCALE * epsilon / max(d)
STEP_SCALE = 10.0
# the loop keeps the ROWS_PER_SAMPLE * K rows of T with the largest scales
ROWS_PER_SAMPLE = 2
# the polar factor takes the SVD when the Gram matrix's eigenvalues span
# more than this ratio, i.e. when cond(M) >= 1e4
GRAM_COND_LIMIT = 1e8
# the loop squares the norms of its iterates, so every norm it takes lies
# between these two, where a square is a normal float
_NORM_MIN = math.sqrt(np.finfo(float).tiny)
_NORM_MAX = math.sqrt(np.finfo(float).max)


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
        _count("max_iter", self.max_iter)
        _seed("seed", self.seed)


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

    Raises:
        ValueError: if the radius is not positive and finite, or X has
            a non-finite Frobenius norm (a nan or inf entry).
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    X = np.asarray(X, dtype=float)
    norm = float(np.linalg.norm(X))
    if not math.isfinite(norm):
        raise ValueError(f"X must have a finite Frobenius norm, got {norm}")
    if norm <= radius:
        return X
    return X * (radius / norm)


def _check_epsilon(epsilon: float, num_samples: int) -> None:
    """Refuse a radius whose iterates' squared norms underflow or overflow.

    An iterate is never longer than epsilon before a step and
    ``(1 + STEP_SCALE * sqrt(K)) * epsilon`` after it: the step
    ``gamma * d * G`` has ``gamma * d <= STEP_SCALE * epsilon`` and a polar
    factor G of Frobenius norm sqrt(K). Below the lower bound the loop
    stops at its start on a step norm rounded to 0; above the upper one
    it fails on an infinite norm.
    """
    largest = _NORM_MAX / (1.0 + STEP_SCALE * math.sqrt(num_samples))
    if not _NORM_MIN <= epsilon <= largest:
        raise ValueError(
            f"epsilon must lie in [{_NORM_MIN:.3g}, {largest:.3g}] for K={num_samples}, "
            f"where the design loop's squared norms are normal floats, got {epsilon:g}"
        )


def _polar_factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The polar factor ``U @ V.T`` of M's thin SVD, and M's singular values.

    With ``(w, V) = eigh(M.T @ M)`` the polar factor is
    ``M @ V diag(w^-1/2) V.T`` and the singular values are ``sqrt(w)``
    in reverse, so an n x K input costs two n x K x K products, a K x K
    eigenproblem and a K x K x K product. When ``w_min <= w_max / GRAM_COND_LIMIT`` the
    Gram matrix has lost the small singular values to rounding, and the
    thin SVD of M is taken instead; that branch also covers the zero,
    the empty and the rank-deficient matrix. The Gram route squares the
    condition number, so its polar factor is within ``cond(M)^2 * eps`` of
    the SVD's entrywise (measured at 0.005 to 0.06 times that on 64 x 8
    matrices of cond 1e2 to 9.9e3, up to 7e-10 at 9.9e3).

    The polar factor is an element of the nuclear-norm subdifferential
    at M, the only one when M has full rank; the proximal linearized DC
    loop reaches a critical point with any element. The zero matrix,
    whose subdifferential is the whole unit spectral-norm ball, raises a
    ValueError.
    """
    w, V = np.linalg.eigh(M.T @ M)
    if w.size and w[0] > w[-1] / GRAM_COND_LIMIT:
        return M @ ((V / np.sqrt(w)) @ V.T), np.sqrt(w[::-1])
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise ValueError(
            "the zero matrix has no canonical nuclear-norm subgradient; "
            "re-randomize the iterate"
        )
    return U @ Vt, s


def design_sampling_operator(
    whitener: VariationOperator, num_samples: int, config: DesignConfig
) -> SamplingDesign:
    """Design a dense sampling matrix maximizing the whitened nuclear norm.

    Starts from a standard-Gaussian matrix S (seeded by ``config.seed``)
    projected into the Frobenius ball of radius ``config.epsilon``.
    With the whitener ``A = Q diag(d) Q.T`` (``whitener.values`` and
    ``whitener.basis``), keeps the m = min(n, ROWS_PER_SAMPLE * K)
    columns Q_m of Q with the largest scales (ties to the lowest index;
    all of Q when m = n), iterates on ``T = Q_m.T @ S`` and repeats:
    take the polar factor G of ``d * T``, whose rotation ``Q_m @ G`` is
    the nuclear-norm subgradient at ``A @ S``, move along ``gamma * d * G``
    with ``gamma = STEP_SCALE * epsilon / max(d)``, and project back onto
    the ball. This is the step ``S + gamma * A.T @ Q_m @ G`` written in
    the rotated coordinates, and the trace's norms are the same in either.
    Stops when
    ``||T_next - T||_F <= STOP_TOL * ||T||_F`` or after ``max_iter``
    iterations (reported via ``converged``), and returns ``S = Q_m @ T``.

    Raises:
        ValueError: on a non-integer or out-of-range sample count, a
            radius outside the range where the loop's squared norms are
            normal floats (``_check_epsilon``), or a zero whitened
            iterate (propagated from the subgradient).
    """
    scales, Q = whitener.values, whitener.basis
    n = Q.shape[0]
    num_samples = _sample_count("num_samples", num_samples, n)
    _check_epsilon(config.epsilon, num_samples)
    m = min(n, ROWS_PER_SAMPLE * num_samples)
    # at m = n the subset would be Q reordered in memory (Fortran order),
    # whose products differ from Q's in the last bits
    if m < n:
        keep = np.sort(np.argsort(-scales, kind="stable")[:m])
        scales, Q = scales[keep], Q[:, keep]
    d = scales[:, None]
    step_scales = (STEP_SCALE * config.epsilon / float(np.max(d))) * d
    rng = np.random.default_rng(config.seed)
    T = Q.T @ project_frobenius_ball(
        rng.standard_normal((n, num_samples)), config.epsilon
    )
    nuc, steps, frobs = [], [], []
    converged = False
    iterations = 0
    for _ in range(config.max_iter):
        G, s = _polar_factor(d * T)
        T_next = project_frobenius_ball(T + step_scales * G, config.epsilon)
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
