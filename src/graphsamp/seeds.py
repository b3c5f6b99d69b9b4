"""One rule per integer, size and seed argument, each taking its caller's name
first; the one way to name a rejected value; and derived seed streams."""

import operator
from contextlib import contextmanager

_UINT64_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _integer(name: str, value) -> int:
    """``value`` as an int; a ValueError naming ``name`` if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _seed(name: str, value) -> int:
    """``value`` as an int in [0, 2**64); a ValueError naming ``name`` otherwise."""
    seed = _integer(name, value)
    if not 0 <= seed <= _UINT64_MASK:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return seed


def _count(name: str, value) -> int:
    """``value`` as an int of at least 1; a ValueError naming ``name`` otherwise."""
    value = _integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


def _vertex_count(name: str, n) -> int:
    """``n`` as an int of at least 2; a ValueError naming ``name`` otherwise."""
    n = _integer(name, n)
    if n < 2:
        raise ValueError(f"{name} must be at least 2, got {n}")
    return n


def _neighbour_count(name: str, k, n: int) -> int:
    """``k`` as an int with 1 <= k < n; a ValueError naming ``name`` otherwise."""
    k = _integer(name, k)
    if not 1 <= k < n:
        raise ValueError(f"{name} must satisfy 1 <= {name} < n, got {name}={k}, n={n}")
    return k


def _sample_count(name: str, num_samples, n: int) -> int:
    """``num_samples`` as an int K with 1 <= K < n; a ValueError naming ``name`` otherwise."""
    num_samples = _integer(name, num_samples)
    if not 1 <= num_samples < n:
        raise ValueError(f"{name} must satisfy 1 <= K < {n}, got {num_samples}")
    return num_samples


@contextmanager
def _naming(prefix):
    """Re-raise a ValueError or OverflowError raised inside as a ValueError
    prefixed by ``prefix``: the flag, config key or file that was bad."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{prefix}: {exc}") from exc


def mix_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit stream seed from (seed, index).

    Output ``index`` of the SplitMix64 sequence started at state ``seed``
    (``index`` of either sign, taken mod 2**64): nearby indices give
    uncorrelated streams, identically on every platform.
    """
    z = (_seed("seed", seed) + (_integer("index", index) + 1) * _GOLDEN) & _UINT64_MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _UINT64_MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _UINT64_MASK
    return (z ^ (z >> 31)) & _UINT64_MASK
