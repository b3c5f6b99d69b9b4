"""The one rule for integer and seed arguments, and derived seed streams."""

import operator

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
