"""Deterministic seed derivation and a small portable PRNG.

All randomness in the pipeline flows from a single base seed through
``derive_seed``, so a run is fully determined by its configuration.  The
mixing function is a splitmix64 finalizer, chosen because it is trivial to
re-implement bit-for-bit in any language (the exact scheme is documented in
the README so serialized runs stay portable).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value, or each of a numpy uint64 array."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *path: int) -> int:
    """Mix ``base_seed`` with a path of stream indices into a 64-bit seed.

    derive_seed(b)            = mix(b + G)
    derive_seed(b, i, j, ...) = fold left over the path components with
                                state = mix((state ^ mix(c + G)) + G)

    where ``mix`` is the splitmix64 finalizer and G = 0x9E3779B97F4A7C15.
    Distinct paths yield independent-looking streams; identical paths are
    bit-identical across runs and platforms.
    """
    state = _mix64((base_seed & _MASK64) + _GOLDEN)
    for component in path:
        state = _mix64(((state ^ _mix64((component & _MASK64) + _GOLDEN)) + _GOLDEN) & _MASK64)
    return state


class SplitMix64:
    """Minimal counter-based generator for sampling and shuffling.

    Used where cross-platform reproducibility matters more than speed
    (resample selection, fold shuffling, each tree node's candidate
    features).  The MLP's initial weights and the forests' bootstrap rows
    take the same outputs in one vectorized pass (``ml._splitmix64``).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        span = _MASK64 + 1
        limit = span - (span % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample_indices(self, population_size: int, k: int) -> list[int]:
        """k distinct indices drawn without replacement from [0, population_size)."""
        if not 0 <= k <= population_size:
            raise ValueError("sample size out of range")
        idx = list(range(population_size))
        for i in range(k):
            j = i + self.randbelow(population_size - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]
