"""Seeded, portable pseudo-random generation for scenario synthesis.

Scenario draws must be reproducible from a 64-bit seed independently of
platform, Python version and process/worker layout, so we do not rely on
``random.Random`` or numpy's generators.  Instead this module implements two
small published algorithms with fully pinned integer arithmetic:

* splitmix64 -- used to expand a user seed into generator state and to derive
  independent per-trial seeds in the experiment harness;
* xoshiro256** -- the draw generator behind scenario synthesis.

Uniform doubles are derived from the top 53 bits of each 64-bit output:
``(word >> 11) * 2**-53``, giving values in [0, 1).  `next_u64s` draws many
words in one loop; it is the one place the xoshiro step is written, and the
one-word draws call it.  `uniforms` turns such a run of words into a float64
array with the same bits as `random`, which is how scenario synthesis takes
its 3N draws.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_UNIT = 2.0**-53  # a word's top 53 bits times this: a double in [0, 1)


def splitmix64_next(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once.  Returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def split_seeds(seed: int, count: int) -> list[int]:
    """Derive `count` 64-bit sub-seeds from a master seed via splitmix64."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state, word = splitmix64_next(state)
        out.append(word)
    return out


class Xoshiro256StarStar:
    """xoshiro256** generator, seeded through splitmix64 as its authors advise."""

    def __init__(self, seed: int):
        self._s = split_seeds(seed, 4)

    def next_u64s(self, count: int) -> list[int]:
        """The stream's next `count` 64-bit words, drawn in one loop over local ints."""
        s0, s1, s2, s3 = self._s
        out = []
        for _ in range(count):
            r = (s1 * 5) & _MASK64
            out.append((((r << 7) | (r >> 57)) * 9) & _MASK64)  # rotl(s1 * 5, 7) * 9
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64  # rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return out

    def next_u64(self) -> int:
        return self.next_u64s(1)[0]

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _UNIT

    def uniforms(self, count: int) -> np.ndarray:
        """The next `count` draws of `random`, bit for bit, as a float64 array."""
        words = np.array(self.next_u64s(count), dtype=np.uint64)
        return (words >> np.uint64(11)) * _UNIT

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()
