"""Seeded, portable pseudo-random generation for scenario synthesis.

Scenario draws must be reproducible from a 64-bit seed independently of
platform, Python version and process/worker layout, so we do not rely on
``random.Random`` or numpy's generators.  Instead this module implements two
small published algorithms with fully pinned integer arithmetic:

* splitmix64 -- used to expand a user seed into generator state and to derive
  independent per-trial seeds in the experiment harness;
* xoshiro256** -- the draw generator behind scenario synthesis.  Its scalar
  form, one Python-int step per word, is the test suite's reference
  (``tests/oracles.py``); no run calls it.

Uniform doubles are derived from the top 53 bits of each 64-bit output:
``(word >> 11) * 2**-53``, giving values in [0, 1).

The xoshiro step is written once, in `_s1_run`, with plain XORs, shifts and
masks, so it runs on Python ints (the reference's one-word draws) and on
uint64 arrays alike, one lane per state.  The ``**`` scrambler is written
once too, in `_scramble`.  The step is linear over GF(2): every bit of the
state after k steps, and of s1 before step k, is the XOR of the seed state's
bits at fixed positions (Blackman and Vigna, ACM TOMS 2021).  So `_tables`
runs the 256 basis states (one state bit set each) through `_s1_run` as
lanes, `_BLOCK` steps, once per process.  Row b of its s1 table is what
state bit b adds to s1 before each step, and row b of its jump table is
what it adds to the state after the block.  `uniforms` then draws a fleet's
words a block at a time by XOR-reducing the rows of the seed state's set
bits: the same bits as the loop, in a few numpy calls per 512 words.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_UNIT = 2.0**-53  # a word's top 53 bits times this: a double in [0, 1)
_BLOCK = 512  # words per table lookup; the s1 table holds 256 x _BLOCK words (1 MB)


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


def _s1_run(state, count: int):
    """s1 before each of `count` xoshiro steps, and the state after them.

    `state` is four Python ints or four uint64 arrays of lanes.  The XORs
    are not augmented, so no array that was handed out is changed.
    """
    s0, s1, s2, s3 = state
    out = []
    for _ in range(count):
        out.append(s1)
        t = (s1 << 17) & _MASK64
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64  # rotl(s3, 45)
    return out, (s0, s1, s2, s3)


def _scramble(s1):
    """The ``**`` scrambler, rotl(s1 * 5, 7) * 9, on an int or a uint64 array."""
    r = (s1 * 5) & _MASK64
    return (((r << 7) | (r >> 57)) * 9) & _MASK64


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The (256, _BLOCK) s1 table and the (256, 4) jump table of the basis states."""
    bit = np.arange(256)
    basis = np.zeros((4, 256), dtype=np.uint64)
    basis[bit // 64, bit] = np.ones(256, dtype=np.uint64) << (bit % 64).astype(np.uint64)
    s1s, after = _s1_run(tuple(basis), _BLOCK)
    table, jump = np.stack(s1s, axis=1), np.stack(after, axis=1)
    table.flags.writeable = jump.flags.writeable = False  # every caller shares them
    return table, jump


def uniforms(seed: int, count: int) -> np.ndarray:
    """The first `count` draws of the xoshiro256** stream of `seed` as float64 in [0, 1).

    The bits are those of `count` calls of the scalar reference's `random`
    (``tests/oracles.py``): the top 53 bits of each scrambled word times 2**-53.
    """
    table, jump = _tables()
    state = np.array(split_seeds(seed, 4), dtype="<u8")
    s1 = np.empty(count, dtype=np.uint64)
    for start in range(0, count, _BLOCK):
        if start:
            state = np.bitwise_xor.reduce(jump[bits], axis=0)
        # bit b of the state is bit b % 64 of word b // 64 on either byte order
        bits = np.flatnonzero(np.unpackbits(state.astype("<u8", copy=False).view(np.uint8),
                                            bitorder="little"))
        s1[start:start + _BLOCK] = np.bitwise_xor.reduce(table[bits, :count - start], axis=0)
    return (_scramble(s1) >> 11) * _UNIT

