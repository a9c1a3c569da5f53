from __future__ import annotations

import numpy as np
from oracles import Xoshiro256StarStar

from relaysched.rng import (
    _BLOCK,
    _s1_run,
    _tables,
    split_seeds,
    splitmix64_next,
    uniforms,
)

M64 = (1 << 64) - 1


def reference_splitmix64(seed: int, count: int) -> list[int]:
    """Independent transliteration of the published splitmix64 reference."""
    out = []
    state = seed & M64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


def reference_xoshiro(seed: int, count: int) -> list[int]:
    """Independent transliteration of the published xoshiro256** reference."""
    s = reference_splitmix64(seed, 4)

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & M64

    out = []
    for _ in range(count):
        out.append((rotl((s[1] * 5) & M64, 7) * 9) & M64)
        t = (s[1] << 17) & M64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


class TestSplitmix:
    def test_matches_reference(self):
        for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
            got = split_seeds(seed, 8)
            assert got == reference_splitmix64(seed, 8)

    def test_step_function(self):
        state, word = splitmix64_next(0)
        assert state == 0x9E3779B97F4A7C15
        assert word == reference_splitmix64(0, 1)[0]


class TestXoshiro:
    def test_matches_reference(self):
        for seed in (0, 7, 123456789, 2**63):
            gen = Xoshiro256StarStar(seed)
            assert [gen.next_u64() for _ in range(16)] == reference_xoshiro(seed, 16)

    def test_bulk_draws_continue_the_stream(self):
        for seed in (0, 7, 2**63):
            for k in (0, 1, 5, 300):
                gen = Xoshiro256StarStar(seed)
                words = gen.next_u64s(k)
                assert gen.next_u64s(0) == []
                assert words + [gen.next_u64(), gen.next_u64()] == reference_xoshiro(seed, k + 2)

    def test_uniform_derivation(self):
        gen_bits = Xoshiro256StarStar(99)
        gen_floats = Xoshiro256StarStar(99)
        for _ in range(100):
            word = gen_bits.next_u64()
            f = gen_floats.random()
            assert f == (word >> 11) * 2.0**-53
            assert 0.0 <= f < 1.0

    def test_bulk_uniforms_are_the_scalar_draws(self):
        # up to three blocks of table lookups, cut at and next to the block edges
        for seed in (0, 99, 2**63, 2**64 - 1):
            for k in (0, 1, 5, 300, 511, 512, 513, 3 * 512 + 7):
                got = uniforms(seed, k)
                assert got.dtype == np.float64 and got.shape == (k,)
                scalar = Xoshiro256StarStar(seed)
                want = np.array([scalar.random() for _ in range(k)], dtype=np.float64)
                assert got.tobytes() == want.tobytes()

    def test_uniform_range(self):
        gen = Xoshiro256StarStar(5)
        xs = [gen.uniform(-3.0, 7.0) for _ in range(1000)]
        assert all(-3.0 <= x < 7.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 2.0) < 0.3

    def test_streams_are_deterministic(self):
        a = [Xoshiro256StarStar(1234).random() for _ in range(5)]
        b = [Xoshiro256StarStar(1234).random() for _ in range(5)]
        assert a == b


class TestTables:
    def test_rows_are_the_basis_states_runs(self):
        table, jump = _tables()
        assert table.shape == (256, _BLOCK) and jump.shape == (256, 4)
        for b in (0, 1, 63, 64, 100, 127, 128, 170, 191, 192, 230, 255):
            basis = [0, 0, 0, 0]
            basis[b // 64] = 1 << (b % 64)
            s1s, after = _s1_run(tuple(basis), _BLOCK)
            assert table[b].tolist() == s1s
            assert jump[b].tolist() == list(after)

    def test_built_once_and_not_grown(self):
        table, jump = _tables()
        uniforms(8, 300_000)
        again = _tables()
        assert again[0] is table and again[1] is jump and _tables.cache_info().misses == 1
        assert table.shape == (256, _BLOCK) and jump.shape == (256, 4)
