import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassdense.linalg import bareiss_rank, is_probable_prime, mod_rank, random_prime

P = 2_147_483_629  # largest prime below 2^31


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 5, 97, 2_147_483_629, 2_305_843_009_213_693_951):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for c in (1, 4, 561, 2_147_483_629 * 3, 3825123056546413051):
            assert not is_probable_prime(c)

    def test_random_prime_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = random_prime(rng)
            assert 2**30 < p < 2**31
            assert is_probable_prime(p)


class TestModular:
    def test_rank_identity(self):
        assert mod_rank(np.eye(4, dtype=np.int64), P) == 4

    def test_rank_dependent_rows(self):
        a = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]], dtype=np.int64)
        assert mod_rank(a, P) == 2
        assert bareiss_rank(a) == 2

    @given(st.integers(0, 2**32))
    @settings(max_examples=30)
    def test_rank_agrees_with_numpy_small(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(-4, 5, size=(4, 5))
        assert mod_rank(a % P, P) == np.linalg.matrix_rank(a.astype(float))
        assert bareiss_rank(a) == np.linalg.matrix_rank(a.astype(float))


class TestRational:
    def test_bareiss_vs_modular(self):
        rng = np.random.default_rng(11)
        a = rng.integers(-50, 51, size=(6, 8))
        assert bareiss_rank(a) == mod_rank(a % P, P)
