import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from grassdense.linalg import (
    _eliminate, bareiss_rank, is_probable_prime, mod_rank, random_prime, words,
)

P = 2_147_483_629  # largest prime below 2^31


class TestPrimes:
    def test_known_primes(self):
        for p in (2, 3, 5, 97, 2_147_483_629, 2_305_843_009_213_693_951):
            assert is_probable_prime(p)

    def test_known_composites(self):
        for c in (1, 4, 561, 2_147_483_629 * 3, 3825123056546413051):
            assert not is_probable_prime(c)

    def test_random_prime_in_range(self):
        stream = words(0)
        for _ in range(5):
            p = random_prime(stream)
            assert 2**30 < p < 2**31
            assert is_probable_prime(p)

    def test_agrees_with_sieve(self):
        # covers 61, a witness of the 3-base test that must not refute itself
        limit = 200_000
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        assert [n for n in range(limit) if is_probable_prime(n)] == np.flatnonzero(sieve).tolist()

    def test_witness_set_edges(self):
        assert is_probable_prime(61)
        assert is_probable_prime(2**31 - 1)
        # the least strong pseudoprime to 2, 3, 5 and 7
        assert _strong_probable_prime(3_215_031_751, (2, 3, 5, 7))
        assert not is_probable_prime(3_215_031_751)
        # 48,781 * 97,561: the least strong pseudoprime to 2, 7 and 61, so it
        # needs the twelve-base witness set
        assert 48_781 * 97_561 == 4_759_123_141
        assert _strong_probable_prime(4_759_123_141, (2, 7, 61))
        assert not is_probable_prime(4_759_123_141)

    def test_agrees_with_twelve_bases_near_the_limit(self):
        rng = np.random.default_rng(20260815)
        for n in rng.integers(2**30, 2**33, size=20_000).tolist():
            n |= 1
            assert is_probable_prime(n) == _reference_is_prime(n), n

    def test_random_prime_matches_reference_sampler(self):
        # the first three primes (w >> 33) | 2^30 | 1 of words(s), s = 0..199,
        # with primality by trial division up to sqrt(2^31)
        limit = 46_341
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = False
        small = np.flatnonzero(sieve).tolist()

        def reference(stream):
            for w in stream:
                c = (w >> 33) | 2**30 | 1
                if all(c % q for q in small):
                    return c

        for s in range(200):
            ours, ref = words(s), words(s)
            assert [random_prime(ours) for _ in range(3)] == [reference(ref) for _ in range(3)]


class TestWords:
    def test_keyless_stream_is_splitmix64_from_zero(self):
        # the published first outputs of splitmix64 seeded with 0
        assert list(itertools.islice(words(), 3)) == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_first_words_pinned(self):
        # a change here changes every oracle record's primes and charts
        assert list(itertools.islice(words(0), 3)) == [
            6791897765849424158, 17405687883870564846, 834844254806117752]
        assert list(itertools.islice(words(1, 2, 3), 3)) == [
            5631902732087738355, 8137353392440784526, 18005441768042641825]

    def test_keys_of_different_lengths_differ(self):
        keys = [(), (0,), (0, 0), (0, 0, 0), (1,), (0, 1), (1, 0), (2**64 - 1,)]
        firsts = [tuple(itertools.islice(words(*k), 4)) for k in keys]
        assert len(set(firsts)) == len(keys)
        assert all(0 <= w < 2**64 for f in firsts for w in f)

    def test_rejects_bad_keys(self):
        # a numpy int is refused too: its arithmetic would wrap, not mask;
        # and so is a bool, which is no key
        for key in [(-1,), (2**64,), (1.0,), ("1",), (0, None), (np.int64(1),), (True,),
                    (0, False)]:
            with pytest.raises(ValueError, match="key entries"):
                next(words(*key))


_TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n, bases):
    """n (odd, > 1, prime to every base) passes the strong test to each base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _reference_is_prime(n):
    """Miller-Rabin with the twelve primes up to 37 for every n, as the
    primality test ran before it took three witnesses below 4,759,123,141."""
    if n < 2:
        return False
    for p in _TWELVE_BASES:
        if n % p == 0:
            return n == p
    return _strong_probable_prime(n, _TWELVE_BASES)


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

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_rank_zero(self, shape):
        assert mod_rank(np.zeros(shape, dtype=np.int64), P) == 0

    def test_rejects_non_integer_dtype(self):
        # a float entry would be truncated: [[0.5]] has rank 1 over F_P, not 0
        # and an unsigned one above 2^63 would wrap to a negative int64
        for a in (np.array([[0.5]]), np.array([[1.0], [0.5]]), np.ones((2, 2), dtype=bool),
                  np.zeros((0, 3)), np.array([[2**64 - 1]], dtype=np.uint64)):
            with pytest.raises(ValueError, match="integer"):
                mod_rank(a, P)
        assert mod_rank(np.eye(3, dtype=np.int32), P) == 3
        assert mod_rank([[3, 5], [6, 10]], P) == 1

    def test_bareiss_rejects_non_integer_dtype(self):
        # float entries would be truncated: exact ranks 1 and 2, not 0 and 1
        for a in ([[0.5]], [[0.5, 0.25], [1, 0]], np.ones((2, 2), dtype=bool),
                  np.zeros((0, 3)), np.array([[1]], dtype=np.uint64)):
            with pytest.raises(ValueError, match="not a signed integer type"):
                bareiss_rank(a)
        for shape in ((0, 0), (0, 5), (5, 0)):
            assert bareiss_rank(np.zeros(shape, dtype=np.int64)) == 0
        assert bareiss_rank([[3, 5], [6, 10]]) == 1

    def test_rejects_non_2d(self):
        # unchecked, a vector raises AxisError in mod_rank and TypeError in bareiss_rank
        for a in (np.array([1, 2, 3]), np.array(5), np.zeros((2, 2, 2), dtype=np.int64)):
            for rank in (lambda m: mod_rank(m, P), bareiss_rank):
                with pytest.raises(ValueError, match=re.escape(f"2-D, got shape {a.shape}")):
                    rank(a)
        for shape in ((0, 0), (0, 5), (5, 0)):
            assert mod_rank(np.zeros(shape, dtype=np.int64), P) == 0
            assert bareiss_rank(np.zeros(shape, dtype=np.int64)) == 0

    # 4 is composite (the rank "mod 4" would read 1); 1 is no prime; 2^61 - 1
    # and 2^31 + 11 are primes whose residue products overflow int64
    @pytest.mark.parametrize("p", [4, 1, 2**61 - 1, 2**31 + 11, 7.0])
    def test_rejects_bad_modulus(self, p):
        with pytest.raises(ValueError, match="prime below 2\\^31"):
            mod_rank([[3, 5], [6, 10]], p)
        with pytest.raises(ValueError, match="prime below 2\\^31"):
            mod_rank(np.zeros((0, 0), dtype=np.int64), p)


@st.composite
def sparse_matrices(draw):
    """Integer matrices up to 12 x 16 with at most half of each row nonzero,
    some all-zero rows and columns, duplicated rows, negative entries and
    nonzero multiples of P, which are zero mod P but count as nonzero when
    mod_rank orders the columns."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    entries = st.one_of(st.integers(-9, 9), st.sampled_from([P, -P, 2 * P, P - 1, 1 - P]))
    a = draw(arrays(np.int64, (rows, cols), elements=entries))
    for row in a:
        nonzero = np.flatnonzero(row)
        drop = draw(st.permutations(nonzero.tolist()))[: max(0, nonzero.size - cols // 2)]
        row[drop] = 0
    a[draw(st.lists(st.integers(0, rows - 1), max_size=3))] = 0
    a[:, draw(st.lists(st.integers(0, cols - 1), max_size=4))] = 0
    for src, dst in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1)),
                                  max_size=3)):
        a[dst] = a[src]
    return a


class TestColumnOrder:
    @given(sparse_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_unordered_elimination(self, a):
        assert (a == 0).sum() * 2 >= a.size
        assert mod_rank(a, P) == _eliminate(a % P, P)

    @given(sparse_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_permutations(self, a, data):
        rows = data.draw(st.permutations(range(a.shape[0])))
        cols = data.draw(st.permutations(range(a.shape[1])))
        assert mod_rank(a[rows][:, cols], P) == mod_rank(a, P)


def _remainder_eliminate(m, p):
    """The elimination kernel as it reduced before floor division: every
    multiplier and row update by int64 % p."""
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        targets = nz[1:] + r
        if targets.size:
            f = m[targets, c] * pow(int(m[r, c]), -1, p) % p
            m[targets, c:] = (m[targets, c:] - f[:, None] * m[r, c:]) % p
        r += 1
    return r


@st.composite
def residue_matrices(draw):
    """A prime p in {P, 2^31 - 1} and a matrix of residues mod p up to
    10 x 12: entries at random, near p - 1 (so that a row update reaches
    about -(p - 1)^2), 0 and 1, with some rows sums of multiples of others."""
    p = draw(st.sampled_from([P, 2**31 - 1]))
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    entries = st.one_of(st.integers(0, p - 1), st.integers(p - 4, p - 1), st.sampled_from([0, 1]))
    a = draw(arrays(np.int64, (rows, cols), elements=entries))
    for dst, src, k in draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1),
                                               st.sampled_from([1, 2, p - 1])), max_size=4)):
        a[dst] = (a[dst] + a[src] * k) % p
    return p, a


class TestKernel:
    @given(residue_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_remainder_kernel(self, pa):
        p, a = pa
        m, ref = a.copy(), a.copy()
        assert _eliminate(m, p) == _remainder_eliminate(ref, p)
        assert (m == ref).all()

    @pytest.mark.parametrize("p", [P, 2**31 - 1])
    def test_extreme_update(self, p):
        # the target row's update is 0 - (p - 1)(p - 1) = -(p - 1)^2, which
        # is 1 mod p, so the reduced entry reads p - 1
        m = np.array([[1, p - 1], [p - 1, 0]], dtype=np.int64)
        assert _eliminate(m, p) == 2
        assert m.tolist() == [[1, p - 1], [0, p - 1]]


class TestRational:
    def test_bareiss_vs_modular(self):
        rng = np.random.default_rng(11)
        a = rng.integers(-50, 51, size=(6, 8))
        assert bareiss_rank(a) == mod_rank(a % P, P)
