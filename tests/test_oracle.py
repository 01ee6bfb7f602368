import dataclasses
import itertools
import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from grassdense import cli, oracle
from grassdense.core import DimensionVector, parse
from grassdense.families import enumerate_vectors
from grassdense.linalg import _eliminate, is_probable_prime, mod_rank, random_prime, words
from grassdense.oracle import (
    GenericConfiguration, OracleReport, VerdictClass, _stabilizer_system, oracle_decide,
    sample_configuration, stabilizer_nullity,
)

P = 2_147_483_629


def _full_system(c):
    """kron(Q_i, U_i^T) for every subspace, on all n^2 entries of g, with a
    left annihilator Q_i of each chart [I; A] or coordinate block: the
    identity rows outside the block's support."""
    n = c.ambient
    blocks = [np.zeros((0, n * n), dtype=np.int64)]
    for u in c.subspaces:
        d = u.shape[1]
        if (u[:d] == np.eye(d, dtype=np.int64)).all():
            q = np.hstack([-u[d:], np.eye(n - d, dtype=np.int64)])
        else:
            q = np.eye(n, dtype=np.int64)[~u.any(axis=1)]
        assert not (q @ u).any()
        blocks.append(np.kron(q, u.T))
    return np.vstack(blocks)


def _two_block_configuration(d, prime, seed):
    """The slice that fixes only the pair: [I; 0] and [0; I] for the two
    entries with the largest d_i (n - d_i), and a chart point, drawn as
    sample_configuration draws sample 0, for every other entry."""
    m, shift = (prime, 0) if prime else (10001, 5000)
    n = d.ambient
    top, bottom = sorted(range(d.length), reverse=True,
                         key=lambda i: (d.dims[i] * (n - d.dims[i]), d.dims[i], -i))[:2]
    parts = []
    for i, di in enumerate(d.dims):
        if i in (top, bottom):
            parts.append(0 if i == top else n - di)
        else:
            stream = words(seed, 0, i)
            a = [[next(stream) % m - shift for _ in range(di)] for _ in range(n - di)]
            parts.append(np.array(a, dtype=np.int64))
    return GenericConfiguration(d, tuple(parts), prime)


def small_vectors(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(1, n - 1), min_size=1, max_size=5)
        .map(lambda dims: DimensionVector(tuple(dims), n)))


class TestSampling:
    def test_shapes_and_full_rank(self):
        c = sample_configuration(parse("1,2,2;5"), prime=P, seed=5)
        assert [u.shape for u in c.subspaces] == [(5, 1), (5, 2), (5, 2)]
        for u in c.subspaces:
            assert mod_rank(u.T, P) == u.shape[1]
        # the two planes are fixed at span(e1, e2) and span(e4, e5), and the
        # point, which still fits, at e3: a direct sum, with nothing to solve
        point, top, bottom = c.subspaces
        assert (point == np.eye(5, 1, k=-2, dtype=np.int64)).all()
        assert (top == np.eye(5, 2, dtype=np.int64)).all()
        assert (bottom == np.eye(5, 2, k=-3, dtype=np.int64)).all()
        assert _stabilizer_system(c).shape == (0, 9)
        assert stabilizer_nullity(c) == 9

    def test_direct_sum_fixes_every_entry_that_fits(self):
        # the pair is 5 at [0, 5) and the first 3 at [16, 19); the next three
        # 3s fill [5, 14), the last two no longer fit and are chart points
        c = sample_configuration(parse("3^6,5;19"), prime=P, seed=0)
        s = c.subspaces
        for i, start in [(6, 0), (0, 16), (1, 5), (2, 8), (3, 11)]:
            assert (s[i] == np.eye(19, s[i].shape[1], k=-start, dtype=np.int64)).all()
        for u in s[4:6]:
            assert (u[:3] == np.eye(3, dtype=np.int64)).all() and u[3:].any()
        # 48 equations per chart; 4 * 3 * 16 + 5 * 14 unknowns forced to 0
        assert _stabilizer_system(c).shape == (2 * 48, 19 ** 2 - 4 * 3 * 16 - 5 * 14)

    @pytest.mark.parametrize("text", ["12^2,13^2;25", "2,3;4", "15,14;30"])
    @pytest.mark.parametrize("prime", [P, None])
    def test_no_third_entry_keeps_two_blocks(self, text, prime):
        # no third entry fits: the sample is the two-block one, draw for draw
        d = parse(text)
        c = sample_configuration(d, prime=prime, seed=2)
        old = _two_block_configuration(d, prime, 2)
        assert all(np.array_equal(x, y) for x, y in zip(c.subspaces, old.subspaces))
        assert np.array_equal(_stabilizer_system(c), _stabilizer_system(old))

    def test_fixed_pair_prefers_larger_entry_on_ties(self):
        # d(n - d) = 156 for every entry; the two 13s are fixed, so the
        # coordinate subspaces overlap in e_13
        c = sample_configuration(parse("12^2,13^2;25"), prime=P, seed=0)
        assert (c.subspaces[2] == np.eye(25, 13, dtype=np.int64)).all()
        assert (c.subspaces[3] == np.eye(25, 13, k=-12, dtype=np.int64)).all()
        assert c.subspaces[0][13:].any() and c.subspaces[1][13:].any()

    def test_deterministic(self):
        a = sample_configuration(parse("2,3,3;6"), prime=P, seed=42)
        b = sample_configuration(parse("2,3,3;6"), prime=P, seed=42)
        assert all((x == y).all() for x, y in zip(a.subspaces, b.subspaces))

    def test_seed_changes_sample(self):
        a = sample_configuration(parse("2,3,3;6"), prime=P, seed=1)
        b = sample_configuration(parse("2,3,3;6"), prime=P, seed=2)
        assert any((x != y).any() for x, y in zip(a.subspaces, b.subspaces))

    def test_numpy_prime_draws_as_int(self):
        a = sample_configuration(parse("1,3,3,3;5"), prime=np.int64(P), seed=1)
        b = sample_configuration(parse("1,3,3,3;5"), prime=P, seed=1)
        assert all((x == y).all() for x, y in zip(a.subspaces, b.subspaces))

    def test_bad_seed_or_sample_raises(self):
        # by oracle_decide's rule, whether or not anything is drawn: (2,3;5)
        # has no chart point, (1,3^3;5) two
        for text in ("2,3;5", "1,3,3,3;5"):
            for bad in (-1, 2**64, 1.5, True, False, None, np.int64(-1)):
                with pytest.raises(ValueError, match="^seed must"):
                    sample_configuration(parse(text), P, bad)
                with pytest.raises(ValueError, match="^sample must"):
                    sample_configuration(parse(text), P, 0, bad)
        a = sample_configuration(parse("1,3,3,3;5"), P, np.uint64(2**64 - 1), 2**64 - 1)
        b = sample_configuration(parse("1,3,3,3;5"), P, 2**64 - 1, 2**64 - 1)
        assert all((x == y).all() for x, y in zip(a.subspaces, b.subspaces))

    def test_sample_index_changes_sample(self):
        a = sample_configuration(parse("2,3,3;6"), prime=P, seed=1, sample=0)
        b = sample_configuration(parse("2,3,3;6"), prime=P, seed=1, sample=1)
        assert any((x != y).any() for x, y in zip(a.subspaces, b.subspaces))

    def test_charts_pinned(self):
        # the two 3s at 0 and 2 overlap; entries 0 and 3 are charts, filled
        # row-major from words(1, 0, i) mod P, or mod 10001 less 5000 over Q
        c = sample_configuration(parse("1,3,3,3;5"), prime=P, seed=1)
        q = sample_configuration(parse("1,3,3,3;5"), prime=None, seed=1)
        assert c.parts[1:3] == q.parts[1:3] == (0, 2)
        assert c.parts[0].tolist() == [[173490644], [1660332381], [1207670854], [45806769]]
        assert c.parts[3].tolist() == [[1758295781, 983316268, 2130170069],
                                       [1800385366, 582239937, 1194484628]]
        assert q.parts[0].tolist() == [[-986], [2903], [-4746], [-222]]
        assert q.parts[3].tolist() == [[3933, 1430, -4231], [59, -3633, -2206]]
        assert c.parts[3].ravel().tolist() == [w % P for w in itertools.islice(words(1, 0, 3), 6)]

    def test_rational_mode_entries_bounded(self):
        c = sample_configuration(parse("2,2;5"), prime=None, seed=3)
        for u in c.subspaces:
            assert np.abs(u).max() <= 5000


class TestStabilizerNullity:
    def test_full_flag_configuration_dense(self):
        # (1,2,2;5): expected stabilizer dimension 8
        c = sample_configuration(parse("1,2,2;5"), prime=P, seed=0)
        assert stabilizer_nullity(c) - 1 == 8

    def test_at_least_one(self):
        c = sample_configuration(parse("3,3,3,3;7"), prime=P, seed=0)
        assert stabilizer_nullity(c) >= 1

    @pytest.mark.parametrize("prime", [P, None])
    @pytest.mark.parametrize("n, charts, nullity", [
        (2, [[[0]], [[0]], [[0]]], 3),          # three equal points: Borel of gl(2)
        (2, [[[0]], [[1]], [[2]]], 1),          # three distinct points: scalars
        (4, [np.zeros((2, 2)), np.eye(2)], 8),  # complementary planes: gl(2) x gl(2)
        (4, [np.zeros((2, 2))] * 2, 12),        # equal planes: a parabolic
    ])
    def test_known_answers(self, prime, n, charts, nullity):
        parts = tuple(np.asarray(a, dtype=np.int64) for a in charts)
        c = GenericConfiguration(DimensionVector(tuple(n - len(a) for a in parts), n), parts, prime)
        assert stabilizer_nullity(c) == nullity

    def test_two_subspaces_need_no_elimination(self):
        c = sample_configuration(parse("15,14;30"), prime=P, seed=0)
        assert _stabilizer_system(c).shape == (0, 451)
        assert stabilizer_nullity(c) == 451

    @pytest.mark.parametrize("prime", [P, None])
    def test_overlapping_pair(self, prime):
        # a + b > n: span(e1, e2) and span(e2, e3, e4) meet in a line
        c = sample_configuration(parse("2,3;4"), prime=prime, seed=0)
        assert stabilizer_nullity(c) - 1 == 8

    def test_overlapping_pair_sparse(self):
        r = oracle_decide(parse("12^2,13^2;25"), samples=1, seed=0)
        assert (r.stab_dim, r.expected) == (12, 0)

    @pytest.mark.parametrize("text", ["1,2,2;5", "1^2,2^2;3", "2,3,3;5", "3^4;7", "1^5,3;6"])
    def test_matches_full_system(self, text):
        for seed in range(3):
            c = sample_configuration(parse(text), prime=P, seed=seed)
            assert stabilizer_nullity(c) == c.ambient ** 2 - mod_rank(_full_system(c), P)

    @given(small_vectors(), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_system_random(self, d, seed):
        c = sample_configuration(d, prime=P, seed=seed)
        assert stabilizer_nullity(c) == c.ambient ** 2 - mod_rank(_full_system(c), P)

    @pytest.mark.parametrize("text, rank", [
        ("10^3;30", 200), ("5^5;30", 375), ("1^10;30", 232), ("15,14;30", 0),
        ("9^3;27", 162), ("7^4;28", 294), ("12^2,13^2;25", 300),
    ])
    def test_benchmark_scale_matches_unordered_elimination(self, text, rank):
        # the oracle-n30 benchmark vectors on the two-block slice, against
        # elimination in the row-major column order of g
        c = _two_block_configuration(parse(text), P, 1)
        m = _stabilizer_system(c)
        assert _eliminate(m % P, P) == rank
        assert stabilizer_nullity(c) == m.shape[1] - rank

    @pytest.mark.parametrize("text, cols", [
        ("10^3;30", 300), ("5^5;30", 275), ("1^10;30", 610), ("15,14;30", 451),
        ("9^3;27", 243), ("7^4;28", 196),
    ])
    def test_benchmark_scale_direct_sums_need_no_elimination(self, text, cols):
        d = parse(text)
        c = sample_configuration(d, prime=P, seed=1)
        assert _stabilizer_system(c).shape == (0, cols)
        assert stabilizer_nullity(c) - 1 == d.expected_stab_dim

    def test_overflowing_prime_rejected(self):
        # (1^2,2^2;3) is sparse, stabilizer dim 1; over 2^61 - 1 the int64
        # products overflow and it would read 0, which looks dense
        d = parse("1,1,2,2;3")
        for seed in range(3):
            assert stabilizer_nullity(sample_configuration(d, prime=P, seed=seed)) - 1 == 1
            with pytest.raises(ValueError, match="prime below 2\\^31"):
                stabilizer_nullity(sample_configuration(d, prime=2**61 - 1, seed=seed))

    def test_rank_beyond_unknowns_raises(self, monkeypatch):
        c = sample_configuration(parse("1,1,1,1;3"), prime=P, seed=0)
        monkeypatch.setattr(oracle, "mod_rank", lambda m, p: c.ambient ** 2)
        with pytest.raises(RuntimeError, match="scalar matrices"):
            stabilizer_nullity(c)


class TestOracleDecide:
    def test_boundary_sparse_frozen(self):
        r = oracle_decide(parse("1,1,2,2;3"), samples=3, seed=0)
        assert r.verdict_class is VerdictClass.MONTE_CARLO_SPARSE
        assert (r.stab_dim, r.expected) == (1, 0)
        assert not r.is_dense

    def test_certified_dense_frozen(self):
        r = oracle_decide(parse("2,2,2;4"), samples=3, seed=0)
        assert r.verdict_class is VerdictClass.CERTIFIED_DENSE
        assert (r.stab_dim, r.expected) == (3, 3)
        # semicontinuity: one witness certifies, no further samples needed
        assert len(r.stab_dims) == 1

    def test_zero_stabilizer_dense(self):
        r = oracle_decide(parse("1,1,1,1,3;4"), samples=3, seed=0)
        assert r.is_dense and (r.stab_dim, r.expected) == (0, 0)

    def test_excess_stabilizer_frozen(self):
        r = oracle_decide(parse("5,5,5,5,13;14"), samples=10, seed=7)
        assert r.verdict_class is VerdictClass.MONTE_CARLO_SPARSE
        assert (r.stab_dim, r.expected) == (6, 2)
        assert len(r.stab_dims) == 10
        assert {s for _, s in r.stab_dims} == {6}
        assert len(set(r.primes)) == 2

    def test_trivially_sparse_short_circuit(self):
        r = oracle_decide(parse("1,1,1,1,2;4"), samples=3, seed=0)
        assert r.verdict_class is VerdictClass.MONTE_CARLO_SPARSE
        assert r.samples == 0 and r.stab_dim is None and r.expected == -1

    def test_deterministic_given_seed(self):
        a = oracle_decide(parse("1,3,3,3;5"), samples=4, seed=1)
        b = oracle_decide(parse("1,3,3,3;5"), samples=4, seed=1)
        assert a == b
        assert a.stab_dim == 3 and a.expected == 2

    def test_rational_agrees_with_modular(self):
        for s in ("2,2,2;4", "1,1,2,2;3", "1,2,2;5"):
            m = oracle_decide(parse(s), samples=2, seed=9)
            q = _rational_stab_dims(parse(s), 2, 9)
            assert m.is_dense == (m.expected in q)
            assert m.stab_dim == min(q)

    def test_report_holds_only_its_evidence(self):
        assert [f.name for f in dataclasses.fields(OracleReport)] == ["vector", "seed", "stab_dims"]
        q = 2_147_483_587
        r = OracleReport(parse("1,3,3,3;5"), 0, ((P, 4), (q, 3), (P, 3)))
        assert (r.samples, r.expected, r.primes, r.prime, r.stab_dim) == (3, 2, (P, q), q, 3)
        assert not r.is_dense and r.verdict_class is VerdictClass.MONTE_CARLO_SPARSE

    def test_numpy_seed_stored_as_int(self):
        r = oracle_decide(parse("1,3,3,3;5"), samples=2, seed=np.int64(1))
        assert type(r.seed) is int and r == oracle_decide(parse("1,3,3,3;5"), samples=2, seed=1)
        assert json.loads(json.dumps(cli._oracle_json(r)))["seed"] == 1

    def test_bad_args(self):
        # samples must be an int >= 1, whether or not the vector is sampled
        for text in ("1,1,1,1,2;4", "1,2^2;5", "1,2;4"):
            for samples in (0, -1, 2.5, "3", None, True):
                with pytest.raises(ValueError, match="samples"):
                    oracle_decide(parse(text), samples=samples)
        # a seed must be an int in [0, 2^64), whether or not the vector is
        # sampled: one seed keys one stream
        for text in ("1,1,1,1,2;4", "1,2,2;5"):
            for seed in (-1, 1.5, False, True, 2**64, np.int64(-1)):
                with pytest.raises(ValueError, match=re.escape(f"seed must be an int in [0, 2^64), "
                                                               f"got {seed!r}")):
                    oracle_decide(parse(text), seed=seed)
        assert oracle_decide(parse("1,2,2;5"), samples=1, seed=2**64 - 1).is_dense

    @given(small_vectors())
    @settings(max_examples=40, deadline=None)
    def test_stab_never_below_expected(self, d):
        r = oracle_decide(d, samples=2, seed=13)
        if r.stab_dim is not None:
            assert r.stab_dim >= max(r.expected, 0)

    @given(small_vectors())
    @settings(max_examples=15, deadline=None)
    def test_modular_matches_rational(self, d):
        m = oracle_decide(d, samples=1, seed=4)
        assert m.stab_dim == (min(_rational_stab_dims(d, 1, 4)) if m.samples else None)

    # the default primes at seeds 1..3, the first two distinct primes of
    # words(seed), and the one-sample stabilizer dims of the oracle-n30
    # benchmark vectors (unchanged since the stream was numpy's)
    N30_PRIMES = {1: (1290204791, 1922684923), 2: (1372562747, 1856298317),
                  3: (1862871383, 1621697251)}
    N30_STAB_DIMS = {"10^3;30": 299, "5^5;30": 274, "1^10;30": 609, "15,14;30": 450,
                     "9^3;27": 242, "7^4;28": 195, "12^2,13^2;25": 12}

    @pytest.mark.parametrize("text", list(N30_STAB_DIMS))
    def test_benchmark_answers_pinned(self, text):
        # one sample draws only the first prime
        for seed, primes in self.N30_PRIMES.items():
            r = oracle_decide(parse(text), samples=1, seed=seed)
            assert (r.primes, r.stab_dims) == (primes[:1], ((primes[0], self.N30_STAB_DIMS[text]),))

    def test_second_default_primes_pinned(self):
        # the sparse (12^2,13^2;25) runs its second sample, on the second prime
        for seed, primes in self.N30_PRIMES.items():
            r = oracle_decide(parse("12^2,13^2;25"), samples=2, seed=seed)
            assert r.primes == primes and [p for p, _ in r.stab_dims] == list(primes)


def _eager_primes(seed):
    """The default prime pair, both drawn up front from oracle_decide's stream."""
    stream = words(seed)
    first, second = random_prime(stream), random_prime(stream)
    while second == first:
        second = random_prime(stream)
    return first, second


def _rational_stab_dims(d, samples, seed):
    """The stabilizer dims over Q of samples 0 .. samples - 1 from seed."""
    return [stabilizer_nullity(sample_configuration(d, None, seed, s)) - 1 for s in range(samples)]


def _record_keys(monkeypatch):
    """The keys of every words() call the oracle makes, in order."""
    keys = []
    monkeypatch.setattr(oracle, "words", lambda *key: keys.append(key) or words(*key))
    return keys


class TestSampleCost:
    def test_default_primes_pinned(self):
        # a change here changes every oracle record
        assert [_eager_primes(s) for s in range(3)] == [
            (1992482309, 1582255861), (1290204791, 1922684923), (1372562747, 1856298317)]

    def test_one_sample_draws_one_prime_and_no_configuration_generator(self, monkeypatch):
        # (5^5;30) is a direct sum: every entry is fixed, nothing is drawn
        d, first = parse("5^5;30"), _eager_primes(3)[0]
        keys, body_runs = _record_keys(monkeypatch), []
        body = is_probable_prime.__wrapped__.__code__

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is body:
                body_runs.append(frame.f_locals["n"])

        is_probable_prime.cache_clear()
        sys.setprofile(profile)
        try:
            r = oracle_decide(d, samples=1, seed=3)
        finally:
            sys.setprofile(None)
        (p,) = r.primes
        assert r.stab_dims == ((p, d.expected_stab_dim),) and p == first
        # the only stream is the primes'; the sample draws no chart
        assert keys == [(3,)]
        # random_prime tested p, and mod_rank's guard found the answer cached
        assert body_runs.count(p) == 1 and is_probable_prime.cache_info().hits >= 1

    def test_lazy_primes_are_prefix_of_eager_pair(self):
        dense, sparse = parse("2,2,2;4"), parse("1,1,2,2;3")
        for seed in range(200):
            pair = _eager_primes(seed)
            assert oracle_decide(dense, samples=2, seed=seed).primes == pair[:1]
            assert oracle_decide(sparse, samples=1, seed=seed).primes == pair[:1]
            assert oracle_decide(sparse, samples=3, seed=seed).primes == pair

    CHARTS = {"1,3,3,3;5": [0, 3], "12^2,13^2;25": [0, 1], "5,5,5,5,13;14": [2, 3, 4]}

    @pytest.mark.parametrize("text", list(CHARTS))
    def test_sample_s_draws_entry_i_from_seed_s_i(self, monkeypatch, text):
        charts = self.CHARTS[text]
        keys = _record_keys(monkeypatch)
        for seed in (0, 7):
            keys.clear()
            r = oracle_decide(parse(text), samples=3, seed=seed)
            assert keys == [(seed,)] + [(seed, s, i) for s in range(r.samples) for i in charts]


class TestWitness:
    def test_dense_witnesses_recheck(self):
        # every dense, charted vector of enumerate_vectors(6, 6) re-checks
        # from its three ints alone
        checked = 0
        for d in enumerate_vectors(6, 6):
            r = oracle_decide(d, samples=3, seed=5)
            if not r.is_dense or len(oracle._slice(d)) == d.length:
                continue
            seed, sample, prime = r.seed, r.samples - 1, r.prime
            c = sample_configuration(d, prime, seed, sample)
            assert stabilizer_nullity(c) - 1 == r.expected
            checked += 1
        assert checked > 100


def _script_stabs(monkeypatch, stabs):
    """Make oracle_decide see these stabilizer dimensions, in order."""
    it = iter(stabs)
    monkeypatch.setattr(oracle, "stabilizer_nullity", lambda c: next(it) + 1)


class TestAnomalies:
    def test_none_on_clean_runs(self):
        assert oracle_decide(parse("2,2,2;4"), samples=3, seed=0).anomalies == ()
        assert oracle_decide(parse("5,5,5,5,13;14"), samples=10, seed=7).anomalies == ()

    def test_dense_after_higher_sample(self, monkeypatch):
        d = parse("2,2,2;4")  # expected 3
        _script_stabs(monkeypatch, [5, 3])
        r = oracle_decide(d, samples=3, seed=0)
        p, q = r.primes
        assert r.is_dense and r.samples == 2 and r.stab_dims == ((p, 5), (q, 3))
        assert (r.prime, r.stab_dim) == (q, 3)
        assert r.anomalies == (f"{d}: expected stabilizer dim 3 reached at sample 1 after "
                               f"samples with dims [5] (prime artifact?)",)

    def test_monte_carlo_minima_differ_by_prime(self, monkeypatch):
        d = parse("1,3,3,3;5")  # expected 2
        _script_stabs(monkeypatch, [4, 3, 5, 4])
        r = oracle_decide(d, samples=4, seed=0)
        p, q = r.primes
        assert not r.is_dense and r.samples == 4
        assert (r.prime, r.stab_dim) == (q, 3)
        minima = {p: 4, q: 3}
        assert r.anomalies == (f"{d}: minimal stabilizer dim differs across primes: {minima}",)

    def test_equal_minima_across_primes_clean(self, monkeypatch):
        _script_stabs(monkeypatch, [4, 3, 3, 5])
        r = oracle_decide(parse("1,3,3,3;5"), samples=4, seed=0)
        assert not r.is_dense and r.stab_dim == 3 and r.anomalies == ()


def _ix_system(c):
    """Reference for _stabilizer_system that sets the forced entries through
    np.ix_ on each coordinate block's support and its complement."""
    n = c.ambient
    forced = np.zeros((n, n), dtype=bool)
    charts = []
    for part, u in zip(c.parts, c.subspaces):
        if isinstance(part, int):
            support = np.flatnonzero(u.any(axis=1))
            outside = np.ones(n, dtype=bool)
            outside[support] = False
            forced[np.ix_(outside, support)] = True
        else:
            charts.append(u)
    kept = np.flatnonzero(~forced.ravel())
    blocks = [np.zeros((0, kept.size), dtype=np.int64)]
    for u in charts:
        a = u[u.shape[1] :]
        q = np.hstack([-a, np.eye(a.shape[0], dtype=np.int64)])
        blocks.append(np.kron(q, u.T)[:, kept])
    return np.vstack(blocks)


@st.composite
def configurations(draw):
    """A configuration over F_P with n <= 7 whose entries are, at random,
    blocks at any start (so blocks may overlap), zero charts or random charts."""
    d = draw(small_vectors(max_n=7))
    n, parts = d.ambient, []
    for di in d.dims:
        kind = draw(st.sampled_from(["block", "zero chart", "chart"]))
        if kind == "block":
            parts.append(draw(st.integers(0, n - di)))
        else:
            a = draw(arrays(np.int64, (n - di, di), elements=st.integers(-3, 3)))
            parts.append(a if kind == "chart" else 0 * a)
    return GenericConfiguration(d, tuple(parts), P)


class TestGenericConfiguration:
    def test_accepts_coordinate_block_anywhere(self):
        for start in range(4):
            c = GenericConfiguration(parse("2;5"), (start,), P)
            assert (c.subspaces[0] == np.eye(5, 2, k=-start, dtype=np.int64)).all()
        # a zero chart stays a chart, of any signed integer dtype
        chart = np.zeros((3, 2), dtype=np.int32)
        c = GenericConfiguration(parse("1,2;5"), (4, chart), None)
        assert c.parts[1] is chart and (c.subspaces[1] == np.eye(5, 2, dtype=np.int64)).all()
        assert _stabilizer_system(c).shape == (6, 25 - 4)

    def test_validates_shapes(self):
        d, chart = parse("1,2;5"), np.zeros((3, 2), dtype=np.int64)
        for parts in [(0,), (0, chart, 0), ()]:
            with pytest.raises(ValueError, match="parts for the 2 entries"):
                GenericConfiguration(d, parts, P)
        for a in (np.zeros((2, 3), dtype=np.int64), np.zeros((3, 1), dtype=np.int64),
                  np.zeros(6, dtype=np.int64), np.zeros((5, 2), dtype=np.int64)):
            with pytest.raises(ValueError, match="chart shape"):
                GenericConfiguration(d, (0, a), P)

    def test_rejects_bad_starts(self):
        # a start must be an int in [0, n - d], not a bool
        chart = np.zeros((3, 2), dtype=np.int64)
        for parts in [(5, chart), (-1, chart), (0, 4), (True, chart), (False, chart),
                      (0, 1.0), (0, None)]:
            with pytest.raises(ValueError, match="neither a chart array nor a block start"):
                GenericConfiguration(parse("1,2;5"), parts, P)

    def test_charted_samples_compare_and_hash(self):
        # by identity: the generated __eq__ would compare the chart arrays
        a, b = (sample_configuration(parse("1,3,3,3;5"), P, 1) for _ in range(2))
        assert a == a and a != b and len({a, b}) == 2

    @given(configurations())
    @settings(max_examples=300, deadline=None)
    def test_system_matches_references(self, c):
        m, ref = _stabilizer_system(c), _ix_system(c)
        assert m.shape == ref.shape and (m == ref).all()
        assert stabilizer_nullity(c) == c.ambient ** 2 - mod_rank(_full_system(c), P)


class TestNonIntegerMatrices:
    def test_float_chart_rejected(self):
        # [1; 0.5; 0] would be truncated to A = 0, nullity 5 instead of 3
        d, blocks = parse("1^3;3"), (0, 2)
        with pytest.raises(ValueError, match="integer"):
            GenericConfiguration(d, (np.array([[0.5], [0]]),) + blocks, P)
        half = np.array([[(P + 1) // 2], [0]], dtype=np.int64)  # 1/2 in F_P
        assert stabilizer_nullity(GenericConfiguration(d, (half,) + blocks, P)) == 3
        # an unsigned chart's -A wraps: -1 reads 255 over uint8
        for a in (np.zeros((2, 1), dtype=bool), np.array([[1], [0]], dtype=np.uint8)):
            with pytest.raises(ValueError, match="integer"):
                GenericConfiguration(d, (a,) + blocks, P)


class TestForcedMask:
    # the oracle-n30 benchmark vectors, then smaller ones
    @pytest.mark.parametrize("prime", [P, None])
    @pytest.mark.parametrize("text", ["10^3;30", "5^5;30", "1^10;30", "15,14;30", "9^3;27",
                                      "7^4;28", "12^2,13^2;25", "3^6,5;19", "2,3;4", "1^5,3;6"])
    def test_matches_index_construction(self, text, prime, monkeypatch):
        # the kept-column product equals kron(Q, U^T)[:, kept] without
        # forming the Kronecker product
        for seed in range(4):
            c = sample_configuration(parse(text), prime=prime, seed=seed)
            ref = _ix_system(c)
            with monkeypatch.context() as mp:
                mp.setattr(np, "kron", None)
                m = _stabilizer_system(c)
            assert m.dtype == np.int64 and m.shape == ref.shape and (m == ref).all()

    @pytest.mark.parametrize("text, parts, forced", [
        ("2,3;5", (0, 2), 12),        # disjoint blocks
        ("2,3,3;5", (0, 1, 2), 15),   # overlapping blocks force some entries twice
        ("3^3;4", (0, 1, 0), 6),      # a repeated block
        ("1^4;2", (0, 1, 1, 0), 2),   # every entry of g off the diagonal
    ])
    def test_chart_free_has_no_rows(self, text, parts, forced):
        c = GenericConfiguration(parse(text), parts, P)
        n = c.ambient
        assert _stabilizer_system(c).shape == _ix_system(c).shape == (0, n * n - forced)
        assert stabilizer_nullity(c) == n * n - forced

    @given(small_vectors(), st.sampled_from([P, None]), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_matches_index_construction_random(self, d, prime, seed):
        configurations = [sample_configuration(d, prime=prime, seed=seed)]
        if d.length > 1:
            configurations.append(_two_block_configuration(d, prime, seed))
        for c in configurations:
            m, ref = _stabilizer_system(c), _ix_system(c)
            assert m.shape == ref.shape and (m == ref).all()
