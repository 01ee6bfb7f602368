import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from grassdense.core import DimensionVector, Status, parse
from grassdense.families import enumerate_vectors
from grassdense.oracle import oracle_decide
from grassdense import rules as R


def vectors(max_n=8, max_len=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(1, n - 1), min_size=1, max_size=max_len)
        .map(lambda dims: DimensionVector(tuple(dims), n)))


def _dense(d, samples=2, seed=17):
    return oracle_decide(d, samples=samples, seed=seed).is_dense


# 6 * 5 * 4 * 3 * 3 * 2 * 2 = 4320 sub-multisets, just over 2**SUBSET_ENUM_CAP;
# every subset rule fires on it once the cap is raised
OVER_CAP = parse("(1^5,2^4,3^3,4^2,5^2,48,49;50)")


@given(vectors(max_n=8, max_len=7), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_submultisets_match_combinations(d, min_size):
    got = list(R._submultisets(d.dims, min_size))
    want = {c for r in range(min_size, d.length + 1)
            for c in itertools.combinations(d.dims, r)}
    assert len(got) == len(set(got)) and set(got) == want


class TestSettles:
    def test_leaf_by_direction(self):
        d = parse("1,2;3")
        want = {R.BASE_DENSE: Status.DENSE, R.IFF: Status.DENSE,
                R.BASE_SPARSE: Status.SPARSE, R.SPARSE_IF: None}
        for direction, status in want.items():
            assert R.RewriteStep(R.L3, direction, (), d, ()).settles is status

    def test_edge_settles_nothing(self):
        d = parse("1,1,2;4")
        for s in R.rule_restrict_to_span(d) + [R.rule_complement(d)]:
            assert s.outputs and s.settles is None

    def test_base_rules_settle(self):
        [dense] = R.rule_length4(parse("2,3,3;4"))
        [sparse] = R.rule_subseq_2n(parse("1,1,2,2;3"))
        assert (dense.settles, sparse.settles) == (Status.DENSE, Status.SPARSE)


class TestTriviallySparse:
    def test_fires_with_expected_dim(self):
        d = parse("1,1,1,1,2;4")
        [s] = R.rule_trivially_sparse(d)
        assert s.direction == R.BASE_SPARSE and not s.outputs
        assert s.params_dict() == {"expected": d.expected_stab_dim} and d.expected_stab_dim < 0

    def test_searched_first(self):
        assert next(iter(R.BASE_RULES)) == R.TRIVIALLY_SPARSE


def test_base_rule_registry():
    # Balanced is no rule: classify_size applies its window check itself
    assert list(R.BASE_RULES) == [R.TRIVIALLY_SPARSE, R.LENGTH4, R.SUBSEQ_2N]
    assert "Balanced" not in R.RULE_IDS


class TestLength4:
    def test_dense_short(self):
        [s] = R.rule_length4(parse("2,3,3;4"))
        assert s.direction == R.BASE_DENSE

    def test_sparse_2n(self):
        # the length-4 total-2n case is SubseqTwoN's whole-vector case
        for text in ("1,1,2,2;3", "6,6,7,7;13"):
            d = parse(text)
            assert R.rule_length4(d) == []
            [s] = R.rule_subseq_2n(d)
            assert s.params_dict() == {"side": "self", "subset": d.dims}

    def test_length4_non_2n_dense(self):
        [s] = R.rule_length4(parse("1,1,2,3;4"))
        assert s.direction == R.BASE_DENSE

    def test_no_fire_long(self):
        assert R.rule_length4(parse("1,1,1,1,1;3")) == []


class TestSubseqTwoN:
    def test_fires_on_self(self):
        [s] = R.rule_subseq_2n(parse("1,1,3,3,4;6"))
        assert s.direction == R.BASE_SPARSE
        assert sum(s.params_dict()["subset"]) == 12
        assert len(s.params_dict()["subset"]) >= 4

    def test_excess_block_witness(self):
        [s] = R.rule_subseq_2n(parse("5,5,5,5,13;14"))
        assert s.params_dict() == {"side": "self", "subset": (5, 5, 5, 13)}

    def test_fires_on_complement(self):
        # (2,3,3,5,5;6) has no 4-subset summing to 12, but its complement
        # (1,1,3,3,4;6) sums to 12 outright
        [s] = R.rule_subseq_2n(parse("2,3,3,5,5;6"))
        assert s.params_dict()["side"] == "complement"
        assert sum(s.params_dict()["subset"]) == 12

    def test_three_entry_subsets_excluded(self):
        # (2,3,3;4) sums to 2n over 3 entries but is dense
        assert R.rule_subseq_2n(parse("2,3,3;4")) == []
        assert R.rule_subseq_2n(parse("1,1,2,3,4;6")) == []

    def test_cap(self, monkeypatch):
        assert R.rule_subseq_2n(OVER_CAP) == []
        monkeypatch.setattr(R, "SUBSET_ENUM_CAP", 13)
        assert R.rule_subseq_2n(OVER_CAP)

    def test_bitset_not_run_past_cap_or_on_huge_ambient(self, monkeypatch):
        # past the cap the scan yields nothing, and at 2n > 2**SUBSET_ENUM_CAP
        # the bitset's ints would grow with n: the side is scanned outright
        def no_bitset(dims, target):
            raise AssertionError("the sum bitset ran")
        monkeypatch.setattr(R, "_sums_to_with_four", no_bitset)
        assert R.rule_subseq_2n(OVER_CAP) == []
        n = 10**12
        [s] = R.rule_subseq_2n(parse(f"(1^3,{n - 1}^2;{n})"))
        assert s.params_dict() == {"side": "self", "subset": (1, 1, n - 1, n - 1)}
        assert R.rule_subseq_2n(parse("(1,1,2,3,4095;4096)")) == []

    @given(vectors())
    @settings(max_examples=60, deadline=None)
    def test_witness_is_valid(self, d):
        for s in R.rule_subseq_2n(d):
            p = s.params_dict()
            side = d if p["side"] == "self" else d.complement()
            assert sum(p["subset"]) == 2 * d.ambient and len(p["subset"]) >= 4
            from collections import Counter
            assert not Counter(p["subset"]) - Counter(side.dims)

    @staticmethod
    def _scan_both_sides(d):
        """The rule before its sum bitset: scan each side that reaches 2n."""
        target = 2 * d.ambient
        for side, v in (("self", d), ("complement", d.complement())):
            if v.total < target:
                continue
            for sub in R._submultisets(v.dims, min_size=4):
                if sum(sub) == target:
                    return [R._step(R.SUBSEQ_2N, R.BASE_SPARSE, d, (), side=side, subset=sub)]
        return []

    @staticmethod
    def _sweep(seed, count, max_len):
        rng = random.Random(seed)
        vecs = list(enumerate_vectors(8, 9))
        for _ in range(count):
            n = rng.randint(9, 60)
            vecs.append(DimensionVector(
                tuple(rng.randint(1, n - 1) for _ in range(rng.randint(2, max_len))), n))
        return vecs

    def test_bitset_matches_scan(self):
        # lengths up to 14 reach past the cap (2**13 sub-multisets and more)
        vecs = self._sweep(34, 4000, 14) + [OVER_CAP]
        assert sum(R.rule_subseq_2n(d) != [] for d in vecs) > 1000
        for d in vecs:
            assert R.rule_subseq_2n(d) == self._scan_both_sides(d), d

    def test_bitset_is_existence(self):
        # called directly the bitset has no cap: it sees OVER_CAP's witnesses,
        # which the scan cannot
        def exists(dims, target):
            return any(sum(c) == target for r in range(4, len(dims) + 1)
                       for c in itertools.combinations(dims, r))

        vecs = self._sweep(35, 1500, 11) + [OVER_CAP]
        hits = 0
        for d in vecs:
            for v in (d, d.complement()):
                got = R._sums_to_with_four(v.dims, 2 * d.ambient)
                assert got == exists(v.dims, 2 * d.ambient), v
                hits += got
        assert hits > 1000 and R._sums_to_with_four(OVER_CAP.dims, 100)


class TestDomination:
    def test_strict(self):
        [s] = R.rule_domination_sparse(parse("1,1,1,4,4;5"), {parse("1,1,4,4;5")})
        assert s.direction == R.SPARSE_IF
        assert s.outputs == (parse("1,1,4,4;5"),)
        assert s.params_dict() == {"side": "self"}

    def test_self_match(self):
        # a vector is no strict sub-multiset of itself or of its complement
        assert R.rule_domination_sparse(parse("1,1,2,2;3"), {parse("1,1,2,2;3")}) == []
        assert R.rule_domination_sparse(parse("1,1,3;4"), {parse("1,3,3;4")}) == []

    def test_complement_side(self):
        # (1,3^4;5) has no entry 2; its complement (2^4,4;5) dominates the
        # length-4 sparse vector (2^3,4;5)
        [s] = R.rule_domination_sparse(parse("1,3,3,3,3;5"), {parse("2,2,2,4;5")})
        assert s.params_dict() == {"side": "complement"}
        assert s.outputs == (parse("2,2,2,4;5"),)

    def test_no_match(self):
        assert R.rule_domination_sparse(parse("1,2;5"), {parse("1,1,4,4;5")}) == []


class TestRestrictSpan:  # L3
    def test_tower_step(self):
        steps = R.rule_restrict_to_span(parse("1,1,1,1,1,4;6"))
        outs = [str(s.outputs[0]) for s in steps if s.outputs]
        assert "(1^5,3;5)" in outs

    def test_vacuous_both_splits(self):
        steps = R.rule_restrict_to_span(parse("1,2;3"))
        assert steps and all(not s.outputs for s in steps)

    def test_params_frozen(self):
        steps = R.rule_restrict_to_span(parse("1,1,2;4"))
        got = {(s.params_dict()["kept"], str(s.outputs[0])) for s in steps}
        assert got == {((1, 2), "(1,2;3)"), ((1, 1), "(1^2;2)")}

    def test_cap(self, monkeypatch):
        assert R.rule_restrict_to_span(OVER_CAP) == []
        monkeypatch.setattr(R, "SUBSET_ENUM_CAP", 13)
        assert R.rule_restrict_to_span(OVER_CAP)

    @staticmethod
    def _by_definition(d):
        """The docstring's split taken literally: B is what A leaves, and
        sum(n - b for b in B) <= sum(A) is checked term by term."""
        n, steps = d.ambient, []
        for sub in R._submultisets(d.dims):
            sa = sum(sub)
            rest = R._remove(d.dims, sub) if sa < n else ()
            if rest and sum(n - b for b in rest) <= sa:
                k = n - sa
                steps.append(R._iff_step(R.L3, d, list(sub) + [b - k for b in rest], sa,
                                         kept=sub, k=k))
        return steps

    def test_closed_form_matches_definition(self):
        rng = random.Random(33)
        vecs = list(enumerate_vectors(8, 9))
        for _ in range(3000):
            n = rng.randint(9, 60)
            vecs.append(DimensionVector(
                tuple(rng.randint(1, n - 1) for _ in range(rng.randint(2, 9))), n))
        for d in vecs:
            assert R.rule_restrict_to_span(d) == self._by_definition(d), d

    def test_early_exit_enumerates_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("sub-multisets enumerated")

        monkeypatch.setattr(R, "_submultisets", refuse)
        # least = 6 - 43 // 25 = 5 entries, and 1+2+6+8+10 = 27 >= 25
        assert R.rule_restrict_to_span(parse("(1,2,6,8,10,16;25)")) == []
        with pytest.raises(RuntimeError, match="enumerated"):
            R.rule_restrict_to_span(parse("(1,1,2;4)"))  # A = (1,2) qualifies


class TestComplementaryPair:  # L8
    def test_example(self):
        steps = R.rule_complementary_pair(parse("1,1,1,2,3;5"))
        assert [(str(s.outputs[0]), s.params_dict()["pair"], s.params_dict()["k"])
                for s in steps] == [("(1^4;3)", (2, 3), 2)]

    def test_k_bound(self):
        assert R.rule_complementary_pair(parse("1,2,3;5")) == []  # k=4 > 2


class TestSpanIntersect:  # L9
    def test_example(self):
        steps = R.rule_span_intersect(parse("1,1,2,2,3;6"))
        assert steps[0].outputs == (parse("1,1,2,2;3"),)
        p = steps[0].params_dict()
        assert (p["k"], p["m"]) == (1, 3)

    def test_oversized_leftover_skipped(self):
        # pair (1,1) in (1,1,4;5): k=1, m=1 but leftover 4 > m
        assert all(s.params_dict()["pair"] != (1, 1)
                   for s in R.rule_span_intersect(parse("1,1,4;5")))


class TestIntersectionSwap:  # L10
    def test_example(self):
        steps = R.rule_intersection_swap(parse("2,3,3;4"))
        assert [str(s.outputs[0]) for s in steps] == ["(1^2,2;4)"]

    def test_never_identity(self):
        for text in ("2,3,3;4", "3,3,3,3,3;4", "2,2,2;3"):
            for s in R.rule_intersection_swap(parse(text)):
                assert s.outputs[0] != parse(text)

    def test_cap(self, monkeypatch):
        assert R.rule_intersection_swap(OVER_CAP) == []
        monkeypatch.setattr(R, "SUBSET_ENUM_CAP", 13)
        assert R.rule_intersection_swap(OVER_CAP)


class TestExcessCollapse:  # ExcessL1
    def test_example(self):
        steps = R.rule_excess(parse("1,2,2,3;6"))
        assert [str(s.outputs[0]) for s in steps] == ["(1;2)"]
        assert steps[0].params_dict()["l"] == 1

    def test_no_fire_when_l_reaches_size(self):
        assert R.rule_excess(parse("2,2,3,3;5")) == []  # excess 5: l = 4 >= size 3

    def test_drops_all_large_entries_vacuously(self):
        # (2,3;4): excess 1 -> l = 0, an empty profile
        [s] = R.rule_excess(parse("2,3;4"))
        assert not s.outputs and s.params_dict() == {"ambient": 1, "l": 0, "vacuous": True}

    @pytest.mark.parametrize("text", ["1,1,2;4", "1;5", "1,1,1,1,1;5"])
    def test_total_at_most_n_plus_1_is_vacuous(self, text):
        # excess <= 1: the l = 0 step, whatever the excess below 1
        [s] = R.rule_excess(parse(text))
        assert not s.outputs and s.params_dict()["l"] == 0


class TestIffRulesSoundness:
    """Every registered reduction must be Iff (the engine settles on any
    decided child) and preserve density (checked against the oracle);
    vacuous rewrites must come from dense inputs."""

    @given(vectors(max_n=7, max_len=5))
    @settings(max_examples=40, deadline=None)
    def test_density_preserved(self, d):
        for rule in R.REDUCTION_RULES.values():
            for s in rule(d):
                assert s.input == d and s.direction == R.IFF, (s.rule_id, str(d))
                if not s.outputs:
                    # the wire format keeps why an Iff leaf settles
                    assert s.params_dict()["vacuous"] is True
                    assert _dense(d), f"vacuous {s.rule_id} on non-dense {d}"
                else:
                    assert _dense(d) == _dense(s.outputs[0]), (s.rule_id, str(d))

    @given(vectors(max_n=8, max_len=5))
    @settings(max_examples=50, deadline=None)
    def test_rules_deterministic(self, d):
        for rule in R.REDUCTION_RULES.values():
            assert rule(d) == rule(d)


@functools.lru_cache(maxsize=None)
def _sweep_report(d):
    return oracle_decide(d, samples=2, seed=29)


def _sweep_dense(d):
    return _sweep_report(d).is_dense


@pytest.mark.parametrize("rule_id", list(R.BASE_RULES))
def test_base_rule_agrees_with_oracle_in_isolation(rule_id):
    # each base rule on its own, so search order cannot hide a wrong rule
    # behind a right one
    wrong = []
    for d in enumerate_vectors(8, 9):
        for s in R.BASE_RULES[rule_id](d):
            if (s.direction == R.BASE_DENSE) != _sweep_dense(d):
                wrong.append(f"{d}: {s.direction}")
    assert not wrong, f"{len(wrong)} wrong, e.g. {wrong[:3]}"


def test_reduction_rule_agrees_with_oracle_in_isolation():
    # every step of every reduction rule on its own: a vacuous step needs a
    # dense input, and any other step must keep density
    wrong = []
    for d in enumerate_vectors(8, 9):
        for rule in R.REDUCTION_RULES.values():
            for s in rule(d):
                if not s.outputs:
                    ok = _sweep_dense(d)
                else:
                    ok = _sweep_dense(d) == _sweep_dense(s.outputs[0])
                if not ok:
                    wrong.append(f"{s.rule_id} {d} -> {s.outputs}")
    assert not wrong, f"{len(wrong)} wrong, e.g. {wrong[:3]}"


def test_reduction_rule_preserves_moduli_in_isolation():
    # the number of moduli, stab_dim - expected, on the isolation sweep's own
    # steps: a wrong reduction from one sparse vector to another keeps the
    # density bit but not, in general, the moduli
    wrong, checked = [], 0
    for d in enumerate_vectors(8, 9):
        if d.is_trivially_sparse:
            continue
        for rule in R.REDUCTION_RULES.values():
            for s in rule(d):
                if not s.outputs or s.outputs[0].is_trivially_sparse:
                    continue
                checked += 1
                a, b = _sweep_report(d), _sweep_report(s.outputs[0])
                if a.stab_dim - a.expected != b.stab_dim - b.expected:
                    wrong.append(f"{s.rule_id} {d} -> {s.outputs}")
    assert checked == 2252
    assert not wrong, f"{len(wrong)} wrong, e.g. {wrong[:3]}"
