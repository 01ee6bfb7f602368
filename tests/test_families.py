from pathlib import Path

import pytest

from grassdense.core import DimensionVector, Status, parse
from grassdense.engine import Engine, Verdict
from grassdense.families import (
    FamilyRule, SizeClassification, _balanced_dense, classification_json, classify_size,
    enumerate_vectors, fibonacci_family, repeat_family,
)
from grassdense.oracle import oracle_decide

decide = Engine().decide


@pytest.fixture(scope="module")
def size5():
    return classify_size(5)


class TestFibonacciFamily:
    def test_short_tower(self):
        got = fibonacci_family(parse("1,1,1;2"), 1)
        assert [str(v) for v in got] == ["(1^3,2;3)", "(1^3,2,3;5)"]

    def test_depth_five(self):
        got = fibonacci_family(parse("1,1,1;2"), 5)
        assert str(got[-1]) == "(1^3,2,3,5,8,13,21;34)"
        assert len(got) == 6

    def test_members_have_zero_expected_stabilizer(self):
        for v in fibonacci_family(parse("1,1,1;2"), 5):
            assert v.expected_stab_dim == 0

    def test_members_dense(self):
        for v in fibonacci_family(parse("1,1,1;2"), 4):
            assert decide(v).status is Status.DENSE

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            fibonacci_family(parse("1,1;3"), 2)  # b + a_t = 4 > sum(a) = 2
        with pytest.raises(ValueError):
            fibonacci_family(parse("1,1,1;2"), -1)


class TestRepeatFamily:
    def test_tower(self):
        got = repeat_family(parse("1,1,1,2;3"), 4)
        assert [str(v) for v in got] == [
            "(1^3,2;3)", "(1^3,2^2;5)", "(1^3,2^3;7)", "(1^3,2^4;9)"]

    def test_k1_is_base(self):
        assert repeat_family(parse("1,1,1,2;3"), 1) == [parse("1,1,1,2;3")]

    def test_members_dense_zero_stab(self):
        for v in repeat_family(parse("1,1,1,2;3"), 4):
            assert v.expected_stab_dim == 0
            assert decide(v).status is Status.DENSE

    def test_rejects_base_without_excess_entry(self):
        with pytest.raises(ValueError):
            repeat_family(parse("1,1;3"), 2)  # excess -1
        with pytest.raises(ValueError):
            repeat_family(parse("1,1,1,1,2;3"), 2)  # excess 3 not an entry


class TestEnumerate:
    def test_count_and_order(self):
        vs = list(enumerate_vectors(3, 3, 2))
        assert len(vs) == 12
        assert vs[0] == parse("1;2")
        assert vs[-1] == parse("2,2,2;3")
        keys = [(v.ambient, v.length, v.dims) for v in vs]
        assert keys == sorted(keys)

    def test_max_size_respected(self):
        assert all(v.size <= 2 for v in enumerate_vectors(6, 3, 2))

    def test_default_size_is_full(self):
        assert parse("5;6") in list(enumerate_vectors(6, 1))

    def test_empty_ranges(self):
        assert list(enumerate_vectors(1, 3)) == []
        assert list(enumerate_vectors(4, 0)) == []


class TestClassifySize:
    def test_size1(self):
        c = classify_size(1)
        assert c.families == () and c.exceptional_dense == ()
        assert c.is_dense(parse("1,1,1;2"))       # r = n+1
        assert not c.is_dense(DimensionVector((1,) * 4, 2))

    def test_size2_frozen(self):
        c = classify_size(2)
        assert [str(p) for p in c.families[0].dense_profiles] == \
            ["(1;2)", "(1^2;2)", "(1^3;2)"]
        assert [str(v) for v in c.exceptional_dense] == \
            ["(2^3;3)", "(1,2^3;3)", "(2^4;3)", "(1,2^3;4)", "(2^4;5)"]

    def test_size3_tail_frozen(self):
        c = classify_size(3)
        assert [str(v) for v in c.exceptional_dense] == [
            "(2,3^2;4)", "(3^3;4)", "(1,2,3^2;4)", "(1,3^3;4)", "(2^3,3;4)",
            "(2^2,3^2;4)", "(2,3^3;4)", "(3^4;4)", "(1,3^4;4)", "(3^5;4)",
            "(3^3;5)", "(1,2,3^2;5)", "(2^3,3;5)", "(2,3^3;5)", "(3^4;5)",
            "(1,3^3;6)", "(2^2,3^2;6)", "(2,3^3;6)",
            "(2,3^3;7)", "(3^4;7)",
            "(3^4;8)", "(1,3^4;9)", "(3^5;11)",
        ]

    def test_tail_invariants(self):
        for l in (2, 3):
            c = classify_size(l)
            for v in c.exceptional_dense:
                assert v.size == l
                assert v.excess >= l + 1
                assert v.expected_stab_dim >= 0

    def test_tail_members_certified_dense(self):
        for v in classify_size(3).exceptional_dense:
            r = oracle_decide(v, samples=2, seed=31)
            assert r.is_dense, str(v)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_predicate_matches_engine(self, size):
        c = classify_size(size)
        for v in enumerate_vectors(9, 8, size):
            if v.size != size:
                continue
            assert c.is_dense(v) == (decide(v).status is Status.DENSE), str(v)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_never_reaches_oracle(self, size, monkeypatch):
        # classify has no oracle fallback: every verdict it takes outside the
        # window check carries an engine certificate, and the goldens hold
        real = Engine.decide

        def certified(self, d):
            verdict = real(self, d)
            assert verdict.certificate is not None, f"{d}: no engine certificate"
            return verdict
        monkeypatch.setattr(Engine, "decide", certified)
        c = classify_size(size)
        golden = Path(__file__).resolve().parent.parent / "golden"
        assert classification_json(c) == (golden / f"size{size}_classification.json").read_text()
        assert c.to_text() == (golden / f"size{size}_classification.txt").read_text()

    def test_size5_tail_drops_refuted_member(self, size5):
        # the oracle refutes it (stab 3, expected 1); the window check does
        # not apply, and the engine finds it sparse
        assert parse("(1^3,3,5^2;10)") not in size5.exceptional_dense

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the width-2 window check calls it dense (ROADMAP item 2)")
    @pytest.mark.parametrize("text", ["(3,5^5;6)", "(3,5^5;22)"])
    def test_size5_tail_refuted_by_oracle(self, size5, text):
        assert parse(text) not in size5.exceptional_dense

    def test_is_dense_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            classify_size(2).is_dense(parse("1,3;5"))

    def test_supported_range(self):
        for size in (0, 6, True, 2.0, "3", None):
            with pytest.raises(ValueError, match="sizes 1..5"):
                classify_size(size)

    def test_engine_unknown_is_an_error(self, monkeypatch):
        # no oracle fallback: a candidate the engine leaves Unknown stops classify
        stuck = parse("(1,2,4^2;5)")  # engine-dense, outside the window check
        real = Engine.decide
        monkeypatch.setattr(Engine, "decide", lambda self, d: Verdict()
                            if d == stuck else real(self, d))
        with pytest.raises(RuntimeError, match=r"\(1,2,4\^2;5\)"):
            classify_size(4)

    def test_json_and_text_render(self):
        c = classify_size(2)
        j = c.to_json_dict()
        assert j["size"] == 2
        assert j["exceptional_dense"][0] == {"dims": [2, 2, 2], "n": 3, "text": "(2^3;3)"}
        assert "(2^4;5)" in c.to_text()


# Every vector the width-2 window check answers wrongly with n <= 8 and
# length <= 9, against oracle_decide(samples=2, seed=29): all called dense.
BALANCED_WRONG = [
    "(1^5,3;6)", "(3,5^5;6)", "(1^4,2,3;7)", "(4,5,6^4;7)", "(1^6,3;7)", "(4,6^6;7)",
    "(1^4,3^2;8)", "(5^2,7^4;8)", "(1^5,2,3;8)", "(5,6,7^5;8)",
]


class TestBalancedCheck:
    def test_requires_window(self):
        assert _balanced_dense(parse("1,1,4,4;6")) is None

    @pytest.mark.parametrize("text", [
        "2,2,2,2;4",                # dimension count
        "1,1,2,2;3", "2,2,3,3;5",   # length 4, total 2n
        "1,1,2,2,3;6", "1,1,2,2,3,3;9", "1,1,2,2,3,3,3;12",  # (1^2,2^2,3^c;3c+3)
        "1,1,1,3,3;4", "1,1,1,1,3;5", "1,1,1,3,3;5",         # sporadic
    ])
    def test_sparse_cases(self, text):
        assert _balanced_dense(parse(text)) is False

    def test_dense_cases(self):
        for text in ("2,3,3;7", "1,1,2;5", "2,2,3,3;6", "3,3,4,4,5;14"):
            assert _balanced_dense(parse(text)) is True

    def test_errors_pinned_exhaustively(self):
        answered, wrong = 0, []
        for d in enumerate_vectors(8, 9):
            dense = _balanced_dense(d)
            if dense is None:
                continue
            answered += 1
            if dense != oracle_decide(d, samples=2, seed=29).is_dense:
                wrong.append((str(d), dense))
        assert answered == 2808
        assert wrong == [(text, True) for text in BALANCED_WRONG]


class TestFamilyRule:
    def test_vacuous_profile_is_dense(self):
        rule = FamilyRule(excess=3, dense_profiles=())
        assert rule.admits(parse("3,3,3,3,3;12"))  # no entries < 3

    def test_profile_lookup(self):
        rule = FamilyRule(excess=2, dense_profiles=(parse("1;2"),))
        assert rule.admits(parse("1,2,2;5"))       # profile (1;2)
        assert not rule.admits(parse("1,1,2;4"))   # profile (1^2;2) not listed
