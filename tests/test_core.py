import dataclasses

import pytest
from hypothesis import given, strategies as st

from grassdense import core
from grassdense.core import (
    AmbientMismatchError, DimensionVector, MalformedVectorError, Status,
    VacuousVectorError, VectorParseError, normalize, parse,
)
from grassdense.engine import Engine, Verdict


def vectors(max_n=12, max_len=8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(1, n - 1), min_size=1, max_size=max_len)
        .map(lambda dims: DimensionVector(tuple(dims), n)))


class TestConstruction:
    def test_sorts_dims(self):
        assert DimensionVector((3, 1, 2), 5).dims == (1, 2, 3)

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(MalformedVectorError):
            DimensionVector((0, 1), 3)
        with pytest.raises(MalformedVectorError):
            DimensionVector((3,), 3)
        with pytest.raises(MalformedVectorError):
            DimensionVector((), 3)

    def test_rejects_tiny_ambient(self):
        with pytest.raises(MalformedVectorError):
            DimensionVector((1,), 1)

    def test_normalize_drops_zero_and_full(self):
        assert normalize([0, 1, 3, 2], 3).dims == (1, 2)

    def test_normalize_vacuous(self):
        with pytest.raises(VacuousVectorError):
            normalize([0, 3, 3], 3)

    def test_normalize_rejects_overfull(self):
        with pytest.raises(MalformedVectorError):
            normalize([4], 3)

    def test_rejects_bools(self):
        # True == 1 and False == 0, but (True,2;3) would print as a vector
        # that parse rejects
        for dims, n in [((True, 2), 3), ((1, False), 3), ((1, 2), True), ((2,), 3.0)]:
            with pytest.raises(MalformedVectorError):
                DimensionVector(dims, n)
        for raw, n in [([True, 2], 3), ([False, 2], 3), ([1], True), ([2.0], 3)]:
            with pytest.raises(MalformedVectorError):
                normalize(raw, n)

    def test_rejects_unsortable_entries(self):
        # types are checked before sorting, which would raise TypeError
        for dims in [(1, "a"), (1, None), None]:
            with pytest.raises(MalformedVectorError):
                DimensionVector(dims, 5)


class TestParseFormat:
    @pytest.mark.parametrize("text,dims,n", [
        ("1,2,2;5", (1, 2, 2), 5),
        ("(1^2,2^3;7)", (1, 1, 2, 2, 2), 7),
        ("1^3, 2; 3", (1, 1, 1, 2), 3),
        ("5,5,5,5,13;14", (5, 5, 5, 5, 13), 14),
    ])
    def test_parse(self, text, dims, n):
        v = parse(text)
        assert (v.dims, v.ambient) == (dims, n)

    # int() takes a sign, underscores and non-ASCII digits, and \d the last,
    # so the last six inputs need numerals checked as ASCII ("1;5_0" is no (1;50))
    @pytest.mark.parametrize("text", ["", "1,2", "1;2;3", "a;3", "1^;3", "(1,2;5", "^2;3",
                                      "1;5_0", "1,2;+5", "١,٢;٥", "1,2;٥", "١,2;5", "1^٢;3"])
    def test_parse_errors(self, text):
        with pytest.raises(VectorParseError):
            parse(text)

    def test_entry_ceiling_counts_exponents(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_ENTRIES", 5)
        assert parse("(0,1^3,3;3)").dims == (1, 1, 1)  # dropped entries count too
        for text in ("(1^6;3)", "(1^3,2^3;4)", "1,1,1,1,1,1;3"):
            with pytest.raises(VectorParseError, match="more than 5 entries"):
                parse(text)

    def test_format_exponential(self):
        assert str(DimensionVector((1, 1, 2, 2, 2), 7)) == "(1^2,2^3;7)"
        assert str(DimensionVector((3,), 5)) == "(3;5)"

    @given(vectors())
    def test_parse_roundtrip(self, v):
        assert parse(str(v)) == v


class TestInvariants:
    def test_frozen_dimension_counts(self):
        v = parse("1,2,2;5")
        assert v.orbit_space_dim == 1 * 4 + 2 * 3 + 2 * 3  # 16
        assert v.expected_stab_dim == 24 - 16  # 8
        v2 = parse("2,2,2;4")
        assert (v2.orbit_space_dim, v2.expected_stab_dim) == (12, 3)
        v3 = parse("5,5,5,5,13;14")
        assert (v3.orbit_space_dim, v3.expected_stab_dim) == (193, 2)

    def test_trivially_sparse(self):
        assert parse("1,1,1,1,2;4").is_trivially_sparse
        assert not parse("1,1,2,2;3").is_trivially_sparse  # boundary: expected 0
        assert not parse("2,2,2;4").is_trivially_sparse

    def test_length_size_total_excess(self):
        v = parse("(1^2,2^3;7)")
        assert (v.length, v.size, v.total, v.excess) == (5, 2, 8, 1)

    def test_complement(self):
        assert parse("1,2,2;5").complement() == parse("3,3,4;5")
        assert parse("1,1,2;4").complement() == parse("2,3,3;4")

    @given(vectors())
    def test_complement_involution(self, v):
        assert v.complement().complement() == v

    @given(vectors())
    def test_complement_preserves_orbit_space_dim(self, v):
        c = v.complement()
        assert c.orbit_space_dim == v.orbit_space_dim
        assert c.is_trivially_sparse == v.is_trivially_sparse

    @given(vectors())
    def test_canonical_idempotent_and_two_valued(self, v):
        r = v.canonical()
        assert r.canonical() == r
        assert r in (v, v.complement())
        assert v.complement().canonical() == r

    def test_canonical_picks_lex_min(self):
        assert parse("2,3,3;4").canonical() == parse("1,1,2;4")
        assert parse("1,1,2;4").canonical() == parse("1,1,2;4")


class TestDominates:
    def test_basic(self):
        big, small = parse("1,1,1,4,4;5"), parse("1,1,4,4;5")
        assert big.dominates(small)
        assert not small.dominates(big)
        assert small.dominates(small)

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            parse("1,2;5").dominates(parse("1,2;4"))

    @given(vectors(max_n=8, max_len=5), vectors(max_n=8, max_len=5))
    def test_partial_order(self, a, b):
        if a.ambient != b.ambient:
            return
        if a.dominates(b) and b.dominates(a):
            assert a == b

    @given(vectors(max_n=8, max_len=4))
    def test_extension_dominates(self, v):
        bigger = DimensionVector(v.dims + (v.dims[0],), v.ambient)
        assert bigger.dominates(v)


class TestVerdict:
    def test_status_is_the_certificates(self):
        assert [f.name for f in dataclasses.fields(Verdict)] == ["certificate"]
        assert Verdict().status is Status.UNKNOWN
        for text in ("1,2,2;5", "1,1,2,2;3"):
            c = Engine().decide(parse(text)).certificate
            assert Verdict(c).status is c.status
