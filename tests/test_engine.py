import dataclasses
import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from grassdense.core import DimensionVector, Status, parse
from grassdense.engine import (
    DOMINATION_AMBIENT_CAP, Certificate, Engine, MalformedCertificateError, verify_certificate,
)
from grassdense.families import classify_size, enumerate_vectors
from grassdense.oracle import VerdictClass, oracle_decide
from grassdense import rules as R
from grassdense.rules import RewriteStep

from certutils import mutants

decide = Engine().decide

# vector -> verdict, frozen from oracle runs
FROZEN = {
    "1,1,2,2;3": "Sparse",
    "2,3,3;4": "Dense",
    "2,2,2;4": "Dense",
    "1,1,1,1,3;4": "Dense",
    "1,1,1,3,3;4": "Sparse",
    "2,2,3,3;4": "Dense",
    "3,3,3,3,3;4": "Dense",
    "1,1,1,4,4;5": "Sparse",
    "1,3,3,3;5": "Sparse",
    "2,3,3,3;5": "Dense",
    "1,1,2,3,4;6": "Sparse",
    "1,1,3,3,4;6": "Sparse",
    "3,3,3,3;7": "Dense",
    "1,1,1,2,3,5,8;13": "Dense",
    "5,5,5,5,13;14": "Sparse",
    "1,1,2,2,3,3,3;12": "Sparse",
}


def vectors(max_n=8, max_len=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(st.integers(1, n - 1), min_size=1, max_size=max_len)
        .map(lambda dims: DimensionVector(tuple(dims), n)))


class TestDecide:
    @pytest.mark.parametrize("text,want", sorted(FROZEN.items()))
    def test_frozen_verdicts(self, text, want):
        v = decide(parse(text))
        assert v.status.value == want

    def test_every_verdict_carries_checkable_certificate(self):
        eng = Engine()
        for text in FROZEN:
            v = eng.decide(parse(text))
            assert v.certificate is not None
            assert v.certificate.root == parse(text)
            assert verify_certificate(v.certificate)

    def test_trivially_sparse_leaf(self):
        v = decide(parse("1,1,1,1,2;4"))
        assert v.status is Status.SPARSE
        assert v.certificate.steps[-1].rule_id == R.TRIVIALLY_SPARSE

    def test_complement_prefix(self):
        v = decide(parse("2,3,3;4"))
        steps = v.certificate.steps
        assert steps[0].rule_id == R.COMPLEMENT
        assert steps[0].outputs == (parse("1,1,2;4"),)

    def test_memo_reuse(self):
        eng = Engine()
        a = eng.decide(parse("1,1,2,2,3;6"))
        nodes_first = eng.last_nodes
        b = eng.decide(parse("1,1,2,2,3;6"))
        assert a.status == b.status and eng.last_nodes == 0 < nodes_first

    def test_sparse_if_step_ignores_dense_child(self):
        # the oracle finds this vector sparse; merging groups of its entries
        # (a SparseIf rewrite) gives only Dense vectors, so a loop that let
        # such a step settle on a Dense child would call it Dense
        assert decide(parse("(3,8,12^2,18;22)")).status is not Status.DENSE

    def test_dead_end_is_unknown(self, monkeypatch):
        eng = Engine()
        monkeypatch.setattr(R, "REDUCTION_RULES", {})
        assert eng.decide(parse("1,1,1,1,5;6")).status is Status.UNKNOWN
        # a form where no rule fires stores no steps: the next call walks again
        monkeypatch.undo()
        assert eng.decide(parse("1,1,1,1,5;6")).status is Status.DENSE

    def test_cycle_is_unknown(self, monkeypatch):
        # a reduction that leads back to the form it started from
        monkeypatch.setattr(R, "REDUCTION_RULES", {R.L3: lambda v: [R.rule_complement(v)]})
        eng = Engine()
        d = parse("1,1,1,1,5;6")
        assert eng.decide(d).status is Status.UNKNOWN
        # the memo keeps the step that fired, and a walk through it meets the cycle again
        assert eng.memo == {d: (R.rule_complement(d),)}
        assert eng.decide(d).status is Status.UNKNOWN

    def test_domination_of_dense_seed_never_certifies_dense(self):
        # a fake seed that is dense: whatever the walk answers, it never emits
        # a Dense certificate through the SparseIf step
        seed = parse("1,1,5;6")
        eng = Engine()
        eng._seed_cache[6] = (seed,)
        assert R.rule_domination_sparse(parse("1,1,1,1,5;6"), {seed})
        assert eng.decide(parse("1,1,1,1,5;6")).status is Status.UNKNOWN
        for d in enumerate_vectors(6, 6):
            if d.ambient == 6:
                cert = eng.decide(d).certificate
                if cert is not None:
                    assert verify_certificate(cert), str(d)
                    assert cert.status is Status.SPARSE or all(
                        s.direction != R.SPARSE_IF for s in cert.steps), str(d)

    def test_batch_order_independence(self):
        batch = [parse(t) for t in FROZEN]
        fwd = Engine()
        rev = Engine()
        a = [fwd.decide(d).status for d in batch]
        b = list(reversed([rev.decide(d).status for d in reversed(batch)]))
        assert a == b

    @given(vectors())
    @settings(max_examples=60, deadline=None)
    def test_decide_agrees_with_oracle(self, d):
        v = decide(d)
        if v.status is not Status.UNKNOWN:
            assert v.status.value == ("Dense" if oracle_decide(d, samples=2, seed=23).is_dense
                                      else "Sparse")

    @given(vectors())
    @settings(max_examples=40, deadline=None)
    def test_certificates_always_verify(self, d):
        v = decide(d)
        if v.certificate is not None:
            assert verify_certificate(v.certificate)

    @given(vectors())
    @settings(max_examples=40, deadline=None)
    def test_complement_same_verdict(self, d):
        assert decide(d).status == decide(d.complement()).status


def test_no_dead_ends():
    # every reduction step of a settled vector leads to a vector settled the
    # same way, so the walk's first step is as good as any later one
    eng = Engine()
    vecs = [v for v in enumerate_vectors(8, 9)
            if v == v.canonical() and not v.is_trivially_sparse]
    assert len(vecs) == 953
    wrong, checked = [], 0
    for d in vecs:
        status = eng.decide(d).status
        if status is Status.UNKNOWN:
            continue
        for side in (d, d.complement()):
            for rule in R.REDUCTION_RULES.values():
                for s in rule(side):
                    checked += 1
                    got = s.settles or eng.decide(s.outputs[0]).status
                    if got is not status:
                        wrong.append(f"{s.rule_id} {side} -> {s.outputs}: {got.value}")
    assert checked == 3046
    assert not wrong, f"{len(wrong)} wrong, e.g. {wrong[:3]}"


def test_history_independent():
    # a warm engine's memo must not change a status a fresh engine reaches
    vecs = [v for v in enumerate_vectors(7, 6)
            if v == v.canonical() and not v.is_trivially_sparse]
    assert len(vecs) == 439
    random.Random(3).shuffle(vecs)
    warm = Engine()
    diffs = [str(v) for v in vecs if warm.decide(v).status is not Engine().decide(v).status]
    assert diffs == []


# Vectors the oracle refutes but the width-2 window check calls dense:
# (vector, stabilizer dimension found, expected stabilizer dimension).
BALANCED_REFUTED = [
    ("(3,5^5;22)", 3, 1),
    ("(3^6,5;19)", 5, 2),
    ("(3^6,5^2;24)", 10, 7),
    ("(3^6,4,5;23)", 5, 2),
]


class TestBalancedTripwire:
    @pytest.mark.parametrize("text,stab,expected", BALANCED_REFUTED)
    def test_oracle_refutes(self, text, stab, expected):
        r = oracle_decide(parse(text), samples=2, seed=5)
        assert r.verdict_class is VerdictClass.MONTE_CARLO_SPARSE
        assert (r.stab_dim, r.expected) == (stab, expected)

    @pytest.mark.parametrize("text", [text for text, _, _ in BALANCED_REFUTED])
    def test_decide_sparse(self, text):
        assert decide(parse(text)).status is Status.SPARSE


# Vectors the oracle refutes that decide calls Sparse; the width-2 window
# check calls the first two dense (tests/test_families.py pins its errors).
CLASSIFY_ENGINE_REFUTED = [
    ("(1^5,3;6)", 3, 1),
    ("(1^4,2,3;7)", 3, 2),
    ("(1^3,3,5^2;10)", 3, 1),
]


class TestClassifyEngineBalanced:
    @pytest.mark.parametrize("text,stab,expected", CLASSIFY_ENGINE_REFUTED)
    def test_decide_sparse_and_oracle_refutes_dense(self, text, stab, expected):
        assert decide(parse(text)).status is Status.SPARSE
        r = oracle_decide(parse(text), samples=2, seed=5)
        assert r.verdict_class is VerdictClass.MONTE_CARLO_SPARSE
        assert (r.stab_dim, r.expected) == (stab, expected)


GOLDEN = Path(__file__).resolve().parent.parent / "golden"


class TestVerdictTable:
    # oracle verdicts (3 samples, seed 1) on every canonical, not trivially
    # sparse vector with n <= 10 and length <= 8; golden/verdicts_n10.py
    # writes the table
    TABLE = [tuple(line.split()) for line in
             (GOLDEN / "verdicts_n10.txt").read_text().splitlines()]

    def test_table_covers_every_vector(self):
        want = [str(v) for v in enumerate_vectors(10, 8)
                if v == v.canonical() and not v.is_trivially_sparse]
        assert [text for text, _ in self.TABLE] == want and len(want) == 3492

    def test_engine_matches_every_line(self):
        eng = Engine()
        wrong = [(text, want, status.value) for text, want in self.TABLE
                 if (status := eng.decide(parse(text)).status).value != want]
        assert wrong == []

    def test_sample_rederived_by_oracle(self):
        # the table is the oracle's, not the engine's
        sample = self.TABLE[::70]
        assert len(sample) == 50
        for text, want in sample:
            dense = oracle_decide(parse(text), samples=3, seed=1).is_dense
            assert ("Dense" if dense else "Sparse") == want, text


def _golden_module(name):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCertificateTable:
    # the engine's certificate on every canonical, not trivially sparse
    # vector with n <= 8 and length <= 7; golden/certificates_n8.py writes
    # the table and formats its lines
    table = _golden_module("certificates_n8")
    LINES = (GOLDEN / "certificates_n8.txt").read_text().splitlines(keepends=True)

    def test_table_covers_every_vector(self):
        vecs = self.table.vectors()
        assert len(vecs) == len(self.LINES) == 930
        assert [line.split()[0] for line in self.LINES] == [str(v) for v in vecs]

    @pytest.mark.parametrize("fresh", [False, True], ids=["warm", "fresh"])
    def test_engine_rederives_every_line(self, fresh):
        warm = Engine()
        wrong = []
        for v, want in zip(self.table.vectors(), self.LINES):
            verdict = (Engine() if fresh else warm).decide(v)
            if self.table.line(v, verdict) != want or not verify_certificate(verdict.certificate):
                wrong.append(str(v))
        assert wrong == []


def _max_submultisets(n):
    """The most sub-multisets, prod(m_a + 1), of a vector in ambient n that
    passes the dimension count sum m_a a(n - a) <= n^2 - 1: a knapsack over
    multiplicities, best product per total cost."""
    best = {0: 1}
    for a in range(1, n):
        cost, grown = a * (n - a), {}
        for spent, prod in best.items():
            for m in range((n * n - 1 - spent) // cost + 1):
                key = spent + m * cost
                grown[key] = max(grown.get(key, 0), prod * (m + 1))
        best = grown
    return max(best.values())


def test_domination_never_fires(monkeypatch):
    # The only sparse seeds beyond the dimension count come from SubseqTwoN,
    # and a subset of a seed (or of its complement) is a subset of every
    # vector dominating it (or of that vector's complement), so SubseqTwoN
    # settles such a vector before domination is tried: in decide and in
    # classify_size, whose engine is the same.  SubseqTwoN's scan finds that
    # subset, as no vector with a seed store passes the dimension count with
    # more sub-multisets than the cap allows (the proof is in
    # rule_domination_sparse's docstring).
    bounds = [_max_submultisets(n) for n in range(2, DOMINATION_AMBIENT_CAP + 1)]
    assert max(bounds) == 144 <= 2**R.SUBSET_ENUM_CAP
    # past n = 28 the cap can hide a witness (no store is built there)
    assert (_max_submultisets(28), _max_submultisets(29)) == (3600, 4320)
    steps = []
    real = R.rule_domination_sparse

    def spy(d, known_sparse):
        steps.append(real(d, known_sparse))
        return steps[-1]

    monkeypatch.setattr(R, "rule_domination_sparse", spy)
    eng = Engine()
    for v in enumerate_vectors(8, 9):
        eng.decide(v)
    for size in range(1, 6):
        classify_size(size)
    assert steps and not any(steps)


def test_short_classification_derived_without_length4(monkeypatch):
    # Length4 is a base fact the reductions can derive: with it unregistered,
    # every canonical, not trivially sparse vector of length <= 4 with
    # n <= 14 gets Length4's verdict, with a certificate that verifies.  The
    # seed store is left empty: a seed has at least 4 entries (SubseqTwoN's
    # witness), and domination needs a strict sub-multiset, so it cannot
    # fire at length <= 4, and building the stores would take most of the time
    monkeypatch.setattr(R, "BASE_RULES",
                        {k: f for k, f in R.BASE_RULES.items() if k != R.LENGTH4})
    monkeypatch.setattr(Engine, "_domination_seeds", lambda self, n: ())
    eng = Engine()
    vecs = [v for v in enumerate_vectors(14, 4)
            if v == v.canonical() and not v.is_trivially_sparse]
    assert len(vecs) == 4382
    wrong = []
    for d in vecs:
        cert = eng.decide(d).certificate
        want = Status.SPARSE if d.length == 4 and d.total == 2 * d.ambient else Status.DENSE
        if cert is None or cert.status is not want or not verify_certificate(cert):
            wrong.append(str(d))
    assert wrong == []
    # but the derivation can cost a step per ambient dimension: L8 walks
    # (k-1,k^3;2k) down one ambient at a time, so Length4 stays
    for k in (10, 50):
        eng = Engine()
        d = DimensionVector((k - 1, k, k, k), 2 * k)
        first = eng.decide(d)
        assert first.status is Status.DENSE
        assert eng.last_nodes == 2 * k - 1
    # at k = 50 the memo keeps each walked form's first steps, and a warm walk takes them all
    assert len(eng.memo) == 2 * k - 1
    for form, steps in eng.memo.items():
        assert isinstance(steps, tuple) and 1 <= len(steps) <= 2
        assert all(isinstance(s, RewriteStep) for s in steps) and steps[0].input == form
    assert eng.decide(d).certificate == first.certificate and eng.last_nodes == 0


def test_length4_settles_long_chain_in_one_step():
    eng = Engine()
    k = 2000
    cert = eng.decide(DimensionVector((k - 1, k, k, k), 2 * k)).certificate
    assert [s.rule_id for s in cert.steps] == [R.LENGTH4]
    assert eng.last_nodes == 1 and len(eng.memo) == 1


class TestVerifyCertificate:
    def _cert(self, text):
        return Engine().decide(parse(text)).certificate

    def test_accepts_engine_output(self):
        for text in FROZEN:
            assert verify_certificate(self._cert(text))

    def test_rejects_all_mutants(self):
        pool = [self._cert(t) for t in
                ("1,1,2,2;3", "2,3,3;4", "1,1,1,4,4;5", "1,1,2,3,4;6",
                 "1,1,1,2,3,5,8;13", "1,3,3,3;5")]
        count = rejected = 0
        for cert in pool:
            for m in mutants(cert):
                count += 1
                try:
                    ok = verify_certificate(m)
                except MalformedCertificateError:
                    rejected += 1
                    continue
                if not ok:
                    rejected += 1
                else:
                    pytest.fail(f"mutant accepted: {m}")
        assert rejected == count >= 50

    def test_malformed_distinct_from_failed(self):
        cert = self._cert("1,1,2,2;3")
        with pytest.raises(MalformedCertificateError):
            verify_certificate(Certificate(cert.root, cert.status, ()))
        with pytest.raises(MalformedCertificateError):
            verify_certificate(Certificate(cert.root, Status.UNKNOWN, cert.steps))
        # polarity flip is a failed check, not malformed
        flipped = Certificate(cert.root,
                              Status.DENSE if cert.status is Status.SPARSE else Status.SPARSE,
                              cert.steps)
        assert verify_certificate(flipped) is False
        # a step whose output is no vector is malformed, even in a chain that links
        v = parse("1,1,2,2;3")
        steps = (RewriteStep(R.DOMINATION, R.SPARSE_IF, (("side", "self"),), v, ("x",)),
                 RewriteStep(R.TRIVIALLY_SPARSE, R.BASE_SPARSE, (), "x", ()))
        with pytest.raises(MalformedCertificateError):
            verify_certificate(Certificate(v, Status.SPARSE, steps))

    def test_domination_across_ambients_fails(self):
        # a vector cannot dominate one of another ambient: the step does not
        # re-fire, so the check fails rather than raising AmbientMismatchError
        v, w = parse("(1^7;3)"), parse("(1^9;4)")
        steps = (RewriteStep(R.DOMINATION, R.SPARSE_IF, (("side", "self"),), v, (w,)),
                 *R.rule_trivially_sparse(w))
        assert verify_certificate(Certificate(v, Status.SPARSE, steps)) is False

    def test_non_string_fields_and_bad_params_malformed(self):
        # unchecked, dict(params) and the rule-id lookup raise ValueError or TypeError
        cert = self._cert("1,1,2,2;3")
        leaf = cert.steps[-1]
        for bad in (dataclasses.replace(leaf, params=("x",)), dataclasses.replace(leaf, params=(1,)),
                    dataclasses.replace(leaf, params=[("vacuous", True)]),
                    dataclasses.replace(leaf, params=((1, 2),)),
                    dataclasses.replace(leaf, rule_id=[leaf.rule_id]),
                    dataclasses.replace(leaf, direction=[leaf.direction])):
            with pytest.raises(MalformedCertificateError):
                verify_certificate(Certificate(cert.root, cert.status, cert.steps[:-1] + (bad,)))

    def test_domination_step_refires_through_its_rule(self):
        # a step that dominates its output but that rule_domination_sparse
        # does not emit, here with an extra param, fails
        v, w = parse("(1^3,4^2;5)"), parse("(1^2,4^2;5)")
        steps = (*R.rule_domination_sparse(v, {w}), *R.rule_subseq_2n(w))
        assert verify_certificate(Certificate(v, Status.SPARSE, steps))
        junk = dataclasses.replace(steps[0], params=steps[0].params + (("junk", 7),))
        assert verify_certificate(Certificate(v, Status.SPARSE, (junk, steps[1]))) is False

    def test_forged_iff_leaf_fails(self):
        # an Iff leaf settles Dense, so one no rule made must fail to re-fire
        d = parse("1,1,2,2;3")
        for params in ((), (("vacuous", True),)):
            step = RewriteStep(R.L3, R.IFF, params, d, ())
            assert verify_certificate(Certificate(d, Status.DENSE, (step,))) is False

    def test_refire_reads_live_registry(self, monkeypatch):
        cert = self._cert("2,2,2;4")
        assert [s.rule_id for s in cert.steps] == [R.LENGTH4] and verify_certificate(cert)
        monkeypatch.setattr(R, "BASE_RULES",
                            {k: f for k, f in R.BASE_RULES.items() if k != R.LENGTH4})
        assert verify_certificate(cert) is False

    def test_rejects_non_certificate(self):
        with pytest.raises(MalformedCertificateError):
            verify_certificate("not a certificate")

    def test_cross_engine_verification(self):
        # certificates verify without access to the engine that made them
        cert = Engine().decide(parse("1,1,1,2,3,5;8")).certificate
        assert verify_certificate(cert)

    @pytest.mark.parametrize("text", ["(1^5,3;6)", "(1^4,2,3;7)", "(1^3,3,5^2;10)",
                                      "(3,5^5;6)"])
    def test_rejects_balanced_step(self, text):
        # the oracle refutes these Balanced dense steps, so no certificate may
        # name Balanced: it is no registered rule
        d = parse(text)
        step = RewriteStep("Balanced", R.BASE_DENSE, (("reason", "not-trivially-sparse"),), d, ())
        with pytest.raises(MalformedCertificateError, match="unknown rule_id"):
            verify_certificate(Certificate(d, Status.DENSE, (step,)))


class TestKnownFamilies:
    def test_balanced_square_pairs_sparse(self):
        # ((k-1)^2, k^2; 2k-1) for k = 2..7
        for k in range(2, 8):
            d = DimensionVector((k - 1, k - 1, k, k), 2 * k - 1)
            assert decide(d).status is Status.SPARSE

    @pytest.mark.parametrize("n", range(13, 31))
    def test_long_point_forms(self, n):
        # long vectors with few distinct entries: every certificate must
        # re-fire, however the walk reaches it
        cases = [((1,) * n, True), ((1,) * (n + 1), True),
                 ((1,) * n + (n - 1,), True), ((1,) * (n + 2), False)]
        for dims, dense in cases:
            d = DimensionVector(dims, n)
            for v in (d, d.complement()):
                verdict = decide(v)
                assert verdict.status is (Status.DENSE if dense else Status.SPARSE), str(v)
                assert verify_certificate(verdict.certificate), str(v)

    def test_long_vector_settled_by_subset(self):
        # length 13 but only 48 sub-multisets; (1^4,11,13) sums to 2n = 28
        # (the oracle agrees: stab 30, expected 6)
        v = decide(parse("(1^11,11,13;14)"))
        assert v.status is Status.SPARSE and verify_certificate(v.certificate)

    def test_staircase_family_sparse(self):
        # (1^2, 2^2, 3^c; 3c+3) for c = 0..3
        for c in range(4):
            d = DimensionVector((1, 1, 2, 2) + (3,) * c, 3 * c + 3)
            assert decide(d).status is Status.SPARSE
