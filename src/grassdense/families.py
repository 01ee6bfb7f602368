"""Structured families of dimension vectors and size-based classification.

fibonacci_family / repeat_family build the two standard towers of dense
vectors with zero-dimensional expected stabilizer; enumerate_vectors walks
the vector lattice in graded order; classify_size computes, for a fixed
maximal entry l, the full description of the dense locus: infinite families
given by small-entry profiles plus a finite exceptional tail.  It asks
_balanced_dense, the unsound width-2 window check its goldens were built
with, before a plain Engine; nothing else in the package uses that check.
Every other verdict it uses is the engine's, with a certificate: it never
calls the oracle, and a candidate the engine leaves Unknown is an error.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import DimensionVector, Status, VacuousVectorError, normalize, parse
from .engine import Engine
from .rules import rule_span_intersect


def fibonacci_family(base: DimensionVector, k: int) -> list[DimensionVector]:
    """Tower d_0, ..., d_k obtained from base (a_1,...,a_r; b) by repeatedly
    appending the span dimension: with n = sum(a_i),

        d_0 = (a_1,...,a_r, b; n)
        d_j = d_{j-1} + entry F_j n + F_{j-1} b, ambient F_{j+1} n + F_j b

    (F_0, F_1, F_2, ... = 0, 1, 1, 2, 3, 5, ...).  Requires b + a_t <= n for
    every t, which makes every member dense with expected stabilizer 0.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a = base.dims
    b = base.ambient
    n = base.total
    if any(b + at > n for at in a):
        raise ValueError(f"base {base} violates b + a_t <= sum(a): not a tower seed")
    members = [DimensionVector(a + (b,), n)]
    f_prev, f_cur = 0, 1  # F_0, F_1
    entries = list(a) + [b]
    for _ in range(k):
        entries.append(f_cur * n + f_prev * b)
        f_prev, f_cur = f_cur, f_prev + f_cur
        members.append(DimensionVector(tuple(entries), f_cur * n + f_prev * b))
    return members


def repeat_family(base: DimensionVector, k: int) -> list[DimensionVector]:
    """Tower d_1, ..., d_k from base (a_1,...,a_r, b; n) with sum(a_i) = n:
    d_j repeats the excess entry b j times in ambient n + (j-1) b.  d_1 is
    the base itself."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = base.ambient
    b = base.total - n
    if b < 1 or b not in base.dims:
        raise ValueError(f"base {base} has no entry equal to its excess {b}")
    a = list(base.dims)
    a.remove(b)
    members = []
    for j in range(1, k + 1):
        members.append(DimensionVector(tuple(a + [b] * j), n + (j - 1) * b))
    return members


def enumerate_vectors(max_n: int, max_len: int,
                      max_size: Optional[int] = None) -> Iterator[DimensionVector]:
    """All normalized vectors with ambient <= max_n and length <= max_len in
    graded lexicographic order: by ambient, then length, then entries."""
    for n in range(2, max_n + 1):
        top = n - 1 if max_size is None else min(max_size, n - 1)
        for length in range(1, max_len + 1):
            for dims in itertools.combinations_with_replacement(range(1, top + 1), length):
                yield DimensionVector(dims, n)


# ---------------------------------------------------------------------------
# classification by maximal entry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyRule:
    """Dense vectors of size l with excess e (2 <= e <= l) are exactly those
    whose profile of entries < e, re-read in ambient e, lies in
    dense_profiles (a vacuous profile counts as dense)."""

    excess: int
    dense_profiles: tuple[DimensionVector, ...]

    def admits(self, d: DimensionVector) -> bool:
        try:
            profile = normalize([a for a in d.dims if a < self.excess], self.excess)
        except VacuousVectorError:
            return True
        return profile in self.dense_profiles


@dataclass(frozen=True)
class SizeClassification:
    """Complete description of the dense vectors of a given size: dense iff
    excess <= 1, or the matching FamilyRule admits the vector, or the vector
    is in the finite exceptional tail (excess >= size+1)."""

    size: int
    families: tuple[FamilyRule, ...]
    exceptional_dense: tuple[DimensionVector, ...]
    search_bound_used: str

    def is_dense(self, d: DimensionVector) -> bool:
        if d.size != self.size:
            raise ValueError(f"{d} has size {d.size}, classification is for {self.size}")
        e = d.excess
        if e <= 1:
            return True
        for fam in self.families:
            if fam.excess == e:
                return fam.admits(d)
        return d in set(self.exceptional_dense)

    def to_json_dict(self) -> dict:
        return {
            "size": self.size,
            "families": [
                {"excess": f.excess,
                 "dense_profiles": [{"dims": list(p.dims), "n": p.ambient, "text": str(p)}
                                    for p in f.dense_profiles]}
                for f in self.families
            ],
            "exceptional_dense": [{"dims": list(v.dims), "n": v.ambient, "text": str(v)}
                                  for v in self.exceptional_dense],
            "search_bound_used": self.search_bound_used,
        }

    def to_text(self) -> str:
        lines = [f"size {self.size}: dense vectors", ""]
        lines.append("  * total <= n+1: always dense")
        for f in self.families:
            profs = ", ".join(str(p) for p in f.dense_profiles)
            lines.append(f"  * total = n+{f.excess}: dense iff the profile of entries"
                         f" < {f.excess} (in ambient {f.excess}) is vacuous or one of:"
                         f" {profs}")
        tail = ", ".join(str(v) for v in self.exceptional_dense)
        lines.append(f"  * finite exceptional tail (excess >= {self.size + 1}): {tail or 'none'}")
        lines.append("")
        lines.append(f"  search bound: {self.search_bound_used}")
        return "\n".join(lines) + "\n"


def _excess_candidates(l: int) -> Iterator[DimensionVector]:
    """Vectors of size l that could be dense with excess >= l+1.

    For ambient n with l < n < 2l every size-l vector of length <= n+1 is a
    candidate (longer ones are trivially sparse).  For n >= 2l density with
    total = n+k+1 forces sum over entries of (k+1-i)*i*e_i <= k(k+2), and
    k >= 2l is impossible, leaving a finite search box for each k in [l, 2l).
    """
    for n in range(l + 1, 2 * l):
        for length in range(1, n + 2):
            for dims in itertools.combinations_with_replacement(range(1, l + 1), length):
                if dims[-1] != l:
                    continue
                d = DimensionVector(dims, n)
                if d.excess >= l + 1:
                    yield d
    for k in range(l, 2 * l):
        budget = k * (k + 2)
        ranges = [range(0, budget // ((k + 1 - i) * i) + 1) for i in range(1, l + 1)]
        for counts in itertools.product(*ranges):
            if counts[l - 1] == 0:
                continue
            if sum((k + 1 - i) * i * e for i, e in enumerate(counts, 1)) > budget:
                continue
            total = sum(i * e for i, e in enumerate(counts, 1))
            n = total - (k + 1)
            if n < 2 * l:
                continue
            dims = tuple(itertools.chain.from_iterable(
                [i] * e for i, e in enumerate(counts, 1)))
            yield DimensionVector(dims, n)


_WINDOW_SPORADIC = frozenset(
    parse(s).canonical() for s in ("(1^3,3^2;4)", "(1^4,3;5)", "(1^3,3^2;5)"))


def _balanced_dense(d: DimensionVector) -> Optional[bool]:
    """The hand-coded width-2 window verdict the goldens were built with.
    None unless the entries span a window of width <= 2 (max - min <= 2, a
    complement-invariant condition).  Sparse (False) for the dimension
    count, for length 4 with total 2n, and when closing under the
    span-intersect reduction (L9) and complements reaches a sporadic vector
    or a (1^2,2^2,3^c;3c+3); dense (True) otherwise.

    Unsound: the oracle refutes some of its dense answers, e.g. (1^5,3;6)
    and (3^6,5;19).  So it is no rule, and no certificate can name it."""
    if d.size - d.dims[0] > 2:
        return None
    if d.is_trivially_sparse or (d.length == 4 and d.total == 2 * d.ambient):
        return False
    seen: set[DimensionVector] = set()
    stack = [d.canonical()]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        if v in _WINDOW_SPORADIC:
            return False
        for w in (v, v.complement()):
            m = Counter(w.dims)
            if m[1] == m[2] == 2 and w.length == 4 + m[3] and w.ambient == 3 * m[3] + 3:
                return False
            for step in rule_span_intersect(w):
                stack.extend(out.canonical() for out in step.outputs)
    return True


def classify_size(l: int) -> SizeClassification:
    """Classify the dense vectors of size l (maximal entry l), for l <= 5.

    The infinite part is organized by excess: excess <= 1 is always dense;
    excess e in [2, l] reduces to the profile of entries < e in ambient e,
    so each such e contributes the finite set of dense profiles.  Dense
    vectors with excess >= l+1 form a finite tail, found by exhausting the
    search region described in search_bound_used.  Raises RuntimeError
    naming the candidate if the engine leaves one Unknown.
    """
    if type(l) is not int or not 1 <= l <= 5:
        raise ValueError(f"classification supported for sizes 1..5, got {l!r}")
    # the width-2 window check first, as the goldens were built; then the
    # engine, whose every verdict carries a certificate
    eng = Engine()

    def is_dense(d: DimensionVector) -> bool:
        balanced = _balanced_dense(d)
        if balanced is not None:
            return balanced
        status = eng.decide(d).status
        if status is Status.UNKNOWN:
            raise RuntimeError(f"size {l} candidate {d}: the engine leaves it Unknown")
        return status is Status.DENSE

    families = []
    for e in range(2, l + 1):
        profiles = []
        for length in range(1, e + 2):  # longer profiles are trivially sparse
            for dims in itertools.combinations_with_replacement(range(1, e), length):
                p = DimensionVector(dims, e)
                if is_dense(p):
                    profiles.append(p)
        families.append(FamilyRule(e, tuple(profiles)))

    tail = sorted(
        {d for d in _excess_candidates(l) if is_dense(d)},
        key=lambda v: (v.ambient, v.length, v.dims))
    bound = (f"direct sweep for ambient in ({l},{2*l}) up to length n+1; "
             f"for ambient >= {2*l} and total = n+k+1, k in [{l},{2*l}), "
             f"exhausted sum((k+1-i)*i*e_i) <= k(k+2)")
    return SizeClassification(l, tuple(families), tuple(tail), bound)


def classification_json(c: SizeClassification) -> str:
    return json.dumps(c.to_json_dict(), indent=2, sort_keys=True) + "\n"
