"""Rewrite rules on dimension vectors.

Each rule is a pure function from a DimensionVector to a list of rewrite
steps, empty when it does not fire.  A step settles the vector outright
(BaseDense / BaseSparse) or relates it to smaller vectors:

    Iff       input dense  <=>  output dense   (every reduction rule)
    SparseIf  output sparse =>  input sparse   (Domination only)

The rule_id strings are the stable wire format used in certificate JSON; the
short L* names are opaque labels for the reduction rules.  BASE_RULES and
REDUCTION_RULES, at the end, are the rule registry: dict order is the
engine's rule order, every registered rule is called as fn(v), and
verify_certificate re-fires registered rules only.  The width-2 window check
of classify_size is not a rule: the oracle refutes some of its verdicts, so
no certificate can name it.  A base rule returns at most one step, its first
witness; a reduction returns every step it finds, repeats included: the
engine walks only the first, and the isolation sweeps check them all.
The subset rules enumerate sub-multisets only up to SUBSET_ENUM_CAP;
within it, SubseqTwoN first asks a sum bitset whether a witness exists, and
scans for the first one only if so.

A step with no outputs is a leaf, and RewriteStep.settles names the verdict
it proves: Dense for BaseDense and for Iff, Sparse for BaseSparse.  An Iff
leaf comes from a rewrite all of whose entries drop during normalization
(the configuration degenerates to a point, which is dense); its params say
``vacuous=True`` so a trace shows why it settles.  The excess collapse at
l = 0 is always vacuous, so it is how a total of at most n+1 is proved dense.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import DimensionVector, Status, VacuousVectorError, normalize

# rule_id wire strings
L3 = "L3"
SUBSEQ_2N = "SubseqTwoN"
L8 = "L8"
L9 = "L9"
L10 = "L10"
LENGTH4 = "Length4"
EXCESS_L1 = "ExcessL1"
DOMINATION = "Domination"
COMPLEMENT = "Complement"
TRIVIALLY_SPARSE = "TriviallySparse"

# directions
IFF = "Iff"
SPARSE_IF = "SparseIf"
BASE_DENSE = "BaseDense"
BASE_SPARSE = "BaseSparse"
_LEAF_STATUS = {BASE_DENSE: Status.DENSE, IFF: Status.DENSE, BASE_SPARSE: Status.SPARSE}

# Subset enumeration is exhaustive up to 2**SUBSET_ENUM_CAP sub-multisets
# (the count for 12 distinct entries); with more, _submultisets yields none
# and the subset rules return nothing (Unknown rather than hanging).
SUBSET_ENUM_CAP = 12


@dataclass(frozen=True)
class RewriteStep:
    """One rule application.  params is a sorted tuple of (name, value) pairs
    so steps stay hashable; values are ints, strings or int tuples."""

    rule_id: str
    direction: str
    params: tuple[tuple[str, object], ...]
    input: DimensionVector
    outputs: tuple[DimensionVector, ...]

    def params_dict(self) -> dict:
        return dict(self.params)

    @property
    def settles(self) -> Optional[Status]:
        """The verdict a leaf (a step with no outputs) proves; else None."""
        return None if self.outputs else _LEAF_STATUS.get(self.direction)


def _step(rule_id: str, direction: str, d: DimensionVector,
          outputs: tuple[DimensionVector, ...], **params) -> RewriteStep:
    return RewriteStep(rule_id, direction, tuple(sorted(params.items())), d, outputs)


def _over_cap(dims: tuple[int, ...]) -> bool:
    """Whether dims has more than 2**SUBSET_ENUM_CAP sub-multisets, that is
    prod(m + 1) over its multiplicities m; at most 2**len(dims) of them."""
    return (len(dims) > SUBSET_ENUM_CAP
            and math.prod(m + 1 for m in Counter(dims).values()) > 2**SUBSET_ENUM_CAP)


def _submultisets(dims: tuple[int, ...], min_size: int = 1) -> Iterator[tuple[int, ...]]:
    """All distinct sub-multisets with at least min_size entries, as sorted
    tuples, in a deterministic order (not by size); none past the cap."""
    if _over_cap(dims):
        return
    counts = sorted(Counter(dims).items())
    blocks = [[(v,) * t for t in range(m + 1)] for v, m in counts]
    for parts in itertools.product(*blocks):
        sub = sum(parts, ())
        if len(sub) >= min_size:
            yield sub


def _remove(dims: tuple[int, ...], sub: tuple[int, ...]) -> tuple[int, ...]:
    left = Counter(dims)
    left.subtract(Counter(sub))
    return tuple(sorted(left.elements()))


def _pair_splits(d: DimensionVector) -> Iterator[tuple[int, int, tuple[int, ...], int]]:
    """Splits of d into a distinct unordered entry pair b1 <= b2 and the
    rest, where the rest sums to n - k with 0 < k <= b1 (so it is nonempty),
    as (b1, b2, rest, k)."""
    counts = Counter(d.dims)
    values = sorted(counts)
    excess = d.excess
    for i, b1 in enumerate(values):
        for b2 in values[i:]:
            k = b1 + b2 - excess
            if (b1 < b2 or counts[b1] >= 2) and 0 < k <= b1:
                yield b1, b2, _remove(d.dims, (b1, b2)), k


# ---------------------------------------------------------------------------
# base rules (settle the vector outright)
# ---------------------------------------------------------------------------

def rule_trivially_sparse(d: DimensionVector) -> list[RewriteStep]:
    """The dimension count: a product of Grassmannians of dimension greater
    than dim PGL(n) (expected stabilizer dimension < 0) has no dense orbit."""
    expected = d.expected_stab_dim
    if expected >= 0:
        return []
    return [_step(TRIVIALLY_SPARSE, BASE_SPARSE, d, (), expected=expected)]


def rule_length4(d: DimensionVector) -> list[RewriteStep]:
    """Vectors of length <= 4 are classified completely: sparse exactly for
    length 4 with total dimension 2n (the whole-vector case of
    rule_subseq_2n, left to it), dense otherwise.  The reductions derive the
    same verdicts, but not in a bounded number of steps: L8 walks
    (k-1,k^3;2k) down one ambient dimension at a time."""
    if d.length > 4 or (d.length == 4 and d.total == 2 * d.ambient):
        return []
    return [_step(LENGTH4, BASE_DENSE, d, (), length=d.length, total=d.total)]


def _sums_to_with_four(dims: tuple[int, ...], target: int) -> bool:
    """Whether some sub-multiset of at least 4 entries sums to target.

    A sum bitset per entry count: bit s of r_k is set iff k of the entries
    seen so far sum to s, where r_4 stands for "4 or more".  Each entry a
    shifts every r_{k-1} into r_k (r_4 also into itself), highest k first so
    an entry is used once; bits above target are dropped."""
    mask = (2 << target) - 1
    r1 = r2 = r3 = r4 = 0
    for a in dims:
        r4 = (r4 | ((r4 | r3) << a)) & mask
        r3 = (r3 | (r2 << a)) & mask
        r2 = (r2 | (r1 << a)) & mask
        r1 |= 1 << a  # its stray bits above target are masked out of r2
    return bool(r4 >> target & 1)


def rule_subseq_2n(d: DimensionVector) -> list[RewriteStep]:
    """A sub-multiset of at least 4 entries summing to exactly 2n (in d or
    its complement) forces sparsity: split it into four nonempty parts of
    size <= n-1, merge to a length-4 vector of total 2n, and dominate.  A
    length-4 vector of total 2n is the whole-vector case.

    Three-entry subsets are NOT sufficient ((2,3,3;4) sums to 2n yet is
    dense), hence the >= 4 guard.

    A side past the cap is skipped, as the scan would yield nothing.  Within
    it, _sums_to_with_four says first whether a witness exists, so a side
    without one is not scanned.  Its ints have 2n+1 bits, so it runs only
    while 2n <= 2**SUBSET_ENUM_CAP; past that the side is scanned outright,
    over at most 2**SUBSET_ENUM_CAP sub-multisets, whatever n is.
    """
    target = 2 * d.ambient
    for side, dims in (("self", d.dims), ("complement", d.complement().dims)):
        if sum(dims) < target or _over_cap(dims):
            continue
        if target <= 2**SUBSET_ENUM_CAP and not _sums_to_with_four(dims, target):
            continue
        for sub in _submultisets(dims, min_size=4):
            if sum(sub) == target:
                return [_step(SUBSEQ_2N, BASE_SPARSE, d, (), side=side, subset=sub)]
    return []


def rule_domination_sparse(d: DimensionVector,
                           known_sparse: frozenset[DimensionVector] | set[DimensionVector],
                           ) -> list[RewriteStep]:
    """d (or its complement) strictly dominating a known sparse vector makes
    d sparse: the extra subspaces only impose further conditions.  The step
    points at the dominated vector so the certificate chain can continue
    into its own sparseness proof.

    Only a strict sub-multiset w != v counts: the engine asks about a
    canonical form only after its base rules left it unsettled, and each
    base rule fires on v iff it fires on v^c (the dimension count, the
    length-4 total-2n test and SubseqTwoN's two-sided scan are all invariant
    under complement), so neither the form nor its complement is a seed.

    In the engine the rule never fires.  A seed w (ambient n <= 12, the
    engine's DOMINATION_AMBIENT_CAP) is proved sparse by SubseqTwoN, since
    Length4 proves only density and the dimension count is excluded: some S
    of at least 4 entries summing to 2n lies in w or in w^c.  If d or d^c
    dominates w, then S lies in d or in d^c, since v dominating w means v^c
    dominates w^c.  The engine asks here only after the dimension count and
    SubseqTwoN left d unsettled, so d passes the dimension count, and
    SubseqTwoN's scan missed S only if d has more than
    2**SUBSET_ENUM_CAP = 4096 sub-multisets (d^c has as many).  Their number
    is prod(m_a + 1) over d's entry multiplicities m_a.  Maximised subject to
    sum m_a a(n - a) <= n^2 - 1, it is at most 144 for n <= 12
    ((1^3,2^2,3,10,11^2;12) attains it), so the scan is exhaustive and
    SubseqTwoN settles d first.  test_domination_never_fires computes that
    bound."""
    candidates = sorted(known_sparse, key=lambda v: (v.length, v.total, v.dims))
    for side, v in (("self", d), ("complement", d.complement())):
        for w in candidates:
            if w != v and w.ambient == v.ambient and v.dominates(w):
                return [_step(DOMINATION, SPARSE_IF, d, (w,), side=side)]
    return []


# ---------------------------------------------------------------------------
# reduction rules
# ---------------------------------------------------------------------------

def _iff_step(rule_id: str, d: DimensionVector, entries: list[int], ambient: int,
              **params) -> RewriteStep:
    try:
        out = normalize(entries, ambient)
    except VacuousVectorError:
        return _step(rule_id, IFF, d, (), vacuous=True, ambient=ambient, **params)
    return _step(rule_id, IFF, d, (out,), **params)


def rule_restrict_to_span(d: DimensionVector) -> list[RewriteStep]:
    """Restrict to the span of a subfamily.  Split the entries into A and B
    with sum(A) = n - k < n and sum(n - b for b in B) <= n - k; inside the
    span of the A-subspaces (generically of dimension n - k) the B-subspaces
    cut out subspaces of dimension b - k.  Density transfers both ways.

    Closed form: sum(n - b for b in B) = n|B| - (total - sum(A)), so the
    condition on B is n|B| <= total, i.e. |B| <= total // n.  It depends on
    |A| alone: A needs at least least = length - total // n entries
    (least >= 1, as total < n * length).  Every such A sums to at least the
    least smallest entries.  So when those already sum to n or more, no A
    has sum(A) < n, the rule cannot fire, and returning [] before the
    sub-multisets are enumerated gives exactly the empty list the
    enumeration would."""
    n, length, total = d.ambient, d.length, d.total
    least = length - total // n
    if sum(d.dims[:least]) >= n:
        return []
    steps = []
    for sub in _submultisets(d.dims):
        if not least <= len(sub) < length:  # B too large, or B empty
            continue
        sa = sum(sub)
        if sa >= n:
            continue
        k = n - sa
        entries = list(sub) + [b - k for b in _remove(d.dims, sub)]
        steps.append(_iff_step(L3, d, entries, sa, kept=sub, k=k))
    return steps


def rule_complementary_pair(d: DimensionVector) -> list[RewriteStep]:
    """Complementary pair: entries b1 + b2 = n and the rest summing to
    n - k with k <= b1 <= b2 reduce to ambient n - k, shrinking the pair to
    (b1 - k, b2 - k).  Density transfers both ways."""
    return [_iff_step(L8, d, list(rest) + [b1 - k, b2 - k], d.ambient - k, pair=(b1, b2), k=k)
            for b1, b2, rest, k in _pair_splits(d) if b1 + b2 == d.ambient]


def rule_span_intersect(d: DimensionVector) -> list[RewriteStep]:
    """Span-intersect: entries b1 + b2 < n with the rest summing to n - k,
    k <= b1 <= b2, reduce to the span of the pair intersected with the rest:
    ambient m = b1 + b2 - k, keeping b1, b2.  Density transfers both ways.
    Skipped when a leftover entry exceeds m (it would not fit)."""
    steps = []
    for b1, b2, rest, k in _pair_splits(d):
        m = b1 + b2 - k
        if b1 + b2 < d.ambient and rest[-1] <= m:
            steps.append(_iff_step(L9, d, list(rest) + [b1, b2], m, pair=(b1, b2), k=k, m=m))
    return steps


def rule_intersection_swap(d: DimensionVector) -> list[RewriteStep]:
    """Intersection swap: a sub-multiset S of k >= 3 entries with
    sum(S) = (k-1) n gets every selected entry a replaced by n - a, ambient
    unchanged.  Density transfers both ways.  (k = 2 would be the identity.)
    """
    n = d.ambient
    steps = []
    for sub in _submultisets(d.dims, min_size=3):
        if sum(sub) != (len(sub) - 1) * n:
            continue
        rest = _remove(d.dims, sub)
        entries = list(rest) + [n - a for a in sub]
        steps.append(_iff_step(L10, d, entries, n, subset=sub))
    return steps


def rule_excess(d: DimensionVector) -> list[RewriteStep]:
    """Excess collapse: total dimension n + l + 1 with l < size reduces to
    the profile of small entries, (1^{e_1},...,l^{e_l}; l+1).  Density
    transfers both ways.  At l = 0 the profile is empty, so the step is
    vacuous: total n+1 is dense, and so is any smaller total (the subspaces
    span independently), which gets the same l = 0 step."""
    l = max(d.excess - 1, 0)
    if l >= d.size:
        return []
    kept = [a for a in d.dims if a <= l]
    return [_iff_step(EXCESS_L1, d, kept, l + 1, l=l)]


def rule_complement(d: DimensionVector) -> RewriteStep:
    """Complement each subspace; density is preserved both ways."""
    return _step(COMPLEMENT, IFF, d, (d.complement(),))


BASE_RULES = {
    TRIVIALLY_SPARSE: rule_trivially_sparse,
    LENGTH4: rule_length4,
    SUBSEQ_2N: rule_subseq_2n,
}

# all Iff; reductions that decrease the ambient dimension first
REDUCTION_RULES = {
    EXCESS_L1: rule_excess,
    L3: rule_restrict_to_span,
    L8: rule_complementary_pair,
    L9: rule_span_intersect,
    L10: rule_intersection_swap,
}

RULE_IDS = frozenset(BASE_RULES) | frozenset(REDUCTION_RULES) | {DOMINATION, COMPLEMENT}
