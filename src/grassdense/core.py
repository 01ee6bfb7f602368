"""Dimension-vector algebra for configurations of subspaces in P(V).

A configuration type is a dimension vector (d_1, ..., d_k; n): k subspace
dimensions 1 <= d_i <= n-1 in an ambient space of dimension n, stored as a
sorted multiset.  The diagonal PGL(n) action on the corresponding product of
Grassmannians Gr(d_1, n) x ... x Gr(d_k, n) either has a dense orbit
("dense") or it does not ("sparse"); everything in this package decides or
certifies which.

This module holds the vector arithmetic every other module leans on:
normalization, complements, domination, the dimension count of the product of
Grassmannians, and the necessary dimension inequality ("trivially sparse").
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class MalformedVectorError(ValueError):
    """Entries out of range, empty dims, or a nonsensical ambient dimension."""


class VacuousVectorError(ValueError):
    """Every entry was 0 or n: the configuration imposes no condition.

    Callers treat a vacuous vector as dense by convention (the product of
    Grassmannians is a single point).
    """


class VectorParseError(ValueError):
    """Text did not match the (d1^e1,...,dk^ek;n) grammar."""


class AmbientMismatchError(ValueError):
    """Binary operation on vectors with different ambient dimensions."""


@dataclass(frozen=True)
class DimensionVector:
    """Sorted multiset of subspace dimensions with ambient dimension n.

    Entries must be ints (not bools) in [1, n-1]; :func:`normalize` builds a
    vector from raw data that may contain 0 or n entries.
    """

    dims: tuple[int, ...]
    ambient: int

    def __post_init__(self) -> None:
        n = self.ambient
        if type(n) is not int or n < 2:
            raise MalformedVectorError(f"ambient dimension must be an integer >= 2, got {n!r}")
        try:
            dims = tuple(self.dims)
        except TypeError:
            raise MalformedVectorError(f"entries must be an iterable, got {self.dims!r}") from None
        if not dims:
            raise MalformedVectorError("dimension vector needs at least one entry")
        # types before sorting, which would raise TypeError on mixed entries
        if any(type(d) is not int for d in dims):
            raise MalformedVectorError(f"entries must be integers, got {dims!r}")
        dims = tuple(sorted(dims))
        if dims[0] < 1 or dims[-1] > n - 1:
            raise MalformedVectorError(f"entries of {dims} must lie in [1, {n - 1}]")
        object.__setattr__(self, "dims", dims)

    # -- basic statistics ------------------------------------------------

    @property
    def length(self) -> int:
        """Number of subspaces k."""
        return len(self.dims)

    @property
    def size(self) -> int:
        """Largest entry max(d_i)."""
        return self.dims[-1]

    @property
    def total(self) -> int:
        """Sum of entries."""
        return sum(self.dims)

    @property
    def excess(self) -> int:
        """total - n; reductions are graded by this quantity."""
        return self.total - self.ambient

    # -- geometry --------------------------------------------------------

    @property
    def orbit_space_dim(self) -> int:
        """dim of the product of Grassmannians, sum d_i (n - d_i)."""
        n = self.ambient
        return sum(d * (n - d) for d in self.dims)

    @property
    def expected_stab_dim(self) -> int:
        """n^2 - 1 - orbit_space_dim: stabilizer dimension at a point of a
        dense orbit.  Negative iff the vector is trivially sparse."""
        return self.ambient**2 - 1 - self.orbit_space_dim

    @property
    def is_trivially_sparse(self) -> bool:
        """True iff the product of Grassmannians has dimension > dim PGL(n),
        so no orbit can be dense."""
        return self.expected_stab_dim < 0

    # -- complement / domination / canonical form ------------------------

    def complement(self) -> "DimensionVector":
        """(n - d_1, ..., n - d_k; n).  Involution; preserves density."""
        n = self.ambient
        return DimensionVector(tuple(n - d for d in self.dims), n)

    def dominates(self, other: "DimensionVector") -> bool:
        """True iff other's entries form a sub-multiset of ours (same n).

        If self dominates a sparse vector, self is sparse: the extra factors
        only add conditions.
        """
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"cannot compare ambient {self.ambient} with {other.ambient}"
            )
        have = Counter(self.dims)
        return all(have[v] >= m for v, m in Counter(other.dims).items())

    def canonical(self) -> "DimensionVector":
        """Lexicographically smaller of self and its complement.

        Density is complement-invariant, so memoization keys on this.
        """
        comp = self.complement()
        return self if self.dims <= comp.dims else comp

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for v, m in sorted(Counter(self.dims).items()):
            parts.append(f"{v}^{m}" if m > 1 else f"{v}")
        return f"({','.join(parts)};{self.ambient})"

    def __repr__(self) -> str:  # terse; these show up in test output a lot
        return f"DimensionVector{self!s}"


def normalize(raw: Iterable[int], ambient: int) -> DimensionVector:
    """Build a vector from raw entries, dropping 0s and ambient-sized entries.

    Gr(0, n) and Gr(n, n) are points, so such factors never affect density.
    Raises :class:`VacuousVectorError` if nothing survives, and
    :class:`MalformedVectorError` on bools, non-ints and entries outside [0, ambient].
    """
    entries = tuple(raw)
    if type(ambient) is not int or ambient < 1:
        raise MalformedVectorError(f"ambient dimension must be a positive integer, got {ambient!r}")
    for d in entries:
        if type(d) is not int or d < 0 or d > ambient:
            raise MalformedVectorError(f"entry {d!r} outside [0, {ambient}]")
    kept = tuple(sorted(d for d in entries if 0 < d < ambient))
    if not kept:
        raise VacuousVectorError(f"all entries of {list(entries)} dropped for n={ambient}")
    return DimensionVector(kept, ambient)


# ASCII numerals only: \d and int() also take other Unicode digits, and int()
# takes a sign and underscores
_NUMERAL_RE = re.compile(r"[0-9]+")
_TERM_RE = re.compile(r"([0-9]+)(?:\^([0-9]+))?")

# parse refuses a vector with more entries than this, counting exponents,
# before it builds them; decide on a vector this long takes about a second
MAX_ENTRIES = 10**6


def parse(text: str) -> DimensionVector:
    """Parse "(1^2,2^3;7)" (parentheses and exponents optional) and normalize."""
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if s.count(";") != 1:
        raise VectorParseError(f"expected exactly one ';' in {text!r}")
    dims_part, _, n_part = s.partition(";")
    if not _NUMERAL_RE.fullmatch(n_part.strip()):
        raise VectorParseError(f"bad ambient dimension {n_part.strip()!r} in {text!r}")
    ambient = int(n_part.strip())
    raw: list[int] = []
    for term in dims_part.split(","):
        m = _TERM_RE.fullmatch(term.strip())
        if m is None:
            raise VectorParseError(f"bad term {term.strip()!r} in {text!r}")
        base, exp = int(m.group(1)), int(m.group(2) or 1)
        if exp < 1:
            raise VectorParseError(f"exponent must be >= 1 in {term.strip()!r}")
        if len(raw) + exp > MAX_ENTRIES:
            raise VectorParseError(f"more than {MAX_ENTRIES} entries in {text[:40]!r}")
        raw.extend([base] * exp)
    try:
        return normalize(raw, ambient)
    except MalformedVectorError as e:
        raise VectorParseError(str(e)) from None


class Status(Enum):
    DENSE = "Dense"
    SPARSE = "Sparse"
    UNKNOWN = "Unknown"

