"""Randomized stabilizer-dimension oracle.

The diagonal action has a dense orbit iff a generic configuration's
stabilizer in PGL(n) has dimension exactly

    expected = n^2 - 1 - sum d_i (n - d_i).

Slice.  A sample fixes the two entries with the largest d_i (n - d_i)
(ties to the larger d_i, then the earlier entry) at coordinate subspaces,

    U_1 = span(e_1..e_a) = [I_a; 0],   U_2 = span(e_{n-b+1}..e_n) = [0; I_b],

which meet in span(e_{n-b+1}..e_a) when a + b > n.  When a + b <= n the
remaining entries are taken in the same order, and each one that keeps the
fixed dimensions' sum at most n is fixed at the next block of coordinates
down from row a: U = span(e_{s+1}..e_{s+d}), s the rows already used at the
top.  The fixed blocks are then pairwise disjoint.  A coordinate subspace
span(e_j : j in S) is g-stable iff g[i, j] = 0 for all i not in S, j in S,
so each fixed block forces those entries to vanish, and they drop out of
the system together with that subspace's rows.  No entry is forced twice:
disjoint blocks force disjoint columns, and the overlapping pair's blocks
g[a:, :a] and g[:n-b, n-b:] would need a <= i < n-b and n-b <= j < a; so
d_i (n - d_i) unknowns drop out per fixed entry.

Every other subspace is sampled in the affine chart of Gr(d_i, n) spanned
by the columns of U_i = [I_{d_i}; A_i], with A_i a random (n - d_i) x d_i
matrix.  Q_i = [-A_i | I_{n - d_i}] satisfies Q_i U_i = 0 and has full row
rank, so it is a left annihilator of U_i with no nullspace computation and
no redraws.  The stabilizer Lie algebra is cut out of gl(n) by g U_i <= U_i,
i.e. Q_i g U_i = 0: d_i (n - d_i) linear equations per chart subspace on the
entries of g that no coordinate subspace forces to zero, stacked into one
system and reduced by one rank computation, over F_p for a prime p or over
Q for the prime None.  The nullity is the number of kept unknowns minus
that rank.  The system is empty when every subspace is fixed: for one or
two subspaces, and whenever the dimensions sum to at most n.  A chart
whose A_i is zero stays a chart: its rows force the entries that the block
at row 0 would, so the kernel is the same.

Soundness.  Let F be the fixed entries.  Tuples (U_i)_{i in F} in general
position are a dense open subset of prod_{i in F} Gr(d_i, n): for the
overlapping pair this means U_1 + U_2 = k^n, and otherwise, the sum of the
d_i being at most n, that the sum is direct.  GL(n) is transitive on that
set (in the direct case, send a basis adapted to the sum to e_1..e_m in
the blocks' order; in the overlapping case, one adapted to U_1 meet U_2,
then to complements in U_1 and in U_2), so the slice {U_i fixed, i in F}
meets every orbit of the dense open set where they are in general
position.  Stabilizer dimension is constant along an orbit
(stabilizers of g x and x are conjugate), so the set of points attaining
the generic dimension is a GL(n)-stable dense open set; it meets the slice,
hence is dense and open in the irreducible slice, and a random chart point
of the slice attains the generic dimension with the same probability as any
random point.  By upper semicontinuity a *single* sample achieving the
expected dimension already certifies density (the witness transfers across
characteristic by spreading out).  Sparse verdicts from sampling are
one-sided Monte Carlo: every sample's stabilizer exceeding `expected` is
evidence, with error probability shrinking in samples x primes.  The
Schwartz-Zippel count is unchanged by the slice: every entry of the sliced
system still has degree <= 2 in the A_i, so a nonzero r x r minor is a
polynomial of degree <= 2r, now with r the smaller rank of the sliced
system.

Randomness.  Every draw comes from linalg.words: primes from words(seed),
sample s's chart of entry i from words(seed, s, i).  So a dense witness is
three ints, (seed, samples - 1, prime).  The functions that build arrays
import numpy at first use, since the package imports this module eagerly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .core import DimensionVector
from .linalg import bareiss_rank, mod_rank, random_prime, words

if TYPE_CHECKING:
    import numpy as np

# the oracle refuses a system of more entries (rows x columns) than this
# before it draws a chart or builds a block: an Unknown at n = 120 has about
# 5e7 entries and peaked near 1.2 GB, and one near n = 240 would have about 8e8
MAX_SYSTEM_ENTRIES = 10**8


class VerdictClass(Enum):
    CERTIFIED_DENSE = "CertifiedDense"
    MONTE_CARLO_SPARSE = "MonteCarloSparse"


@dataclass(frozen=True, eq=False)  # numpy parts: compared and hashed by identity
class GenericConfiguration:
    """Sampled point of the product of Grassmannians, in slice form.

    parts[i] is the subspace of dimension d_i = vector.dims[i]: an int s, the
    coordinate block span(e_{s+1}..e_{s+d_i}) with 0 <= s <= n - d_i, or a
    signed integer (n - d_i) x d_i array A, the chart point [I_{d_i}; A] over
    F_prime (prime set) or over Z viewed inside Q (prime None).
    """

    vector: DimensionVector
    parts: tuple[int | np.ndarray, ...]
    prime: Optional[int]

    def __post_init__(self) -> None:
        import numpy as np
        n, dims = self.vector.ambient, self.vector.dims
        if len(self.parts) != len(dims):
            raise ValueError(f"{len(self.parts)} parts for the {len(dims)} entries of {self.vector}")
        for d, part in zip(dims, self.parts):
            if isinstance(part, np.ndarray):
                if part.shape != (n - d, d):
                    raise ValueError(f"chart shape {part.shape} is not {(n - d, d)} for d={d}, n={n}")
                if part.dtype.kind != "i":  # floats would be truncated, unsigned -A wraps
                    raise ValueError(f"chart dtype {part.dtype} is not a signed integer type")
            elif isinstance(part, bool) or not isinstance(part, int) or not 0 <= part <= n - d:
                raise ValueError(f"part {part!r} is neither a chart array nor a block start "
                                 f"in [0, {n - d}] for d={d}, n={n}")

    @property
    def ambient(self) -> int:
        return self.vector.ambient

    @property
    def subspaces(self) -> tuple[np.ndarray, ...]:
        """The n x d_i matrices: np.eye(n, d_i, k=-s) for a block, [I; A] for a chart."""
        import numpy as np
        n = self.ambient
        return tuple(np.eye(n, d, k=-part, dtype=np.int64) if isinstance(part, int)
                     else np.vstack([np.eye(d, dtype=np.int64), part])
                     for d, part in zip(self.vector.dims, self.parts))


@dataclass(frozen=True)
class OracleReport:
    """The oracle's answer: the (prime, PGL-stabilizer dimension) of each
    sample run, in order, from seed.  Everything else is read off them: a
    dense report's witness is (seed, samples - 1, prime)."""

    vector: DimensionVector
    seed: int
    stab_dims: tuple[tuple[int, int], ...]

    @property
    def expected(self) -> int:
        return self.vector.expected_stab_dim

    @property
    def samples(self) -> int:
        return len(self.stab_dims)

    @property
    def primes(self) -> tuple[int, ...]:  # the primes used, in first-use order
        return tuple(dict.fromkeys(p for p, _ in self.stab_dims))

    @property
    def prime(self) -> Optional[int]:  # of the first minimal sample: the decisive one when dense
        return min(self.stab_dims, key=lambda pt: pt[1])[0] if self.stab_dims else None

    @property
    def stab_dim(self) -> Optional[int]:  # the minimal one observed; None when no sample ran
        return min(t for _, t in self.stab_dims) if self.stab_dims else None

    @property
    def is_dense(self) -> bool:
        return bool(self.stab_dims) and self.stab_dims[-1][1] == self.expected

    @property
    def verdict_class(self) -> VerdictClass:
        return VerdictClass.CERTIFIED_DENSE if self.is_dense else VerdictClass.MONTE_CARLO_SPARSE

    @property
    def anomalies(self) -> tuple[str, ...]:
        """A dense sample after higher ones, or Monte Carlo minima that differ by prime."""
        d, observed, anomalies = self.vector, self.stab_dims, []
        if self.is_dense and len(observed) > 1:
            anomalies.append(f"{d}: expected stabilizer dim {self.expected} reached at sample "
                             f"{len(observed) - 1} after samples with dims "
                             f"{[t for _, t in observed[:-1]]} (prime artifact?)")
        elif not self.is_dense:
            per_prime = {p: min(t for q, t in observed if q == p) for p, _ in observed}
            if len(set(per_prime.values())) > 1:
                anomalies.append(f"{d}: minimal stabilizer dim differs across primes: {per_prime}")
        return tuple(anomalies)


def _slice(d: DimensionVector) -> dict[int, int]:
    """Start row of the coordinate block of each entry the slice fixes."""
    n = d.ambient
    # the slice's pair: largest d_i (n - d_i), then larger d_i, then earlier;
    # every later entry in this order is fixed at the next block down from
    # row a if it ends above the bottom block (never when the pair overlaps)
    order = sorted(range(d.length), reverse=True,
                   key=lambda i: (d.dims[i] * (n - d.dims[i]), d.dims[i], -i))
    start = {order[0]: 0}
    if d.length > 1:
        row, end = d.dims[order[0]], n - d.dims[order[1]]
        start[order[1]] = end
        for i in order[2:]:
            if row + d.dims[i] <= end:
                start[i], row = row, row + d.dims[i]
    return start


def _check_system_size(d: DimensionVector, rows: int, cols: int) -> None:
    """ValueError when d's rows x cols stabilizer system is past MAX_SYSTEM_ENTRIES."""
    if rows * cols > MAX_SYSTEM_ENTRIES:
        raise ValueError(f"{d}: a {rows} x {cols} stabilizer system is past the "
                         f"oracle's ceiling of {MAX_SYSTEM_ENTRIES} entries")


def _stream_key(name: str, value) -> int:
    """value as a key of words: an int in [0, 2^64), not a bool; else ValueError."""
    import numpy as np
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value < 2**64:
        raise ValueError(f"{name} must be an int in [0, 2^64), got {value!r}")
    return int(value)


def sample_configuration(d: DimensionVector, prime: Optional[int] = None, seed: int = 0,
                         sample: int = 0) -> GenericConfiguration:
    """Fix the slice's pair at [I; 0] and [0; I] and, when they are a
    direct sum, every further entry that fits at the next coordinate block
    below the first; fill every other entry i's chart A_i of [I; A_i]
    row-major from the words w of words(seed, sample, i): w % prime over
    F_prime, w % 10001 - 5000 over Q (prime None; a nonzero r x r minor, of
    degree <= 2r, vanishes with probability <= 2r / 10001), each biased by
    less than modulus / 2^64.  Without a chart point nothing is drawn, but a
    bad seed or sample still raises ValueError, as in oracle_decide, and so
    does a system past MAX_SYSTEM_ENTRIES, before any chart is drawn."""
    import numpy as np
    seed, sample = _stream_key("seed", seed), _stream_key("sample", sample)
    n, start = d.ambient, _slice(d)
    # the slice's blocks are disjoint, so each fixed entry drops d_i (n - d_i)
    # unknowns, and each other entry adds as many rows
    load = [di * (n - di) for di in d.dims]
    fixed = sum(load[i] for i in start)
    _check_system_size(d, sum(load) - fixed, n * n - fixed)
    m, shift = (10001, 5000) if prime is None else (int(prime), 0)  # a numpy int would overflow

    def chart(i: int, d_i: int) -> np.ndarray:
        entries = itertools.islice(words(seed, sample, i), (n - d_i) * d_i)
        return np.array([w % m - shift for w in entries], dtype=np.int64).reshape(n - d_i, d_i)

    parts = tuple(start[i] if i in start else chart(i, di) for i, di in enumerate(d.dims))
    return GenericConfiguration(d, parts, prime)


def _stabilizer_system(c: GenericConfiguration) -> np.ndarray:
    """The conditions g U_i <= U_i on the entries of g left free.

    A coordinate block span(e_{s+1}..e_{s+d}) only forces g[i, j] = 0 for
    i outside it and j inside it: those unknowns are dropped, and so are its
    rows.  A chart [I; A] contributes kron(Q, U^T), Q = [-A | I]: the
    conditions Q g U = 0 on the row-major entries of g.  The code builds
    only its kept columns: column j n + l of the Kronecker product is
    Q[:, j] outer U^T[:, l], one broadcast product over the kept (j, l), so
    the (n - d) d x n^2 product is never formed.  The result has one column
    per kept unknown; without a chart it has no rows.  A system of more than
    MAX_SYSTEM_ENTRIES entries raises ValueError before any block is built."""
    import numpy as np
    n = c.ambient
    forced = np.zeros((n, n), dtype=bool)
    for d, s in zip(c.vector.dims, c.parts):
        if isinstance(s, int):
            forced[:s, s:s + d] = forced[s + d:, s:s + d] = True
    charts = [(d, a) for d, a in zip(c.vector.dims, c.parts) if not isinstance(a, int)]
    cols = n * n - np.count_nonzero(forced)
    if not charts:
        return np.zeros((0, cols), dtype=np.int64)
    _check_system_size(c.vector, sum((n - d) * d for d, _ in charts), cols)
    ki, kj = divmod(np.flatnonzero(~forced.ravel()), n)
    blocks = []
    for d, a in charts:
        u_t = np.hstack([np.eye(d, dtype=np.int64), a.T])
        q = np.hstack([-a, np.eye(n - d, dtype=np.int64)])
        blocks.append((q[:, None, ki] * u_t[None, :, kj]).reshape(-1, ki.size))
    return np.vstack(blocks)


def stabilizer_nullity(c: GenericConfiguration) -> int:
    """Nullity of the stabilizer system on gl(n); always >= 1 (scalars)."""
    m = _stabilizer_system(c)
    rank = bareiss_rank(m) if c.prime is None else mod_rank(m, c.prime)
    nullity = m.shape[1] - rank
    if nullity < 1:
        raise RuntimeError(f"nullity {nullity}: scalar matrices must lie in the stabilizer")
    return nullity


def oracle_decide(d: DimensionVector, samples: int = 3, seed: int = 0) -> OracleReport:
    """Sample stabilizer dimensions until one certifies density.

    Sample s is sample_configuration(d, p, seed, s) over F_p, p the
    (s % 2)-th of the first two distinct primes of words(seed), each drawn
    when a sample first uses it.  samples >= 1 is an int and seed an int in
    [0, 2^64), neither a bool: one seed keys one stream.  Sampling stops at
    the first sample whose PGL-stabilizer dimension equals
    expected_stab_dim(d) >= 0.  Trivially sparse vectors short-circuit with
    zero samples (that verdict is deterministic), after the arguments are
    checked.  The report keeps the (prime, dimension) of every sample run
    and reads its verdict, its primes and its anomalies off them."""
    import numpy as np
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an int >= 1, got {samples!r}")
    seed, expected = _stream_key("seed", seed), d.expected_stab_dim
    observed: list[tuple[int, int]] = []  # (prime, stab) per sample run
    if expected >= 0:
        stream, primes = words(seed), []
        for s in range(samples):
            while len(primes) <= min(s, 1):
                if (p := random_prime(stream)) not in primes:
                    primes.append(p)
            p = primes[s % 2]
            stab = stabilizer_nullity(sample_configuration(d, p, seed, s)) - 1
            if stab < expected:
                raise RuntimeError(f"{d}: stabilizer dim {stab} below the dimension bound "
                                   f"{expected}: elimination bug")
            observed.append((p, stab))
            if stab == expected:
                break
    return OracleReport(d, seed, tuple(observed))
