"""Exact linear algebra over Z/p and Q backing the randomized oracle.

Modular elimination is the workhorse: entries live in [0, p) with p just
below 2^31, so a product of two residues fits in an int64 and the inner
update of Gaussian elimination vectorizes in numpy.  Each pivot updates only
the rows that are nonzero in its column, so the work tracks the fill, and
mod_rank takes columns sparsest first: the oracle's stabilizer systems have
7-26 % nonzero entries, and the row-major order of g fills them in heavily
(13.0 M element updates instead of 1.1 M on a (5^5;30) sample).  Rank is
invariant under column permutation, so the order changes the cost only.
The kernel reduces by floor division, x - x // p * p, not by x % p: numpy
divides an int64 array by a scalar with a precomputed multiply and shift
(Granlund and Montgomery, Division by invariant integers using
multiplication, PLDI 1994), where % costs one hardware division per
element; on 7,009 entries the reduction is 2.2-2.6x cheaper than %.  It
is exact because every operand is a residue, so |x| < p^2 < 2^62.
mod_rank reduces its input with np.remainder instead: an arbitrary int64
entry within p of -2^63 would overflow x // p * p.
Fraction-free Bareiss elimination is the slow exact rank over Q for small
instances.  The functions that build arrays import numpy at first use, so
a process whose verdicts the engine settles never pays for loading it.

Primality is deterministic Miller-Rabin.  Below 4,759,123,141, which covers
every elimination prime, the witnesses 2, 7 and 61 suffice (Jaeschke, On
strong pseudoprimes to several bases, Math. Comp. 61, 1993); above it the
twelve primes up to 37 are used, which suffice for all n < 2^64
(Sorenson and Webster, Strong pseudoprimes to twelve prime bases, Math.
Comp. 86, 2017).

Randomness.  The oracle draws everything from words(*key), a splitmix64
stream (Steele, Lea and Flood, OOPSLA 2014) keyed by ints in [0, 2^64) and
by their count.  It is pure Python and owned here: NumPy (NEP 19) does not
freeze Generator streams across releases, and a witness must re-check under
any numpy.  A word reduced mod m is uniform up to a bias below m / 2^64.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_SMALL_BASES = (2, 7, 61)
_MR_SMALL_LIMIT = 4_759_123_141
_MASK64, _GAMMA = 2**64 - 1, 0x9E3779B97F4A7C15


@functools.lru_cache(maxsize=1024)
def is_probable_prime(n: int) -> bool:
    """Deterministic for n < 2^64, Miller-Rabin above.

    Witnesses 2, 7, 61 below 4,759,123,141 (Jaeschke 1993), else the primes
    up to 37 (Sorenson-Webster 2017).  A witness divisible by n is skipped:
    it says nothing, and would call 61 composite.  Memoized (bounded)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_SMALL_BASES if n < _MR_SMALL_LIMIT else _MR_BASES:
        if a % n == 0:
            continue
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


def words(*key: int) -> Iterator[int]:
    """The endless splitmix64 stream keyed by key: from state len(key), each
    entry k in turn sets the state to the next word xor k, and the words
    after that are yielded.  Raises ValueError, at the first draw, unless
    every entry is an int in [0, 2^64), not a bool."""
    if not all(type(k) is int and 0 <= k <= _MASK64 for k in key):
        raise ValueError(f"key entries must be ints in [0, 2^64), got {key!r}")
    state, entries = len(key), list(key)
    while True:
        state = state + _GAMMA & _MASK64
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
        if entries:
            state = z ^ z >> 31 ^ entries.pop(0)
        else:
            yield z ^ z >> 31


def random_prime(stream: Iterator[int]) -> int:
    """The first prime (w >> 33) | 2^30 | 1, in (2^30, 2^31), over the words w of stream."""
    for w in stream:
        c = w >> 33 | 2**30 | 1
        if is_probable_prime(c):
            return c


def _eliminate(m: np.ndarray, p: int) -> int:
    """In-place row echelon form of int64 matrix mod p; returns the rank.

    Entries must be residues in [0, p), p < 2^31.  One scan of the pivot
    column yields the pivot row and the rows to update; their multipliers
    are scaled by the pivot's inverse, so the pivot row is never
    normalized.  The target rows are gathered once and updated vectorized.
    Multipliers (below p^2) and updates (above -p^2) are reduced as
    x - x // p * p, cheaper than x % p (see the module docstring) and
    exact, since p^2 < 2^62 keeps x // p * p in int64 too.
    """
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
            x = m[targets, c:]
            f = x[:, 0] * pow(int(m[r, c]), -1, p)
            f -= f // p * p
            x -= f[:, None] * m[r, c:]
            x -= x // p * p
            m[targets, c:] = x
        r += 1
    return r


def _integer_matrix(a) -> np.ndarray:
    """a as a 2-D array; ValueError unless it is one with a signed integer dtype."""
    import numpy as np
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    if a.dtype.kind != "i":
        raise ValueError(f"matrix dtype {a.dtype} is not a signed integer type")
    return a


def mod_rank(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over Z/p.

    Eliminates one working copy whose columns are sorted by ascending
    nonzero count (stable), which keeps fill low on sparse systems; the
    rank is that of the input, since column permutations preserve it.
    Raises ValueError unless p is a prime below 2^31 and a is 2-D with a
    signed integer dtype.
    """
    import numpy as np
    if not (isinstance(p, (int, np.integer)) and p < 2**31 and is_probable_prime(int(p))):
        raise ValueError(f"modulus must be a prime below 2^31 (int64 elimination), got {p!r}")
    a = _integer_matrix(a).astype(np.int64, copy=False)
    if a.size == 0:
        return 0
    m = np.take(a, np.argsort(np.count_nonzero(a, axis=0), kind="stable"), axis=1)
    np.remainder(m, p, out=m)
    return _eliminate(m, p)


def bareiss_rank(a) -> int:
    """Rank over Q of an integer matrix, via fraction-free Bareiss elimination.

    Python-int arithmetic, so no overflow; use on small matrices only.
    Raises ValueError unless a is 2-D with a signed integer dtype.
    """
    m = [[int(x) for x in row] for row in _integer_matrix(a)]
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r
