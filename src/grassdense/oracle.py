"""Randomized stabilizer-dimension oracle.

The diagonal action has a dense orbit iff a generic configuration's
stabilizer in PGL(n) has dimension exactly

    expected = n^2 - 1 - sum d_i (n - d_i).

Each subspace is sampled in the affine chart of Gr(d_i, n) spanned by the
columns of U_i = [I_{d_i}; A_i], with A_i a random (n - d_i) x d_i matrix.
Q_i = [-A_i | I_{n - d_i}] satisfies Q_i U_i = 0 and has full row rank, so it
is a left annihilator of U_i with no nullspace computation and no redraws.
The stabilizer Lie algebra is cut out of gl(n) by g U_i <= U_i, i.e.
Q_i g U_i = 0: d_i (n - d_i) linear equations per subspace on the n^2
entries of g, stacked into one system and reduced by one rank computation,
over F_p (modular mode) or over Q (rational mode, prime None).

Soundness.  A chart sample is a point of the product of Grassmannians, so
by upper semicontinuity of stabilizer dimension a *single* sample achieving
the expected dimension already certifies density (the witness transfers
across characteristic by spreading out).  Each chart is Zariski-open and
dense in its Grassmannian, so a random chart point attains the generic
stabilizer dimension with the same probability as any random point.  Sparse
verdicts from sampling are one-sided Monte Carlo: every sample's stabilizer
exceeding `expected` is evidence, with error probability shrinking in
samples x primes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import DimensionVector
from .linalg import bareiss_rank, mod_rank, random_prime

log = logging.getLogger(__name__)

# Rational mode draws the chart entries A_i from [-bound, bound].  System
# entries have degree <= 2 in the A_i, so a nonzero r x r minor is a
# polynomial of degree <= 2r and vanishes with probability at most
# 2r / (2 bound + 1) (Schwartz-Zippel): negligible on the small n this mode
# is meant for.
_RATIONAL_ENTRY_BOUND = 5000


class VerdictClass(Enum):
    CERTIFIED_DENSE = "CertifiedDense"
    MONTE_CARLO_SPARSE = "MonteCarloSparse"


@dataclass(frozen=True)
class GenericConfiguration:
    """Sampled point of the product of Grassmannians, as chart matrices.

    subspaces[i] is the n x d_i matrix [I_{d_i}; A_i], over F_prime (prime
    set) or over Z viewed inside Q (prime None).
    """

    ambient: int
    subspaces: tuple[np.ndarray, ...]
    prime: Optional[int]
    seed: int

    def __post_init__(self) -> None:
        for u in self.subspaces:
            if u.ndim != 2 or u.shape[0] != self.ambient:
                raise ValueError(f"subspace matrix shape {u.shape} does not match n={self.ambient}")
            if not np.array_equal(u[: u.shape[1]], np.eye(u.shape[1], dtype=np.int64)):
                raise ValueError("subspace matrix is not in chart form [I; A]")


@dataclass(frozen=True)
class OracleReport:
    vector: DimensionVector
    mode: str  # "modular" | "rational"
    primes: tuple[Optional[int], ...]
    prime: Optional[int]  # prime of the decisive (or best) sample
    seed: int
    samples: int  # samples actually run
    stab_dims: tuple[tuple[Optional[int], int], ...]  # (prime, pgl stab dim) per sample
    stab_dim: Optional[int]  # best (minimal) observed; None when no sample ran
    expected: int
    verdict_class: VerdictClass
    anomalies: tuple[str, ...] = field(default=())

    @property
    def is_dense(self) -> bool:
        return self.verdict_class is VerdictClass.CERTIFIED_DENSE


def sample_configuration(
    d: DimensionVector,
    prime: Optional[int] = None,
    seed: int | np.random.SeedSequence = 0,
) -> GenericConfiguration:
    """Draw a random chart point [I; A_i] per subspace, deterministically in
    (d, prime, seed).  prime=None selects rational (integer-entry) mode."""
    if isinstance(seed, np.random.SeedSequence):
        ss, seed_tag = seed, int(seed.entropy[0]) if isinstance(seed.entropy, (list, tuple)) else 0
    else:
        ss, seed_tag = np.random.SeedSequence([int(seed), prime or 0]), int(seed)
    rng = np.random.default_rng(ss)
    if prime is None:
        lo, hi = -_RATIONAL_ENTRY_BOUND, _RATIONAL_ENTRY_BOUND + 1
    else:
        lo, hi = 0, prime
    n = d.ambient
    mats = tuple(
        np.vstack([np.eye(di, dtype=np.int64),
                   rng.integers(lo, hi, size=(n - di, di), dtype=np.int64)])
        for di in d.dims
    )
    return GenericConfiguration(n, mats, prime, seed_tag)


def _stabilizer_system(c: GenericConfiguration) -> np.ndarray:
    """Stack kron(Q_i, U_i^T) with Q_i = [-A_i | I]: the conditions
    Q_i g U_i = 0 on the row-major entries of g."""
    blocks = [np.zeros((0, c.ambient ** 2), dtype=np.int64)]
    for u in c.subspaces:
        a = u[u.shape[1] :]
        q = np.hstack([-a, np.eye(a.shape[0], dtype=np.int64)])
        blocks.append(np.kron(q, u.T))
    return np.vstack(blocks)


def stabilizer_nullity(c: GenericConfiguration) -> int:
    """Nullity of the stabilizer system on gl(n); always >= 1 (scalars)."""
    m = _stabilizer_system(c)
    rank = bareiss_rank(m) if c.prime is None else mod_rank(m, c.prime)
    nullity = c.ambient ** 2 - rank
    assert nullity >= 1, "scalar matrices must lie in the stabilizer"
    return nullity


def oracle_decide(
    d: DimensionVector,
    samples: int = 3,
    primes: Optional[Sequence[int]] = None,
    mode: str = "modular",
    seed: int = 0,
) -> OracleReport:
    """Sample stabilizer dimensions and classify.

    CertifiedDense as soon as one sample's PGL-stabilizer dimension equals
    expected_stab_dim(d) >= 0; otherwise MonteCarloSparse.  Trivially sparse
    vectors short-circuit with zero samples (that verdict is deterministic).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if mode not in ("modular", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    expected = d.expected_stab_dim
    if expected < 0:
        return OracleReport(
            vector=d, mode=mode, primes=(), prime=None, seed=seed, samples=0,
            stab_dims=(), stab_dim=None, expected=expected,
            verdict_class=VerdictClass.MONTE_CARLO_SPARSE,
        )

    if mode == "rational":
        prime_cycle: list[Optional[int]] = [None]
    elif primes is not None:
        prime_cycle = [int(p) for p in primes]
        if not prime_cycle:
            raise ValueError("primes must be nonempty when given")
    else:
        prng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11CE]))
        first = random_prime(prng)
        second = random_prime(prng)
        while second == first:
            second = random_prime(prng)
        prime_cycle = [first, second]

    root = np.random.SeedSequence([seed])
    children = root.spawn(samples)
    observed: list[tuple[Optional[int], int]] = []
    anomalies: list[str] = []
    for s in range(samples):
        p = prime_cycle[s % len(prime_cycle)]
        cfg = sample_configuration(d, prime=p, seed=children[s])
        stab = stabilizer_nullity(cfg) - 1
        assert stab >= expected, "stabilizer below the dimension bound: elimination bug"
        observed.append((p, stab))
        if stab == expected:
            earlier = [t for _, t in observed[:-1] if t != expected]
            if earlier:
                msg = (f"{d}: expected stabilizer dim {expected} reached at sample {s} "
                       f"after samples with dims {earlier} (prime artifact?)")
                anomalies.append(msg)
                log.warning(msg)
            return OracleReport(
                vector=d, mode=mode, primes=tuple(prime_cycle), prime=p, seed=seed,
                samples=s + 1, stab_dims=tuple(observed), stab_dim=stab,
                expected=expected, verdict_class=VerdictClass.CERTIFIED_DENSE,
                anomalies=tuple(anomalies),
            )
    per_prime = {p: min(t for q, t in observed if q == p) for p, _ in observed}
    if len(set(per_prime.values())) > 1:
        msg = f"{d}: minimal stabilizer dim differs across primes: {per_prime}"
        anomalies.append(msg)
        log.warning(msg)
    best_prime, best = min(observed, key=lambda pt: pt[1])
    return OracleReport(
        vector=d, mode=mode, primes=tuple(prime_cycle), prime=best_prime, seed=seed,
        samples=samples, stab_dims=tuple(observed), stab_dim=best, expected=expected,
        verdict_class=VerdictClass.MONTE_CARLO_SPARSE, anomalies=tuple(anomalies),
    )
