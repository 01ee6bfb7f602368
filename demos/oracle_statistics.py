#!/usr/bin/env python3
"""What the sampling oracle actually measures.

For a dense vector a single random configuration almost surely attains the
minimal stabilizer dimension n^2 - 1 - sum d_i(n - d_i), which certifies
density by semicontinuity.  For a sparse vector every sample lands strictly
above the bound, and the gap is itself informative.  This script tabulates
stabilizer dimensions across seeds, primes, and exact sampling over Q
(the prime None).
Run:

    python demos/oracle_statistics.py
"""

import numpy as np

from grassdense import oracle_decide, parse
from grassdense.linalg import random_prime


def table(text: str, seeds=range(6)) -> None:
    d = parse(text)
    print(f"{d}: expected stabilizer dim {d.expected_stab_dim}")
    for seed in seeds:
        rep = oracle_decide(d, samples=3, seed=seed)
        dims = " ".join(f"{s}" for _, s in rep.stab_dims)
        print(f"  seed {seed}: stab dims [{dims}]  -> {rep.verdict_class.value}")


def main() -> None:
    table("(1,2,2;5)")       # dense: certifies on the first sample
    print()
    table("(1^2,2^2;3)")     # sparse with a gap of exactly 1
    print()
    table("(5^4,13;14)")     # sparse with a wide gap

    # prime-independence: the minimal observed dimension is not an artifact
    # of one characteristic
    prng = np.random.default_rng(1)
    primes = sorted({random_prime(prng) for _ in range(4)})[:3]
    d = parse("(5^4,13;14)")
    rep = oracle_decide(d, samples=9, primes=primes, seed=2)
    print(f"\n{d} at primes {primes}:")
    for p in primes:
        dims = sorted(s for q, s in rep.stab_dims if q == p)
        print(f"  p = {p}: stab dims {dims}")

    # exact arithmetic agrees with the modular shortcut
    exact = oracle_decide(parse("(1^2,2^2;3)"), samples=3, primes=[None], seed=0)
    print(f"\nover Q on (1^2,2^2;3): stab dim {exact.stab_dim} "
          f"({exact.verdict_class.value})")


if __name__ == "__main__":
    main()
