#!/usr/bin/env python3
"""What the sampling oracle actually measures.

For a dense vector a single random configuration almost surely attains the
minimal stabilizer dimension n^2 - 1 - sum d_i(n - d_i), which certifies
density by semicontinuity.  For a sparse vector every sample lands strictly
above the bound, and the gap is itself informative.  This script tabulates
stabilizer dimensions across seeds, primes, and exact sampling over Q
(the prime None), and re-checks a dense verdict from its witness: the
three ints (seed, sample, prime) that name the deciding configuration.
Run:

    python demos/oracle_statistics.py
"""

from grassdense import oracle_decide, parse, sample_configuration, stabilizer_nullity
from grassdense.linalg import random_prime, words


def stab_dim(d, prime, seed, sample) -> int:
    return stabilizer_nullity(sample_configuration(d, prime, seed, sample)) - 1


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
    stream, primes = words(1), []
    while len(primes) < 3:
        p = random_prime(stream)
        if p not in primes:
            primes.append(p)
    d = parse("(5^4,13;14)")
    print(f"\n{d} at primes {primes}:")
    for k, p in enumerate(primes):
        dims = [stab_dim(d, p, 2, s) for s in range(3 * k, 3 * k + 3)]
        print(f"  p = {p}: stab dims {dims}")

    # exact arithmetic agrees with the modular shortcut
    d = parse("(1^2,2^2;3)")
    print(f"\nover Q on {d}: stab dims {[stab_dim(d, None, 0, s) for s in range(3)]}")

    # a dense verdict re-checks from its witness alone
    d = parse("(2^3;4)")
    rep = oracle_decide(d, samples=3, seed=4)
    seed, sample, prime = rep.seed, rep.samples - 1, rep.prime
    print(f"\n{d} {rep.verdict_class.value}, witness (seed {seed}, sample {sample}, "
          f"prime {prime}): stab dim {stab_dim(d, prime, seed, sample)} "
          f"== expected {d.expected_stab_dim}")


if __name__ == "__main__":
    main()
