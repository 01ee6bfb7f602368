#!/usr/bin/env python3
"""Closed-form classification of dense vectors of bounded maximal entry.

For each size l <= 4 the dense vectors split into banded families (excess
at most l, membership decided by a profile lookup in ambient dimension
excess) plus a finite exceptional list.  This script prints the tables,
then replays a size-2 sweep against the engine to show the closed form and
the engine agree vector-by-vector.  Run:

    python demos/classification_tables.py [--max-size 3]
"""

import argparse
import itertools

from grassdense import DimensionVector, Engine, Status, classify_size


def sweep_size2(table) -> None:
    engine = Engine()
    total = 0
    for n in range(2, 13):
        for k in range(1, n + 4):
            for dims in itertools.combinations_with_replacement((1, 2), k):
                if max(dims) != 2 or n < 3:
                    continue
                v = DimensionVector(dims, n)
                total += 1
                assert table.is_dense(v) == (engine.decide(v).status is Status.DENSE), v
    print(f"size-2 sweep: closed form == engine on all {total} vectors, n <= 12")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-size", type=int, default=3)
    args = ap.parse_args()

    for l in range(1, args.max_size + 1):
        c = classify_size(l)
        print(c.to_text())
        print()

    c2 = classify_size(2)
    sweep_size2(c2)

    # the exceptional lists are closed under nothing: adding one entry can
    # stay dense, e.g. (2,3^2;4) -> (2,3^3;4), both exceptional
    c3 = classify_size(3)
    tail = {str(v) for v in c3.exceptional_dense}
    assert "(2,3^2;4)" in tail and "(2,3^3;4)" in tail
    print(f"size-3 exceptional list: {len(tail)} vectors, every one certified "
          f"dense by the sampling oracle (see tests)")


if __name__ == "__main__":
    main()
