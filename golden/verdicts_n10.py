#!/usr/bin/env python3
"""Write golden/verdicts_n10.txt: the oracle's verdict on every canonical,
not trivially sparse vector with ambient <= 10 and length <= 8.

Each line is a vector and its status, e.g. "(1^5,3;6) Sparse", from
oracle_decide(samples=3, seed=1).  The table comes from the oracle alone,
never from the engine it pins.  Run (about 15 s):

    PYTHONPATH=src python golden/verdicts_n10.py
"""

from pathlib import Path

from grassdense import enumerate_vectors, oracle_decide

MAX_N, MAX_LEN = 10, 8
SAMPLES, SEED = 3, 1
TABLE = Path(__file__).resolve().parent / "verdicts_n10.txt"


def main() -> None:
    lines = []
    for v in enumerate_vectors(MAX_N, MAX_LEN):
        if v != v.canonical() or v.is_trivially_sparse:
            continue
        dense = oracle_decide(v, samples=SAMPLES, seed=SEED).is_dense
        lines.append(f"{v} {'Dense' if dense else 'Sparse'}\n")
    TABLE.write_text("".join(lines))
    print(f"wrote {len(lines)} verdicts to {TABLE}")


if __name__ == "__main__":
    main()
