#!/usr/bin/env python3
"""Write golden/certificates_n8.txt: the engine's certificate for every
canonical, not trivially sparse vector with ambient <= 8 and length <= 7.

Each line is a vector, its status and the steps of its certificate, each as
its rule id, its params and its outputs, separated by " | ", e.g.
"(1^2,2^2;3) Sparse | SubseqTwoN side=self subset=(1, 1, 2, 2) ->".  The table
comes from one warm Engine; the test that reads it re-derives every line from
a warm and from a fresh Engine.  A change that alters a settled certificate
shows here.  Run (about 1 s):

    PYTHONPATH=src python golden/certificates_n8.py
"""

from pathlib import Path

from grassdense import Engine, enumerate_vectors

MAX_N, MAX_LEN = 8, 7
TABLE = Path(__file__).resolve().parent / "certificates_n8.txt"


def vectors():
    return [v for v in enumerate_vectors(MAX_N, MAX_LEN)
            if v == v.canonical() and not v.is_trivially_sparse]


def line(v, verdict) -> str:
    """The table line of the engine's verdict on v."""
    cert = verdict.certificate
    if cert is None:
        return f"{v} {verdict.status.value}\n"
    steps = [" ".join([s.rule_id, *(f"{k}={val}" for k, val in s.params), "->",
                       *map(str, s.outputs)])
             for s in cert.steps]
    return " | ".join([f"{v} {cert.status.value}", *steps]) + "\n"


def main() -> None:
    engine = Engine()
    lines = [line(v, engine.decide(v)) for v in vectors()]
    TABLE.write_text("".join(lines))
    print(f"wrote {len(lines)} certificates to {TABLE}")


if __name__ == "__main__":
    main()
