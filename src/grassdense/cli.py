"""Command-line interface.

Subcommands: decide, verify, classify, enumerate, family.  decide answers
every vector with one verdict, Dense or Sparse, that carries one kind of
evidence: an engine certificate, or an oracle report when the engine leaves
the vector Unknown; no other caller falls back to the oracle.  Exit codes
for decide: 0 = Dense, 1 = Sparse, 3 = error, no verdict.  Every command exits
3 on bad input: a bad vector or family base, a vector past the parser's entry
ceiling, or a stabilizer system past the oracle's ceiling prints one
`error: <msg>` line on stderr, a bad option prints the usage first, and an
internal error prints its traceback.  decide results are cached as
append-only JSONL (default ~/.cache/grassdense/verdicts.jsonl, override with
GRASSDENSE_CACHE), keyed by canonical form, seed, samples and version, and
served only to the vector the record answered (a vector and its complement
share a key, not a certificate).  Without a home directory, decide warns
once and skips the default cache; --no-cache never looks for it.  A lookup
parses only the lines that can hold its record: a line in the writer's
layout for another canonical form is skipped unread, so damage to it is not
reported; any other line that is not a readable Dense or Sparse record is
skipped with a warning on stderr.  A record appended after a cut-off last
line starts a line of its own.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from . import __version__
from .core import DimensionVector, Status, parse
from .engine import Engine, Certificate, Verdict
from .families import classification_json, classify_size, enumerate_vectors, \
    fibonacci_family, repeat_family
from .oracle import OracleReport, VerdictClass, oracle_decide
from . import rules

EXIT_DENSE = 0
EXIT_SPARSE = 1
EXIT_USAGE = 3
_EXIT_CODES = {Status.DENSE.value: EXIT_DENSE, Status.SPARSE.value: EXIT_SPARSE}

# human-readable labels for rule ids (printed by --trace and --help)
RULE_LABELS = {
    rules.L3: "restrict to span",
    rules.SUBSEQ_2N: "2n subsequence",
    rules.L8: "complementary pair",
    rules.L9: "span intersect",
    rules.L10: "intersection swap",
    rules.LENGTH4: "length-4 table",
    rules.EXCESS_L1: "excess collapse",
    rules.DOMINATION: "dominates sparse",
    rules.COMPLEMENT: "complement",
    rules.TRIVIALLY_SPARSE: "dimension count",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _vec_json(v: DimensionVector) -> dict:
    return {"dims": list(v.dims), "n": v.ambient}


def _trace_json(cert: Optional[Certificate]) -> list:
    if cert is None:
        return []
    return [
        {"rule": s.rule_id, "direction": s.direction, "params": s.params_dict(),
         "from": str(s.input), "to": [str(o) for o in s.outputs]}
        for s in cert.steps
    ]


def _oracle_json(report) -> Optional[dict]:
    if report is None:
        return None
    return {"prime": report.prime, "primes": list(report.primes), "seed": report.seed,
            "samples": report.samples, "stab_dim": report.stab_dim,
            "expected": report.expected, "class": report.verdict_class.value,
            "anomalies": list(report.anomalies)}


def _record(d: DimensionVector, verdict: Verdict, report: Optional[OracleReport],
            key: dict) -> dict:
    """The record of the engine's verdict, or of the oracle's report on an Unknown."""
    status = verdict.status
    if report is not None:
        status = Status.DENSE if report.is_dense else Status.SPARSE
    return {
        "vector": _vec_json(d),
        "status": status.value,
        "method": "engine" if report is None else "oracle",
        "trivially_sparse": status is Status.SPARSE and d.is_trivially_sparse,
        "trace": _trace_json(verdict.certificate),
        "oracle": _oracle_json(report),
        "key": key,
        "version": __version__,
        "timestamp": _now(),
    }


def _params(params: dict) -> str:
    # tuple params come back from the cache as lists
    return ", ".join(f"{k}={tuple(v) if isinstance(v, list) else v}" for k, v in params.items())


def _reason(record: dict) -> str:
    if record["trace"]:
        leaf = record["trace"][-1]
        label = RULE_LABELS.get(leaf["rule"], leaf["rule"])
        bits = _params(leaf["params"])
        return f"{label}: {bits}" if bits else label
    r = record["oracle"]
    if r["class"] == VerdictClass.CERTIFIED_DENSE.value:
        return (f"certified: stabilizer dimension {r['stab_dim']} equals expected "
                f"{r['expected']} (prime {r['prime']}, seed {r['seed']})")
    return (f"monte-carlo: stabilizer dimension {r['stab_dim']} > expected "
            f"{r['expected']} on {r['samples']} samples")


def _render(record: dict, cached: bool, trace: bool) -> str:
    """The text answer of decide: status and reason, then with trace one line
    per step of the record's certificate."""
    lines = [f"{Status(record['status']).name} ({_reason(record)})"
             + (" (cached)" if cached else "")]
    for depth, s in enumerate(record["trace"] if trace else ()):
        label = RULE_LABELS.get(s["rule"], s["rule"])
        params = _params(s["params"])
        arrow = " -> " + ", ".join(s["to"]) if s["to"] else ""
        lines.append(f"{'  ' * depth}{s['from']}  [{label}/{s['direction']}"
                     f"{': ' + params if params else ''}]{arrow}")
    return "\n".join(lines) + "\n"


# -- cache -------------------------------------------------------------------

def _cache_path() -> Optional[Path]:
    """The cache file; None, with a warning, when there is no home directory."""
    env = os.environ.get("GRASSDENSE_CACHE")
    if env:
        return Path(env)
    try:
        return Path.home() / ".cache" / "grassdense" / "verdicts.jsonl"
    except RuntimeError as exc:
        sys.stderr.write(f"warning: cache unusable ({exc})\n")
        return None


# sort_keys puts "key" first in every line _cache_append writes, and
# "canonical" first within it: each line starts so, then the canonical form
_RECORD_PREFIX = '{"key": {"canonical": '


def _cache_lookup(path: Path, want: tuple) -> Optional[dict]:
    """The last readable record, Dense or Sparse, whose (key, vector) is want.

    A line in the writer's layout for another canonical form cannot match
    want and is skipped unread, so damage to it is not reported here; every
    other line is parsed and checked, and one that is not a readable record
    is skipped with a warning."""
    if not path.exists():
        return None
    mine = _RECORD_PREFIX + json.dumps(want[0]["canonical"]) + ","
    hit = None
    try:
        with path.open(errors="replace") as fh:
            for i, line in enumerate(fh, 1):
                line = line.strip()
                if not line or (line.startswith(_RECORD_PREFIX) and not line.startswith(mine)):
                    continue
                try:
                    rec = json.loads(line)
                    if (rec.get("key"), rec.get("vector")) != want:
                        continue
                    _EXIT_CODES[rec["status"]], _render(rec, cached=True, trace=True)
                except Exception:  # not a JSON object, not a record, or not a verdict
                    sys.stderr.write(f"warning: skipping corrupt cache line {i} in {path}\n")
                    continue
                hit = rec  # last write wins
    except OSError as exc:
        sys.stderr.write(f"warning: cache unreadable ({exc})\n")
        return None
    return hit


def _cache_append(path: Path, record: dict) -> None:
    line = json.dumps(record, sort_keys=True) + "\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("ab+") as fh:
            if fh.seek(0, os.SEEK_END):  # a cut-off last line must not swallow this record
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = "\n" + line
            fh.write(line.encode())
    except OSError as exc:
        sys.stderr.write(f"warning: cache not written ({exc})\n")


def _at_least(low: int, text: str) -> int:  # checked before any work starts
    if int(text) < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
    return int(text)


def _positive(text: str) -> int:
    return _at_least(1, text)


def _ambient(text: str) -> int:
    return _at_least(2, text)


def _seed(text: str) -> int:  # one seed keys one stream of words
    if _at_least(0, text) >= 2**64:
        raise argparse.ArgumentTypeError(f"must be < 2^64, got {text}")
    return int(text)


# -- subcommands ---------------------------------------------------------------

def cmd_decide(args) -> int:
    d = parse(args.vector)
    # the version keeps verdicts cached under one rule set from the next
    key = {"canonical": str(d.canonical()), "seed": args.seed, "samples": args.samples,
           "version": __version__}
    cache = None if args.no_cache else _cache_path()
    want = (key, _vec_json(d))  # the key is shared with the complement
    cached = None if cache is None else _cache_lookup(cache, want)
    if cached is None:
        verdict, report = Engine().decide(d), None
        if verdict.status is Status.UNKNOWN:
            report = oracle_decide(d, samples=args.samples, seed=args.seed)
            for msg in report.anomalies:
                sys.stderr.write(f"warning: {msg}\n")
        record = _record(d, verdict, report, key)
        if cache is not None:
            _cache_append(cache, record)
    else:
        record = dict(cached, timestamp=_now())

    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        sys.stdout.write(_render(record, cached is not None, args.trace))
    return _EXIT_CODES[record["status"]]


def cmd_verify(args) -> int:
    max_len = args.max_n + 1
    engine = Engine()
    t0 = time.perf_counter()
    total = unknown = 0
    disagreements = []
    for d in enumerate_vectors(args.max_n, max_len):
        total += 1
        v = engine.decide(d)
        if v.status is Status.UNKNOWN:
            unknown += 1
            print(f"UNKNOWN {d}")
            continue
        rep = oracle_decide(d, samples=args.samples, seed=args.seed)
        if rep.is_dense != (v.status is Status.DENSE):
            disagreements.append((d, v.status.value, rep.verdict_class.value))
            print(f"DISAGREE {d}: engine={v.status.value} oracle={rep.verdict_class.value} "
                  f"stab={rep.stab_dim} expected={rep.expected}")
    dt = time.perf_counter() - t0
    print(f"{total} vectors checked (n <= {args.max_n}, length <= {max_len}) in {dt:.1f}s")
    print(f"{unknown} unknown")
    print(f"{len(disagreements)} disagreements")
    return EXIT_DENSE if not disagreements else EXIT_SPARSE


def cmd_classify(args) -> int:
    c = classify_size(args.size)
    sys.stdout.write(classification_json(c) if args.json else c.to_text())
    return EXIT_DENSE


def _print_vectors(vecs, as_json: bool) -> int:
    if as_json:
        print(json.dumps([_vec_json(v) for v in vecs]))
    else:
        for v in vecs:
            print(v)
    return EXIT_DENSE


def cmd_enumerate(args) -> int:
    vecs = enumerate_vectors(args.max_n, args.max_len, args.max_size)
    return _print_vectors(vecs, args.json)


def cmd_family(args) -> int:
    build = fibonacci_family if args.kind == "fibonacci" else repeat_family
    return _print_vectors(build(parse(args.base), args.k), args.json)


def _build_parser() -> _Parser:
    labels = "\n".join(f"  {rid:16s} {label}" for rid, label in sorted(RULE_LABELS.items()))
    p = _Parser(prog="grassdense",
                description="Decide density of diagonal projective actions on "
                            "products of Grassmannians.",
                epilog="trace rule labels:\n" + labels,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decide", help="decide one vector, e.g. \"1,2,2;5\" or \"(1^2,2;5)\"")
    d.add_argument("vector")
    d.add_argument("--json", action="store_true")
    d.add_argument("--trace", action="store_true")
    d.add_argument("--seed", type=_seed, default=0)
    d.add_argument("--samples", type=_positive, default=3)
    d.add_argument("--no-cache", action="store_true")
    d.set_defaults(fn=cmd_decide)

    v = sub.add_parser("verify", help="sweep engine against the sampling oracle")
    v.add_argument("--max-n", type=_ambient, required=True)
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--samples", type=_positive, default=2)
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("classify", help="classification of dense vectors by maximal entry")
    c.add_argument("--size", type=int, required=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_classify)

    e = sub.add_parser("enumerate", help="list vectors in graded order")
    e.add_argument("--max-n", type=_ambient, required=True)
    e.add_argument("--max-len", type=_positive, required=True)
    e.add_argument("--max-size", type=_positive, default=None)
    e.add_argument("--json", action="store_true")
    e.set_defaults(fn=cmd_enumerate)

    f = sub.add_parser("family", help="build a structured family from a base vector")
    f.add_argument("kind", choices=("fibonacci", "repeat"))
    f.add_argument("--base", required=True)
    f.add_argument("-k", type=int, required=True)
    f.add_argument("--json", action="store_true")
    f.set_defaults(fn=cmd_family)
    return p


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception:  # exit 1 would read as Sparse
        traceback.print_exc()
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
