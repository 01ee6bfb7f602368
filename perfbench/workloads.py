"""The benchmark's workloads.

Each workload turns a seed into inputs, runs them as *passes* (a fixed-size
unit of work repeated until the run's time is up), and checks the outputs
after the timed loop.  Ops are timed one by one by the caller-supplied
``run_ops``; everything here calls the package through module attributes,
so hooks installed by ``tracing`` see the calls.

Why these: the cost of a user command sits in a different layer for each
of them (see README.md beside this file).  BENCHMARK.json runs oracle-n30,
classify-1to4 and decide-cli; verify-n8 and classify-1to5 run by name.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile

from grassdense import cli, core, engine, families, oracle, rules


class OpError:
    """An op that raised; always counted as a failed check."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def _rng(name: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{k}")


def _sample_seed(name: str, seed: int, k: int) -> int:
    return _rng(name, seed, k).getrandbits(31)


class Workload:
    """A workload: ``pass_inputs(k)`` builds the inputs of pass k from the
    seed, ``run_pass(inputs, run_ops)`` runs them through ``run_ops(inputs,
    op)``, which times each op (``timed=False`` runs them inside the pass
    without counting them as ops), and ``check(passes)`` returns the number of
    checks attempted and the failed ones.  ``tail_pct`` is the percentile
    reported as ``op_tail_ms``."""

    name: str
    tail_pct: float

    def close(self) -> None:
        """Remove whatever the workload created on disk."""


class VerifyN8(Workload):
    """`grassdense verify --max-n 8`: engine decide plus a 2-sample modular
    oracle cross-check on every vector with n <= 8 and length <= 9.

    The 19,440-vector sweep takes longer than one run, so it is cut into 16
    interleaved slices of the graded enumeration (each with the same mix of
    n and length); a pass is one slice with a fresh Engine, and the seed
    orders the slices and seeds the oracle."""

    name = "verify-n8"
    slices = 16
    tail_pct = 99.0

    def __init__(self, seed: int, root: str):
        vectors = list(families.enumerate_vectors(8, 9))
        self.parts = [vectors[k::self.slices] for k in range(self.slices)]
        self.order = _rng(self.name, seed, 0).sample(range(self.slices), self.slices)
        self.oracle_seed = _sample_seed(self.name, seed, 1)

    def pass_inputs(self, k: int) -> list:
        return self.parts[self.order[k % self.slices]]

    def run_pass(self, inputs, run_ops):
        eng = engine.Engine()

        def op(v):
            status = eng.decide(v).status
            if status is core.Status.UNKNOWN:
                return status, None
            report = oracle.oracle_decide(v, samples=2, seed=self.oracle_seed)
            return status, report.is_dense

        return run_ops(inputs, op)

    def check(self, passes) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        for inputs, outputs in passes:
            for v, out in zip(inputs, outputs):
                attempted += 1
                if isinstance(out, OpError):
                    failures.append(f"{v}: {out.text}")
                elif out[0] is core.Status.UNKNOWN:
                    failures.append(f"{v}: engine Unknown")
                elif out[1] != (out[0] is core.Status.DENSE):
                    failures.append(f"{v}: engine {out[0].value}, oracle dense={out[1]}")
        return attempted, failures

class OracleN30(Workload):
    """Single modular oracle samples on large systems (n = 25..30, up to
    ~900 columns): the four acceptance-criterion-10 vectors plus three more
    of that shape, one of them sparse.  A pass is one sample of each; the
    seed sets the sample seeds.  The count is odd so that the median op is
    the middle of one vector's samples, (7^4;28), not the edge between two
    vectors' latencies, which made op_p50_ms swing from run to run."""

    name = "oracle-n30"
    vectors = ("(10^3;30)", "(5^5;30)", "(1^10;30)", "(15,14;30)",
               "(9^3;27)", "(7^4;28)", "(12^2,13^2;25)")
    tail_pct = 70.0

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.parsed = [core.parse(s) for s in self.vectors]

    def pass_inputs(self, k: int) -> list:
        return [(v, _sample_seed(self.name, self.seed, k * 64 + i))
                for i, v in enumerate(self.parsed)]

    def run_pass(self, inputs, run_ops):
        return run_ops(inputs, lambda x: oracle.oracle_decide(x[0], samples=1, seed=x[1]))

    def check(self, passes) -> tuple[int, list[str]]:
        # the reference verdict comes from the engine, an independent decider
        reference = {v: engine.Engine().decide(v).status for v in self.parsed}
        attempted, failures = 0, []
        for inputs, reports in passes:
            for (v, s), rep in zip(inputs, reports):
                attempted += 1
                if isinstance(rep, OpError):
                    failures.append(f"{v} seed {s}: {rep.text}")
                elif rep.stab_dim is None or rep.stab_dim < v.expected_stab_dim:
                    failures.append(f"{v} seed {s}: stabilizer {rep.stab_dim} below "
                                    f"expected {v.expected_stab_dim}")
                elif rep.is_dense != (reference[v] is core.Status.DENSE):
                    failures.append(f"{v} seed {s}: oracle {rep.verdict_class.value}, "
                                    f"engine {reference[v].value}")
        return attempted, failures

class Classify1to4(Workload):
    """`classify_size(l)` for l = 1..4 through its default backend (one
    table-free Engine per size).  A pass is the calls in size order; the op
    is the call for the largest size, about 99 % of the pass (sizes 1-3
    take ~5 ms together and run untimed inside the pass).  Sizes 1-4 must
    be byte-equal to the golden files.

    Size 5 is left out of the benchmark because classify_size(5) is wrong
    at this commit: its tail holds three vectors that the oracle refutes
    (ROADMAP item 1), so every run would fail its check.  `classify-1to5`
    keeps that check: every size-5 tail member is checked with the oracle
    (seeded by the run seed), and later size-5 results must equal the
    first."""

    name = "classify-1to4"
    sizes = (1, 2, 3, 4)
    tail_pct = 50.0

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.golden_dir = os.path.join(root, "golden")

    def pass_inputs(self, k: int) -> list:
        return list(self.sizes)

    def run_pass(self, inputs, run_ops):
        return (run_ops(inputs[:-1], families.classify_size, timed=False)
                + run_ops(inputs[-1:], families.classify_size))

    def golden(self, size: int) -> str:
        with open(os.path.join(self.golden_dir, f"size{size}_classification.json")) as fh:
            return fh.read()

    def check(self, passes) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        goldens = {l: self.golden(l) for l in self.sizes if l <= 4}
        first_tail = None
        for inputs, outputs in passes:
            for size, c in zip(inputs, outputs):
                attempted += 1
                if isinstance(c, OpError):
                    failures.append(f"size {size}: {c.text}")
                    continue
                text = families.classification_json(c)
                if size in goldens:
                    if text != goldens[size]:
                        failures.append(f"size {size}: differs from golden")
                elif first_tail is None:
                    first_tail = text
                    attempted -= 1  # counted per tail member below
                    n, bad = self.check_tail(c)
                    attempted += n
                    failures += bad
                elif text != first_tail:
                    failures.append(f"size {size}: differs between passes")
        return attempted, failures

    def check_tail(self, c) -> tuple[int, list[str]]:
        bad = []
        for i, v in enumerate(c.exceptional_dense):
            rep = oracle.oracle_decide(v, samples=3, seed=_sample_seed(self.name, self.seed, i))
            if not rep.is_dense:
                bad.append(f"size-5 tail {v}: oracle stabilizer {rep.stab_dim} > "
                           f"expected {rep.expected} on {rep.samples} samples")
        return len(c.exceptional_dense), bad


class Classify1to5(Classify1to4):
    """Classify1to4 plus size 5; not in BENCHMARK.json (see Classify1to4)."""

    name = "classify-1to5"
    sizes = (1, 2, 3, 4, 5)


class DecideCli(Workload):
    """A closed-loop stream of in-process `grassdense decide <v>` calls with
    default flags (oracle auto, cache on).  The pool is 150 vectors (n in
    4..30, lengths 2..8, not trivially sparse, distinct up to complement),
    drawn once with a fixed seed: a pool redrawn per run made the run's
    cost hinge on which few expensive engine searches it happened to hold.
    A pass is 450 calls, every pool vector once plus 300 draws with
    replacement, shuffled by the run seed, against a cache file that starts
    empty: 150 misses (a cold Engine each) and 300 cache hits."""

    name = "decide-cli"
    pool_size, calls = 150, 450
    tail_pct = 97.5

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.pool = self.draw_pool(_rng(self.name, 0, 0))
        self.tmp = tempfile.mkdtemp(prefix="decide-cli-", dir=os.path.join(root, "perfbench", "out"))
        self.caches = 0

    def draw_pool(self, rng: random.Random) -> list[str]:
        pool, seen = [], set()
        while len(pool) < self.pool_size:
            n = rng.randint(4, 30)
            v = core.DimensionVector(tuple(rng.randint(1, n - 1) for _ in range(rng.randint(2, 8))), n)
            if not v.is_trivially_sparse and v.canonical() not in seen:
                seen.add(v.canonical())
                pool.append(str(v))
        return pool

    def pass_inputs(self, k: int) -> list:
        rng = _rng(self.name, self.seed, k)
        calls = self.pool + [rng.choice(self.pool) for _ in range(self.calls - len(self.pool))]
        rng.shuffle(calls)
        return calls

    def run_pass(self, inputs, run_ops):
        self.caches += 1
        cache = os.path.join(self.tmp, f"verdicts-{self.caches}.jsonl")
        os.environ["GRASSDENSE_CACHE"] = cache
        sink = io.StringIO()

        def op(text):
            sink.seek(0)
            sink.truncate()
            try:
                with contextlib.redirect_stdout(sink):
                    return cli.main(["decide", text])
            except SystemExit as exc:  # argparse usage errors
                return exc.code

        return cache, run_ops(inputs, op)

    def check(self, passes) -> tuple[int, list[str]]:
        attempted, failures = 0, []
        self.fresh = engine.Engine()  # independent of every Engine the CLI built
        self.verified: dict[str, tuple] = {}
        for inputs, (cache, codes) in passes:
            n, bad = self.check_pass(inputs, cache, codes)
            attempted += n
            failures += bad
        return attempted, failures

    def check_pass(self, inputs, cache, codes) -> tuple[int, list[str]]:
        """One check per call (exit code, same answer as the first call for
        the vector) and one per distinct vector (cache record, agreement
        with an independent Engine, certificate re-verification).  A record
        identical to one already verified in an earlier pass is not
        verified again."""
        failures, first = [], {}
        status_of = {0: "Dense", 1: "Sparse"}
        for text, code in zip(inputs, codes):
            if isinstance(code, OpError) or code not in status_of:
                failures.append(f"decide {text}: exit {getattr(code, 'text', code)}")
                continue
            key = str(core.parse(text).canonical())
            if first.setdefault(key, (text, code))[1] != code:
                failures.append(f"decide {text}: exit {code}, first answer {first[key][1]}")
        records = {}
        if os.path.exists(cache):
            with open(cache) as fh:
                for line in fh:
                    rec = json.loads(line)
                    records[rec["key"]["canonical"]] = rec
        for key, (text, code) in first.items():
            rec = records.get(key)
            if rec is None or rec["status"] != status_of[code]:
                failures.append(f"decide {text}: cache record missing or not {status_of[code]}")
                continue
            content = (rec["status"], json.dumps(rec["trace"]), json.dumps(rec["oracle"]))
            if self.verified.get(key) == content:
                continue
            status = self.fresh.decide(core.parse(text)).status
            if status is not core.Status.UNKNOWN and status.value != rec["status"]:
                failures.append(f"decide {text}: {rec['status']}, fresh engine {status.value}")
            elif rec["trace"] and not _certificate_ok(rec):
                failures.append(f"decide {text}: certificate does not verify")
            else:
                self.verified[key] = content
        return len(inputs) + len(first), failures

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _tuples(value):
    return tuple(_tuples(x) for x in value) if isinstance(value, list) else value


def _certificate_ok(rec: dict) -> bool:
    """Rebuild the certificate of a `decide` JSON record and re-verify it."""
    try:
        steps = tuple(
            rules.RewriteStep(s["rule"], s["direction"],
                              tuple(sorted((k, _tuples(v)) for k, v in s["params"].items())),
                              core.parse(s["from"]), tuple(core.parse(t) for t in s["to"]))
            for s in rec["trace"])
        root = core.DimensionVector(tuple(rec["vector"]["dims"]), rec["vector"]["n"])
        cert = engine.Certificate(root, core.Status(rec["status"]), steps)
        return engine.verify_certificate(cert)
    except (ValueError, KeyError, TypeError):
        return False


WORKLOADS = {w.name: w for w in (VerifyN8, OracleN30, Classify1to4, DecideCli, Classify1to5)}
