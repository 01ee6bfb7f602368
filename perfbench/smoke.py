"""Smoke test of the benchmark on tiny inputs (a few seconds).

    python3 perfbench/smoke.py

Checks that every workload, traced and untraced, emits exactly the metrics
named in BENCHMARK.json as numbers, that the checks pass on untouched
outputs, and that tampered outputs (an edited golden entry, an edited cache
record) are counted as failures.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import sys

import run

sys.path.insert(0, run.SRC)
import workloads  # noqa: E402  (needs the sources on sys.path)


class TinyVerify(workloads.VerifyN8):
    slices = 2

    def __init__(self, seed, root):
        super().__init__(seed, root)
        vectors = list(workloads.families.enumerate_vectors(5, 4))
        self.parts = [vectors[k::self.slices] for k in range(self.slices)]
        self.order = [0, 1]


class TinyOracle(workloads.OracleN30):
    vectors = ("(1^4;3)", "(2^2,3;5)", "(1^2,2^2;3)")


class TinyClassify(workloads.Classify1to4):
    sizes = (1, 2, 3)


class TamperedClassify(TinyClassify):
    def golden(self, size):
        text = super().golden(size)
        return text.replace('"excess": 2', '"excess": 3', 1) if size == 2 else text


class TinyDecide(workloads.DecideCli):
    calls = 10

    def draw_pool(self, rng):
        return ["(1,2,2;5)", "(1^2,3^2,4;5)", "(2^3;6)", "(1^3;4)"]


class TamperedDecide(TinyDecide):
    def check_pass(self, inputs, cache, codes):
        with open(cache) as fh:
            lines = fh.readlines()
        rec = json.loads(lines[0])
        rec["status"] = "Sparse" if rec["status"] == "Dense" else "Dense"
        lines[0] = json.dumps(rec) + "\n"
        with open(cache, "w") as fh:
            fh.writelines(lines)
        return super().check_pass(inputs, cache, codes)


def evaluate(cls, trace: int, spec: dict) -> dict:
    wl = cls(7, run.ROOT)
    try:
        return run.evaluate(wl, 0.0, trace, spec, [0.1, 0.2, 0.3], f"smoke-{wl.name}")
    finally:
        wl.close()


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(run.OUT, exist_ok=True)
    problems = []
    for cls in (TinyVerify, TinyOracle, TinyClassify, TinyDecide):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = evaluate(cls, trace, spec)
            names = [m["name"] for m in spec[key]]
            if list(res["metrics"]) != names:
                problems.append(f"{cls.name} trace {trace}: metrics differ from BENCHMARK.json")
            if not all(isinstance(m["value"], float) for m in res["metrics"].values()):
                problems.append(f"{cls.name} trace {trace}: a metric value is not a number")
            if res["failed"] or not res["correct"] or res["attempted"] < 1:
                problems.append(f"{cls.name} trace {trace}: checks failed {res['failures'][:3]}")
            if trace == 0 and not all(res["metrics"][n]["value"] > 0 for n in names):
                problems.append(f"{cls.name}: an end-to-end metric is not positive")
    for cls in (TamperedClassify, TamperedDecide):
        res = evaluate(cls, 0, spec)
        if not res["error_rate"] > 0:
            problems.append(f"{cls.__name__}: tampered output not detected")
    for line in problems:
        print("FAIL", line)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
