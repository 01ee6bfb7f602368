"""grassdense benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload oracle-n30 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Builds inputs from --seed, repeats passes of the workload until --seconds
have elapsed (always finishing the pass in progress), checks the outputs
after the timed loop, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json; with
--trace 1 they are the per_layer list, measured in passes with the tracing
hooks installed, alternated with untraced passes of the same inputs to give
the tracing overhead.  The full result (run metadata, every layer value,
failure list) is also written under perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 9
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct % of
    the samples at or below it."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def run_ops(inputs, op, latencies: list, tracer=None) -> list:
    """Run op on each input in turn, timing each call into latencies; an
    op that raises is recorded as an OpError and the loop goes on."""
    from workloads import OpError

    out = []
    for x in inputs:
        if tracer is not None:
            tracer.op += 1
        t0 = perf_counter()
        try:
            y = op(x)
        except Exception as exc:  # reported as a failed check, never timed away
            y = OpError(exc)
        latencies.append(perf_counter() - t0)
        out.append(y)
    return out


def timed_pass(wl, inputs, latencies, tracer=None) -> tuple[float, object]:
    def ops(xs, op, timed=True):
        return run_ops(xs, op, latencies if timed else [], tracer)

    t0 = perf_counter()
    out = wl.run_pass(inputs, ops)
    return perf_counter() - t0, out


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Import plus input generation, each time in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload,
             "--seed", str(seed)], capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def probe(workload: str, seed: int) -> None:
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, ROOT)
    wl.pass_inputs(0)
    elapsed = perf_counter() - t0
    wl.close()
    print(repr(elapsed))


def run_metadata(args) -> dict:
    import grassdense
    import numpy

    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "grassdense": grassdense.__version__,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def measure(wl, seconds: float) -> dict:
    latencies, pass_times, passes = [], [], []
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        inputs = wl.pass_inputs(k)
        dt, out = timed_pass(wl, inputs, latencies)
        pass_times.append(dt)
        passes.append((inputs, out))
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = sorted(latencies)
    return {
        "passes": passes, "ops": len(lat), "pass_times": pass_times,
        "values": {
            "wall_s": statistics.median(pass_times),
            "ops_per_s": len(lat) / sum(pass_times),
            "op_p50_ms": percentile(lat, 50) * 1e3,
            "op_tail_ms": percentile(lat, wl.tail_pct) * 1e3,
            "peak_rss_mb": rss_mb,
        },
    }


def measure_traced(wl, seconds: float, spans_path: str) -> dict:
    from tracing import Hooks, Tracer, layer_metrics

    inputs = wl.pass_inputs(0)
    tracer = Tracer(keep_spans=True)
    plain, traced, passes, absent = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        dt, out = timed_pass(wl, inputs, [])
        plain.append(dt)
        passes.append((inputs, out))
        hooks = Hooks(tracer).install()
        try:
            dt, out = timed_pass(wl, inputs, [], tracer)
        finally:
            hooks.uninstall()
        absent = hooks.absent
        tracer.keep_spans = False  # spans of the first traced pass only
        traced.append(dt)
        passes.append((inputs, out))
    tracer.write_spans(spans_path)
    values = layer_metrics(tracer, len(traced))
    values["trace.overhead_pct"] = 100 * (statistics.median(traced) / statistics.median(plain) - 1)
    return {"passes": passes, "ops": len(inputs) * len(passes), "values": values,
            "absent": absent, "pass_times": {"untraced": plain, "traced": traced}}


def evaluate(wl, seconds: float, trace: int, spec: dict, setup: list, tag: str) -> dict:
    """Measure wl, check its outputs and return the full result; its first
    four keys are the result line."""
    if trace:
        res = measure_traced(wl, seconds, os.path.join(OUT, f"spans-{tag}.tsv"))
        names = spec["per_layer"]
    else:
        res = measure(wl, seconds)
        res["values"]["setup_s"] = statistics.median(setup)
        names = spec["end_to_end"]
    t0 = perf_counter()
    attempted, failures = wl.check(res["passes"])
    check_s = perf_counter() - t0
    values = res["values"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in names}
    meta = {"ops": res["ops"], "passes": len(res["passes"]), "tail_pct": wl.tail_pct,
            "tail_samples_beyond": int(res["ops"] - -(-res["ops"] * wl.tail_pct // 100)),
            "setup_s_samples": setup, "pass_times": res["pass_times"], "check_s": check_s,
            "absent_hooks": res.get("absent", [])}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics, "error_rate": len(failures) / max(attempted, 1),
            "failures": failures, "meta": meta, "all_values": values}


def run_one(args, spec: dict) -> int:
    os.makedirs(OUT, exist_ok=True)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)} or all\n")
        return 2
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        full = evaluate(wl, args.seconds, args.trace, spec, setup, tag)
    finally:
        wl.close()
    full["meta"].update(run_metadata(args))
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(full, fh, indent=1)

    name, meta = args.workload, full["meta"]
    for metric, m in full["metrics"].items():
        print(f"{name}  {metric:34s} {m['value']:.6g} {m['unit']}")
    print(f"{name}  error_rate {full['failed']}/{full['attempted']} = {full['error_rate']:.6g}")
    for line in full["failures"][:20]:
        print(f"{name}  FAILED {line}")
    if meta["absent_hooks"]:
        print(f"{name}  absent hooks (reported as 0): {', '.join(meta['absent_hooks'])}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, so memo state and peak RSS do not
    leak from one workload into the next."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        import grassdense
    except (OSError, ImportError) as exc:
        sys.stderr.write(f"cannot load the benchmark spec or the grassdense sources: {exc}\n")
        return 2
    if not os.path.abspath(grassdense.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"grassdense imported from {grassdense.__file__}, not from {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
