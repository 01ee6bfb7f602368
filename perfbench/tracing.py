"""Per-layer tracing for the benchmark, installed from outside the package.

Each hook wraps one public function (or Engine method) of a grassdense
module and records a span (name, start, end, parent span, op id) into an
in-memory Tracer.  The wrapper replaces the original wherever the package
holds a reference to it: every module namespace that imported the name and
the rule tables in ``rules``.  A hook whose target does not exist is listed
as absent instead of failing, so the tracer survives refactors that delete
or rename functions.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LINALG_FUNCS = ("mod_row_reduce", "mod_rank", "mod_nullspace", "bareiss_rank",
                "rational_nullspace", "random_prime")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # one span = (start, end) in times and (name id, parent, op) in ids;
        # flat arrays keep a few hundred thousand spans small in memory
        self.times = array("d")
        self.ids = array("q")
        self.stack: list = []         # open spans: [span index, child time]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self.count = defaultdict(float)
        self.maxima = defaultdict(float)
        self.hit_latencies: list[float] = []
        self.open_names = defaultdict(int)
        self.op = -1

    def wrap(self, name, fn, after=None, before=None):
        """Return fn wrapped in a span called name.

        before(args) runs first and its value is passed on to
        after(args, result, seconds), which runs once the span is closed.
        """
        tr = self
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            parent = tr.stack[-1] if tr.stack else None
            index = len(tr.ids) // 3
            if tr.keep_spans:
                tr.times.extend((0.0, 0.0))
                tr.ids.extend((name_id, parent[0] if parent else -1, tr.op))
            frame = [index, 0.0]
            tr.stack.append(frame)
            tr.open_names[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tr.open_names[name] -= 1
                tr.stack.pop()
                dur = t1 - t0
                a = tr.agg[name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if tr.keep_spans:
                    tr.times[2 * index] = t0
                    tr.times[2 * index + 1] = t1
            if after:
                after(args, result, dur, state)
            return result

        return traced

    def inside(self, name: str) -> bool:
        return self.open_names[name] > 0

    def write_spans(self, path: str) -> None:
        """Write the spans as tab-separated lines, times in microseconds
        relative to the first span."""
        if not self.times:
            return
        t_base = self.times[0]
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_us\tdur_us\tparent\top\n")
            for i in range(len(self.times) // 2):
                t0, t1 = self.times[2 * i], self.times[2 * i + 1]
                name_id, parent, op = self.ids[3 * i:3 * i + 3]
                fh.write(f"{i}\t{self.names[name_id]}\t{(t0 - t_base) * 1e6:.1f}\t"
                         f"{(t1 - t0) * 1e6:.1f}\t{parent}\t{op}\n")


class Hooks:
    """Installs the benchmark's hooks on the grassdense package."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self.restore: list = []
        self.absent: list[str] = []
        pkg = sys.modules["grassdense"]
        self.mods = {name: sys.modules[f"grassdense.{name}"]
                     for name in ("core", "linalg", "oracle", "rules", "engine", "families", "cli")
                     if f"grassdense.{name}" in sys.modules}
        rules = self.mods.get("rules")
        # every place the package keeps a reference to a hooked function
        self.containers = [vars(pkg)] + [vars(m) for m in self.mods.values()]
        for table in ("BASE_RULES", "REDUCTION_RULES"):
            if isinstance(getattr(rules, table, None), dict):
                self.containers.append(getattr(rules, table))

    # -- patching --------------------------------------------------------

    def function(self, module: str, attr: str, name: str, **hooks) -> None:
        fn = getattr(self.mods.get(module), attr, None)
        if not callable(fn):
            self.absent.append(name)
            return
        self._replace(fn, self.tr.wrap(name, fn, **hooks))

    def _replace(self, fn, wrapper) -> None:
        for container in self.containers:
            for key, value in list(container.items()):
                if value is fn:
                    container[key] = wrapper
                    self.restore.append((container, key, fn))

    def method(self, cls, attr: str, name: str, **hooks) -> None:
        fn = vars(cls).get(attr) if cls is not None else None
        if not callable(fn):
            self.absent.append(name)
            return
        setattr(cls, attr, self.tr.wrap(name, fn, **hooks))
        self.restore.append((cls, attr, fn))

    def uninstall(self) -> None:
        for target, key, fn in reversed(self.restore):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self.restore.clear()

    # -- the hook set ----------------------------------------------------

    def install(self) -> "Hooks":
        for fn in LINALG_FUNCS:
            self.function("linalg", fn, f"linalg.{fn}", after=self._elim_cost(fn))
        self.function("oracle", "sample_configuration", "oracle.sample_configuration")
        self.function("oracle", "stabilizer_nullity", "oracle.stabilizer_nullity",
                      after=self._system_shape)
        self.function("oracle", "oracle_decide", "oracle.decide", after=self._oracle_report)
        self.function("core", "parse", "core.parse")
        self._install_rules()
        engine_cls = getattr(self.mods.get("engine"), "Engine", None)
        self.method(engine_cls, "decide", "engine.decide",
                    before=self._engine_before, after=self._engine_after)
        self.method(engine_cls, "decide_with_oracle", "engine.decide_with_oracle",
                    after=self._fallback)
        self.function("families", "classify_size", "families.classify_size",
                      after=self._size_time)
        self.function("cli", "main", "cli.main", before=self._cli_before, after=self._cli_after)
        self.function("cli", "_cache_lookup", "cli.cache_lookup",
                      before=self._cache_size, after=self._cache_result)
        return self

    def _install_rules(self) -> None:
        rules = self.mods.get("rules")
        tr = self.tr

        def fired(rule_id):
            def after(args, result, dur, state):
                tr.count[f"rules.{rule_id}.fired"] += bool(result)
                if tr.inside("engine.decide"):
                    tr.count["engine.rule_calls"] += 1
            return after

        for table in (getattr(rules, "BASE_RULES", {}), getattr(rules, "REDUCTION_RULES", {})):
            for rule_id, fn in list(table.items()):
                self._replace(fn, tr.wrap(f"rules.{rule_id}", fn, after=fired(rule_id)))
        for attr, rule_id in (("rule_domination_sparse", "Domination"),
                              ("rule_complement", "Complement")):
            self.function("rules", attr, f"rules.{rule_id}", after=fired(rule_id))

    # -- observers -------------------------------------------------------

    def _elim_cost(self, fn_name):
        """Count the multiply-subtract updates an elimination of this input
        shape and rank performs, and the int64 bytes it reads and writes.
        Computed from shapes, not measured."""
        tr = self.tr
        if fn_name not in ("mod_row_reduce", "mod_rank", "mod_nullspace"):
            return None

        def after(args, result, dur, state):
            shape = getattr(args[0], "shape", ())
            if len(shape) != 2:
                return
            rows, cols = shape
            if fn_name == "mod_row_reduce":
                rank = result.shape[0]
            elif fn_name == "mod_rank":
                rank = int(result)
            else:
                rank = cols - result.shape[1]
            updated = cols * (rank * rows - rank * (rank + 1) // 2)
            tr.count["oracle.elim.ops_computed"] += 2 * updated
            tr.count["oracle.elim.bytes_computed"] += 16 * updated
        return after

    def _system_shape(self, args, result, dur, state):
        c = args[0]
        n = c.ambient
        rows = sum(u.shape[1] * (n - u.shape[1]) for u in c.subspaces)
        mx = self.tr.maxima
        mx["oracle.system.rows_max"] = max(mx["oracle.system.rows_max"], rows)
        mx["oracle.system.cols_max"] = max(mx["oracle.system.cols_max"], n * n)

    def _oracle_report(self, args, report, dur, state):
        count = self.tr.count
        count["oracle.samples"] += report.samples
        cls = getattr(report.verdict_class, "value", "")
        count["oracle.certified_dense"] += cls == "CertifiedDense"
        count["oracle.monte_carlo_sparse"] += cls == "MonteCarloSparse"

    def _size_time(self, args, result, dur, state):
        self.tr.count[f"families.classify_size.l{args[0]}.s"] += dur

    def _engine_before(self, args):
        return len(args) > 1 and args[1].canonical() in getattr(args[0], "memo", {})

    def _engine_after(self, args, verdict, dur, root_hit):
        eng = args[0]
        count, mx = self.tr.count, self.tr.maxima
        count["engine.nodes"] += getattr(eng, "last_nodes", 0)
        count["engine.budget_exhausted"] += bool(getattr(eng, "last_budget_exhausted", False))
        count["engine.unknown"] += getattr(verdict.status, "value", "") == "Unknown"
        count["engine.root_memo_hits"] += root_hit
        mx["engine.memo.size"] = max(mx["engine.memo.size"], len(getattr(eng, "memo", ())))
        if self.tr.inside("families.classify_size") and self.tr.inside("engine.decide_with_oracle"):
            count["families.candidates"] += 1

    def _fallback(self, args, verdict, dur, state):
        self.tr.count["engine.oracle_fallbacks"] += getattr(verdict, "oracle", None) is not None

    def _cli_before(self, args):
        return self.tr.count["cli.cache.hits"]

    def _cli_after(self, args, code, dur, hits_before):
        if self.tr.count["cli.cache.hits"] > hits_before:
            self.tr.hit_latencies.append(dur)

    def _cache_size(self, args):
        try:
            return os.path.getsize(args[0])
        except OSError:
            return 0

    def _cache_result(self, args, record, dur, size):
        count = self.tr.count
        count["cli.cache.bytes"] += size
        count["cli.cache.hits" if record is not None else "cli.cache.misses"] += 1


def layer_metrics(tr: Tracer, passes: int) -> dict[str, float]:
    """Per-pass values of every span and counter the tracer saw."""
    out: dict[str, float] = {}
    for name, (calls, total, self_s) in tr.agg.items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.s"] = total / passes
        out[f"{name}.self_s"] = self_s / passes
    for name, value in tr.count.items():
        out[name] = value / passes
    out.update(tr.maxima)
    decides = tr.agg["engine.decide"][0] if "engine.decide" in tr.agg else 0
    nodes = tr.count.get("engine.nodes", 0.0)
    out["engine.nodes_per_decide"] = nodes / decides if decides else 0.0
    out["engine.rule_calls_per_node"] = tr.count.get("engine.rule_calls", 0.0) / nodes if nodes else 0.0
    out["cli.hit_ms_p50"] = statistics.median(tr.hit_latencies) * 1e3 if tr.hit_latencies else 0.0
    return out
