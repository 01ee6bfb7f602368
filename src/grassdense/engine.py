"""Decision engine: decide density by searching the rewrite rules.

The engine runs a depth-first search over canonical forms (lex-smaller of a
vector and its complement).  Every Engine searches the same registered
rules; it takes no options.  Base rules, the dimension count first, settle a
vector outright; Iff reductions recurse into a smaller vector; the one
SparseIf edge, domination of a known sparse vector, can only propagate
sparseness upward.  Dense / Sparse verdicts are memoized for the lifetime of
the Engine that found them, and every memo belongs to an Engine its caller
holds.  Unknown lives only in one decide call's visited set: a later call
searches again.  A call searches at most NODE_BUDGET nodes.

Every settled verdict carries a Certificate: a chain of rewrite steps from
the queried vector down to a leaf (a base-rule hit or a vacuous rewrite).
verify_certificate re-fires every step independently of the engine, and
calls a step of an unregistered rule malformed, so certificates are
checkable artifacts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .core import DimensionVector, Status, Verdict
from . import rules
from .rules import (
    RewriteStep, BASE_DENSE, BASE_SPARSE, IFF, SPARSE_IF,
    COMPLEMENT, DOMINATION, TRIVIALLY_SPARSE, RULE_IDS,
)


class MalformedCertificateError(ValueError):
    """Certificate is structurally broken (as opposed to failing its checks)."""


@dataclass(frozen=True)
class Certificate:
    """A chain of rewrite steps proving a density verdict.  steps[0].input is
    the root; each later step's input is the previous step's single output;
    the final step is a leaf (base verdict or vacuous)."""

    root: DimensionVector
    status: Status
    steps: tuple[RewriteStep, ...]


# nodes one decide call may search; read at call time
NODE_BUDGET = 50_000

# the domination seed store covers ambients and lengths up to these
DOMINATION_AMBIENT_CAP = 12
DOMINATION_LEN_CAP = 6


class Engine:
    """Rule search with a memo of settled verdicts.  Each decide call
    searches at most NODE_BUDGET nodes and visits each canonical form at
    most once: a form already visited in the call and not in the memo is in
    progress or failed, so it answers Unknown.  A repeated step costs no
    node: the first try left its child in the memo, in the visited set, or
    past the budget."""

    def __init__(self):
        self.memo: dict[DimensionVector, Verdict] = {}
        self._seed_cache: dict[int, tuple[DimensionVector, ...]] = {}
        self.last_nodes = 0
        self.last_budget_exhausted = False

    # -- domination seed store ------------------------------------------

    def _domination_seeds(self, n: int) -> tuple[DimensionVector, ...]:
        """Short vectors in ambient n that the base rules alone prove sparse
        (other than by the dimension count, which domination subsumes).
        Static per ambient, so batch decide order cannot change verdicts."""
        if n in self._seed_cache:
            return self._seed_cache[n]
        seeds: list[DimensionVector] = []
        if n <= DOMINATION_AMBIENT_CAP:
            for length in range(2, DOMINATION_LEN_CAP + 1):
                for dims in itertools.combinations_with_replacement(range(1, n), length):
                    v = DimensionVector(dims, n)
                    step = self._base_step(v)
                    if (step is not None and step.direction == BASE_SPARSE
                            and step.rule_id != TRIVIALLY_SPARSE):
                        seeds.append(v)
        out = tuple(seeds)
        self._seed_cache[n] = out
        return out

    def _base_step(self, v: DimensionVector) -> Optional[RewriteStep]:
        """The step of the first base rule that settles v."""
        for fn in rules.BASE_RULES.values():
            step = fn(v)
            if step is not None:
                return step
        return None

    # -- search ----------------------------------------------------------

    def decide(self, d: DimensionVector) -> Verdict:
        state = {"nodes": 0, "exhausted": False, "visited": set()}
        verdict = self._decide_rec(d, state)
        self.last_nodes = state["nodes"]
        self.last_budget_exhausted = state["exhausted"]
        return verdict

    def _with_prefix(self, d: DimensionVector, prefix: tuple[RewriteStep, ...],
                     verdict: Verdict) -> Verdict:
        if not prefix:
            return verdict
        cert = Certificate(d, verdict.status, prefix + verdict.certificate.steps)
        return Verdict(verdict.status, certificate=cert)

    def _settle(self, rep: DimensionVector, status: Status,
                steps: tuple[RewriteStep, ...]) -> Verdict:
        verdict = Verdict(status, certificate=Certificate(rep, status, steps))
        self.memo[rep] = verdict
        return verdict

    def _decide_rec(self, d: DimensionVector, state: dict) -> Verdict:
        rep = d.canonical()
        prefix = () if rep == d else (rules.rule_complement(d),)

        hit = self.memo.get(rep)
        if hit is not None:
            return self._with_prefix(d, prefix, hit)
        if rep in state["visited"]:
            return Verdict(Status.UNKNOWN)
        if state["nodes"] >= NODE_BUDGET:
            state["exhausted"] = True
            return Verdict(Status.UNKNOWN)
        state["nodes"] += 1

        step = self._base_step(rep)
        if step is not None:
            status = Status.DENSE if step.direction == BASE_DENSE else Status.SPARSE
            return self._with_prefix(d, prefix, self._settle(rep, status, (step,)))

        state["visited"].add(rep)
        verdict = self._search_reductions(rep, state)
        if verdict is not None:
            return self._with_prefix(d, prefix, verdict)
        return Verdict(Status.UNKNOWN)

    def _search_reductions(self, rep: DimensionVector, state: dict) -> Optional[Verdict]:
        comp = rep.complement()
        sides = ((rep, ()), (comp, (rules.rule_complement(rep),)))

        step = rules.rule_domination_sparse(rep, self._domination_seeds(rep.ambient))
        if step is not None:
            child = self._decide_rec(step.outputs[0], state)
            if child.status is Status.SPARSE:
                return self._settle(rep, Status.SPARSE,
                                    (step,) + child.certificate.steps)

        # every reduction is Iff, so any decided child settles rep
        for fn in rules.REDUCTION_RULES.values():
            for side, side_prefix in sides:
                for step in fn(side):
                    if step.is_vacuous:
                        return self._settle(rep, Status.DENSE, side_prefix + (step,))
                    child = self._decide_rec(step.outputs[0], state)
                    if child.status is not Status.UNKNOWN:
                        return self._settle(rep, child.status,
                                            side_prefix + (step,) + child.certificate.steps)
        return None


# ---------------------------------------------------------------------------
# certificate verification (independent of engine state)
# ---------------------------------------------------------------------------

_LEAF_DENSE = "dense"
_LEAF_SPARSE = "sparse"


def _leaf_kind(step: RewriteStep) -> Optional[str]:
    if step.outputs:
        return None
    if step.direction == BASE_DENSE:
        return _LEAF_DENSE
    if step.direction == BASE_SPARSE:
        return _LEAF_SPARSE
    if step.is_vacuous and step.direction == IFF:
        return _LEAF_DENSE
    return None


def _refire_matches(step: RewriteStep) -> bool:
    rid = step.rule_id
    if rid == COMPLEMENT:
        return (step.direction == IFF and not step.params
                and step.outputs == (step.input.complement(),))
    if rid == DOMINATION:
        p = step.params_dict()
        side = step.input if p.get("side") == "self" else step.input.complement()
        return (len(step.outputs) == 1 and step.direction == SPARSE_IF
                and side.dominates(step.outputs[0]))
    if rid in rules.BASE_RULES:
        return rules.BASE_RULES[rid](step.input) == step
    if rid in rules.REDUCTION_RULES:
        return step in rules.REDUCTION_RULES[rid](step.input)
    return False


def verify_certificate(cert: Certificate) -> bool:
    """Re-check a certificate from scratch.  Raises MalformedCertificateError
    for structural damage; returns False when the structure is fine but some
    step does not re-fire or the polarity does not support the claimed status.
    """
    if not isinstance(cert, Certificate):
        raise MalformedCertificateError("not a Certificate")
    if not isinstance(cert.root, DimensionVector) or not isinstance(cert.steps, tuple):
        raise MalformedCertificateError("bad root or steps container")
    if cert.status not in (Status.DENSE, Status.SPARSE):
        raise MalformedCertificateError("certificate must claim Dense or Sparse")
    if not cert.steps:
        raise MalformedCertificateError("empty step chain")
    for step in cert.steps:
        if not isinstance(step, RewriteStep):
            raise MalformedCertificateError("non-step in chain")
        if not (isinstance(step.input, DimensionVector) and isinstance(step.outputs, tuple)
                and all(isinstance(out, DimensionVector) for out in step.outputs)):
            raise MalformedCertificateError("step input or output is not a DimensionVector")
        if step.rule_id not in RULE_IDS:
            raise MalformedCertificateError(f"unknown rule_id {step.rule_id!r}")
        if step.direction not in (IFF, SPARSE_IF, BASE_DENSE, BASE_SPARSE):
            raise MalformedCertificateError(f"unknown direction {step.direction!r}")
    if cert.steps[0].input != cert.root:
        raise MalformedCertificateError("chain does not start at root")
    for prev, nxt in zip(cert.steps, cert.steps[1:]):
        if len(prev.outputs) != 1 or prev.outputs[0] != nxt.input:
            raise MalformedCertificateError("broken chain link")
        if prev.direction not in (IFF, SPARSE_IF):
            raise MalformedCertificateError("interior step is not an edge")
    leaf = _leaf_kind(cert.steps[-1])
    if leaf is None:
        raise MalformedCertificateError("chain does not end in a leaf")

    # polarity: Iff edges carry either verdict to the root, SparseIf only Sparse
    dense = leaf == _LEAF_DENSE
    if dense and any(step.direction == SPARSE_IF for step in cert.steps[:-1]):
        return False
    if (cert.status is Status.DENSE) != dense:
        return False

    return all(_refire_matches(step) for step in cert.steps)
