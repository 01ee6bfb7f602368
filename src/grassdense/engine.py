"""Decision engine: decide density by searching the rewrite rules.

The engine runs a depth-first search over canonical forms (lex-smaller of a
vector and its complement).  Every Engine searches the same registered
rules; it takes no options.  Base rules, the dimension count first, settle a
vector outright; Iff reductions recurse into a smaller vector; the one
SparseIf edge, domination of a known sparse vector, can only propagate
sparseness upward.  Engine.memo maps each settled canonical form to its
Certificate for the lifetime of the Engine, which its caller holds.  Unknown
lives only in one decide call's visited set: a later call searches again.  A
call searches at most NODE_BUDGET nodes, counted live in last_nodes.

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

from .core import DimensionVector, Status
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


@dataclass(frozen=True)
class Verdict:
    """The engine's answer: Unknown without a certificate, otherwise the
    certificate's status.  The oracle answers with an oracle.OracleReport."""

    certificate: Optional[Certificate] = None

    @property
    def status(self) -> Status:
        return Status.UNKNOWN if self.certificate is None else self.certificate.status


# nodes one decide call may search; read at call time
NODE_BUDGET = 50_000

# the domination seed store covers ambients and lengths up to these
DOMINATION_AMBIENT_CAP = 12
DOMINATION_LEN_CAP = 6


class Engine:
    """Rule search with a memo of certificates.  Each decide call
    searches at most NODE_BUDGET nodes and visits each canonical form at
    most once: a form already visited in the call and not in the memo is in
    progress or failed, so it answers Unknown.  A repeated step costs no
    node: the first try left its child in the memo, in the visited set, or
    past the budget."""

    def __init__(self):
        self.memo: dict[DimensionVector, Certificate] = {}
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
        self.last_nodes = 0
        self.last_budget_exhausted = False
        return Verdict(self._certify(d, set()))

    def _certify(self, d: DimensionVector,
                 visited: set[DimensionVector]) -> Optional[Certificate]:
        """d's certificate, or None: Unknown in this call."""
        rep = d.canonical()
        cert = self.memo.get(rep)
        if cert is None:
            if rep in visited:
                return None
            if self.last_nodes >= NODE_BUDGET:
                self.last_budget_exhausted = True
                return None
            self.last_nodes += 1
            visited.add(rep)
            cert = self._search(rep, visited)
            if cert is None:
                return None
            self.memo[rep] = cert
        if rep == d:
            return cert
        return Certificate(d, cert.status, (rules.rule_complement(d),) + cert.steps)

    def _search(self, rep: DimensionVector,
                visited: set[DimensionVector]) -> Optional[Certificate]:
        """rep's certificate: a base step, domination, or a decided reduction."""
        step = self._base_step(rep)
        if step is not None:
            return Certificate(rep, _leaf_status(step), (step,))

        step = rules.rule_domination_sparse(rep, self._domination_seeds(rep.ambient))
        if step is not None:
            child = self._certify(step.outputs[0], visited)
            if child is not None and child.status is Status.SPARSE:
                return Certificate(rep, Status.SPARSE, (step,) + child.steps)

        # every reduction is Iff, so any decided child settles rep
        sides = ((rep, ()), (rep.complement(), (rules.rule_complement(rep),)))
        for fn in rules.REDUCTION_RULES.values():
            for side, prefix in sides:
                for step in fn(side):
                    if step.is_vacuous:
                        return Certificate(rep, Status.DENSE, prefix + (step,))
                    child = self._certify(step.outputs[0], visited)
                    if child is not None:
                        return Certificate(rep, child.status, prefix + (step,) + child.steps)
        return None


# ---------------------------------------------------------------------------
# certificate verification (independent of engine state)
# ---------------------------------------------------------------------------

def _leaf_status(step: RewriteStep) -> Optional[Status]:
    """The verdict a leaf settles (a base-rule hit or a vacuous Iff
    rewrite); None for a step that is no leaf."""
    if step.outputs:
        return None
    if step.direction == BASE_DENSE or (step.is_vacuous and step.direction == IFF):
        return Status.DENSE
    if step.direction == BASE_SPARSE:
        return Status.SPARSE
    return None


def _refire_matches(step: RewriteStep) -> bool:
    rid = step.rule_id
    if rid == COMPLEMENT:
        return step == rules.rule_complement(step.input)
    if rid == DOMINATION:
        p = step.params_dict()
        side = step.input if p.get("side") == "self" else step.input.complement()
        return (len(step.outputs) == 1 and step.direction == SPARSE_IF
                and side.ambient == step.outputs[0].ambient and side.dominates(step.outputs[0]))
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
        if not (isinstance(step.rule_id, str) and isinstance(step.direction, str)):
            raise MalformedCertificateError("step rule_id or direction is not a str")
        if not (isinstance(step.params, tuple) and all(
                isinstance(kv, tuple) and len(kv) == 2 and isinstance(kv[0], str)
                for kv in step.params)):
            raise MalformedCertificateError("step params are not (name, value) pairs")
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
    leaf = _leaf_status(cert.steps[-1])
    if leaf is None:
        raise MalformedCertificateError("chain does not end in a leaf")

    # polarity: Iff edges carry either verdict to the root, SparseIf only Sparse
    if leaf is Status.DENSE and any(step.direction == SPARSE_IF for step in cert.steps[:-1]):
        return False
    if cert.status is not leaf:
        return False

    return all(_refire_matches(step) for step in cert.steps)
