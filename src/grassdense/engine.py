"""Decision engine: decide density by walking one chain of rewrite rules.

At each canonical form (lex-smaller of a vector and its complement) the
walk takes the first step that applies: the first base rule that fires, the
dimension count first (a leaf); else domination; else the first step of the
first reduction in registry order, on the form before its complement.  The
walk stops at a leaf, and the verdict is what that step settles
(RewriteStep.settles).  No second step is ever tried: a form met twice in
one call, or one where no rule fires, answers Unknown.  Engine.memo keeps
each form's first steps (one, or a Complement step and the reduction on the
complement) for the lifetime of the Engine, which its caller holds, so a
later walk through that form takes them without firing a rule; it holds
steps, never a verdict, and nothing for a form where no rule fires.
last_nodes counts the forms whose steps the latest call computed.

Every reduction is Iff.  Domination, the one SparseIf step, always points at
a seed, which its own base step proves sparse other than by the dimension
count; each base rule fires on a vector iff it fires on the complement, so
the walk ends at the seed's Sparse leaf.  As defence in depth, a chain with
a SparseIf step that ends at a Dense leaf answers Unknown, so the engine
never emits a certificate that verify_certificate rejects.

A settled verdict carries its Certificate: the chain from the queried vector
to a leaf.  verify_certificate re-fires every step independently of the
engine: a rule's step must be among those the rule, read from the live
registry, returns on its input; a step of an unregistered rule is malformed.
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


# the domination seed store covers ambients and lengths up to these
DOMINATION_AMBIENT_CAP = 12
DOMINATION_LEN_CAP = 6


class Engine:
    """The walk, with a memo of first steps by canonical form."""

    def __init__(self):
        self.memo: dict[DimensionVector, tuple[RewriteStep, ...]] = {}
        self._seed_cache: dict[int, tuple[DimensionVector, ...]] = {}
        self.last_nodes = 0

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
                    found = self._base_steps(v)
                    if (found and found[0].rule_id != TRIVIALLY_SPARSE
                            and found[0].settles is Status.SPARSE):
                        seeds.append(v)
        out = tuple(seeds)
        self._seed_cache[n] = out
        return out

    def _base_steps(self, v: DimensionVector) -> list[RewriteStep]:
        """The steps of the first base rule that settles v."""
        for fn in rules.BASE_RULES.values():
            found = fn(v)
            if found:
                return found
        return []

    # -- walk ----------------------------------------------------------------

    def decide(self, d: DimensionVector) -> Verdict:
        self.last_nodes = 0
        steps: list[RewriteStep] = []
        walked: set[DimensionVector] = set()
        form = d
        while True:
            rep = form.canonical()
            if rep != form:
                steps.append(rules.rule_complement(form))
            if rep in walked:
                return Verdict()
            walked.add(rep)
            nxt = self.memo.get(rep)
            if nxt is None:
                self.last_nodes += 1
                nxt = self._first_steps(rep)
                if not nxt:
                    return Verdict()
                self.memo[rep] = nxt
            steps += nxt
            if nxt[-1].settles is not None:
                break
            form = nxt[-1].outputs[0]
        status = steps[-1].settles
        if status is Status.DENSE and any(s.direction == SPARSE_IF for s in steps):
            return Verdict()
        return Verdict(Certificate(d, status, tuple(steps)))

    def _first_steps(self, rep: DimensionVector) -> tuple[RewriteStep, ...]:
        """rep's first step, after the complement step a reduction on the
        complement needs; () when no rule fires."""
        found = (self._base_steps(rep)
                 or rules.rule_domination_sparse(rep, self._domination_seeds(rep.ambient)))
        if found:
            return (found[0],)
        comp = rep.complement()
        for fn in rules.REDUCTION_RULES.values():
            found = fn(rep)
            if found:
                return (found[0],)
            found = fn(comp)
            if found:
                return (rules.rule_complement(rep), found[0])
        return ()


# ---------------------------------------------------------------------------
# certificate verification (independent of engine state)
# ---------------------------------------------------------------------------

def _refire_matches(step: RewriteStep) -> bool:
    rid = step.rule_id
    if rid == COMPLEMENT:
        return step == rules.rule_complement(step.input)
    if rid == DOMINATION:
        return step in rules.rule_domination_sparse(step.input, set(step.outputs))
    fn = rules.BASE_RULES.get(rid) or rules.REDUCTION_RULES.get(rid)
    return fn is not None and step in fn(step.input)


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
    leaf = cert.steps[-1].settles
    if leaf is None:
        raise MalformedCertificateError("chain does not end in a leaf")

    # polarity: Iff edges carry either verdict to the root, SparseIf only Sparse
    if leaf is Status.DENSE and any(step.direction == SPARSE_IF for step in cert.steps[:-1]):
        return False
    if cert.status is not leaf:
        return False

    return all(_refire_matches(step) for step in cert.steps)
