#!/usr/bin/env python3
"""Certificates are independently checkable — and tampering is caught.

Produces a certificate, re-verifies it from scratch, then applies a few
hand-rolled mutations and shows each one being rejected.  Run:

    python demos/certificate_audit.py
"""

import dataclasses

from grassdense import (
    Engine, MalformedCertificateError, Status, parse, verify_certificate,
)


def show(cert) -> None:
    print(f"certificate for {cert.root} ({cert.status.value}):")
    for step in cert.steps:
        outs = ", ".join(str(o) for o in step.outputs) or "-"
        print(f"  {step.rule_id:<14} {step.direction:<10} {step.input} -> {outs}")


def audit(tag: str, cert) -> None:
    try:
        ok = verify_certificate(cert)
    except MalformedCertificateError as exc:
        print(f"  {tag:<28} rejected (malformed: {exc})")
        return
    print(f"  {tag:<28} {'accepted' if ok else 'rejected (does not re-fire)'}")


def main() -> None:
    cert = Engine().decide(parse("(1^2,3^2,4;5)")).certificate
    show(cert)
    print()
    print("audits:")
    audit("pristine", cert)

    # claim the opposite verdict for the same chain
    opposite = Status.DENSE if cert.status is Status.SPARSE else Status.SPARSE
    flipped = dataclasses.replace(cert, status=opposite)
    audit("status flipped", flipped)

    # swap the first two steps: breaks the input/output chaining
    if len(cert.steps) >= 2:
        swapped = dataclasses.replace(
            cert, steps=(cert.steps[1], cert.steps[0]) + cert.steps[2:])
        audit("steps swapped", swapped)

    # graft the chain onto a different root
    regrafted = dataclasses.replace(cert, root=parse("(1^2,3^2,4;6)"))
    audit("root replaced", regrafted)

    # drop the closing base step: chain no longer ends at a leaf fact
    trimmed = dataclasses.replace(cert, steps=cert.steps[:-1])
    audit("leaf removed", trimmed)

    # fabricate a rule name
    fake = dataclasses.replace(
        cert, steps=cert.steps[:-1]
        + (dataclasses.replace(cert.steps[-1], rule_id="Oracle"),))
    audit("unknown rule id", fake)


if __name__ == "__main__":
    main()
