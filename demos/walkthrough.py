#!/usr/bin/env python3
"""Tour of the decision engine on a handful of dimension vectors.

Decides a few configurations of subspaces in P^{n-1}, prints the verdict
with the closing rule, and shows one full reduction trace.  Run:

    python demos/walkthrough.py
"""

from grassdense import Engine, parse

SHOWCASE = [
    "(1^2,2^2;3)",    # four lines in P^2: dimension count is tight but fails
    "(1,2,2;5)",      # a point and two lines in P^4
    "(1^4;3)",        # four points in P^2
    "(2,3,3;4)",      # total 2n with only three factors: still dense
    "(2^2,3^2;4)",    # excess 6 in ambient 4
    "(1^3,2,3,5;8)",  # one rung of the recursive tower
    "(5^4,13;14)",
    "(3^5;10)",       # fails the dimension count outright
]


def main() -> None:
    decide = Engine().decide  # one engine, so later calls reuse its memo
    for text in SHOWCASE:
        d = parse(text)
        verdict = decide(d)
        closing = verdict.certificate.steps[-1] if verdict.certificate else None
        why = f"{closing.rule_id}/{closing.direction}" if closing else "-"
        print(f"{str(d):>16}  {verdict.status.value:<6}  expected stab dim "
              f"{d.expected_stab_dim:>3}   [{why}]")

    print()
    d = parse("(1^2,3^2,4;5)")
    verdict = decide(d)
    print(f"full reduction of {d} ({verdict.status.value}):")
    for step in verdict.certificate.steps:
        outs = ", ".join(str(o) for o in step.outputs) or "leaf"
        print(f"  {step.input} --{step.rule_id}--> {outs}")

    # density is invariant under d_i -> n - d_i
    comp = d.complement()
    assert decide(comp).status is verdict.status
    print(f"complement {comp} agrees: {decide(comp).status.value}")


if __name__ == "__main__":
    main()
