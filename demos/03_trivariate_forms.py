"""Classify constrained trivariate functions into canonical forms.

The four positive verdicts and their shapes (q is any nonconstant univariate
rational function, r1, r2, r3 are univariate rational parts):

    GroupAdditive          q(r1(x) + r2(y) + r3(z))
    GroupMultiplicative    q(r1(x) * r2(y) * r3(z))
    Field                  q(r1(x) * (r2(y) + r3(z))^n)
    Twisted                q((r1(x) + r2(y)) / (r2(y) + r3(z)))

Functions that pass the constraint test but match no template come back
Unresolved together with diagnostics naming the first failing step.
"""

from ratforms import classify_trivariate, parse

TRI = ("x", "y", "z")

CASES = (
    "(x + y + z)^2",
    "x + y + z + x*y + x*z + y*z + x*y*z",
    "x^2*(y^3 + z)^5",
    "(x^2 + y)/(y + z^3)",
    "((x^2 + 1)*(y^2 + 1)*(z^2 + 1))^2",
)


def main() -> None:
    for expr in CASES:
        rep = classify_trivariate(parse(expr, TRI))
        print(f"{expr}")
        print(f"    verdict: {rep.verdict}")
        if rep.fitted is not None:
            for key in ("r1", "r2", "r3", "s"):
                print(f"    {key} = {rep.fitted[key].to_str(TRI)}")
        if rep.pivot is not None:
            print(f"    pivot variable: {TRI[rep.pivot - 1]}, exponent n = {rep.exponent}")
        if rep.certificate is not None:
            ann = rep.certificate.annihilator.to_str(("p", "q"))
            print(f"    certificate: {ann} = 0 at (p, q) = (P, s)")
        if rep.verdict == "Unresolved":
            failing = [k for k, v in rep.diagnostics.items() if v is False]
            print(f"    failing steps: {', '.join(failing)}")
        print()


if __name__ == "__main__":
    main()
