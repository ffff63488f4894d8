"""Classify constrained bivariate functions as Q(F + G) or Q(F * G).

A bivariate P is constrained iff the ratio P_x / P_y is separable, i.e.
factors as u(x) * v(y).  On the separable side the split integrates to
either a sum F(x) + G(y) or a product F(x) * G(y), and the verdict is
backed by an exact dependence certificate.  NoConstraint means the image
of the doubling map has full dimension 4, and a full-rank sample proves it.
"""

from ratforms import fit_bivariate, parse

BI = ("x", "y")

CASES = (
    "(x + y)^2",
    "(x*y - 1)/(x*y + 1)",
    "(1/(x + 1) + y^2)^2 + 3",
    "x + y + x^2*y^3",
    "x + 1",
)


def main() -> None:
    for expr in CASES:
        rep = fit_bivariate(parse(expr, BI))
        print(f"{expr}")
        print(f"    verdict: {rep.verdict}")
        if rep.fitted is not None:
            print(f"    F = {rep.fitted['r1'].to_str(BI)}")
            print(f"    G = {rep.fitted['r2'].to_str(BI)}")
            print(f"    s = {rep.fitted['s'].to_str(BI)}")
        if rep.certificate is not None:
            ann = rep.certificate.annihilator.to_str(("p", "q"))
            print(f"    certificate: {ann} = 0 at (p, q) = (P, s)")
        print()


if __name__ == "__main__":
    main()
