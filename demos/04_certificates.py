"""Build, verify, and corrupt machine-checkable dependence certificates.

A certificate for (P, s) is a nonzero bivariate polynomial A(p, q) with
A(P, s) = 0 as an exact identity of rational functions.  A certificate is
proven when it is found, by the proportionality of its homogenized parts
to the denominator and numerator of P; verify_certificate re-checks one
from scratch by the exact expansion of A(P, s), which reads nothing
modulo a prime.
"""

from fractions import Fraction

from ratforms import (
    DependenceCertificate,
    Poly,
    dependence_certificate,
    parse,
    verify_certificate,
)

TRI = ("x", "y", "z")


def main() -> None:
    P = parse("(x*(y + z)^3 + 1)/(x*(y + z)^3 - 1)", TRI)
    s = parse("x*(y + z)^3", TRI)
    cert = dependence_certificate(P, s)
    ann = cert.annihilator
    print(f"P = {P.to_str(TRI)}")
    print(f"s = {s.to_str(TRI)}")
    print(f"annihilator: {ann.to_str(('p', 'q'))} = 0 at (p, q) = (P, s)")
    print(f"degree bound: {cert.degree_bound}")
    print(f"verify_certificate: {verify_certificate(cert, P, s)}")

    terms = dict(ann.terms)
    key = sorted(terms)[0]
    terms[key] = terms[key] + Fraction(1)
    bad = DependenceCertificate(Poly(terms, 2), cert.degree_bound, True)
    print(f"after corrupting one coefficient: {verify_certificate(bad, P, s)}")

    independent = parse("x + y + x^2*y^3", ("x", "y"))
    print()
    print("independent pair (x + y + x^2*y^3, x):",
          dependence_certificate(independent, parse("x", ("x", "y"))))


if __name__ == "__main__":
    main()
