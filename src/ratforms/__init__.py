"""Exact detection and classification of algebraic constraints of rational functions."""

from .calculus import separability_identity
from .classify import (
    DependenceCertificate,
    FormReport,
    classify_trivariate,
    cube_identities,
    dependence_certificate,
    fit_bivariate,
    verify_certificate,
    verify_twisted_identities,
)
from .dimension import (
    DoublingMap,
    doubling_map,
    image_dimension,
    is_nondegenerate,
)
from .modular import DEFAULT_PRIMES, primes_below, rng_for
from .oracle import annihilating_poly, symbolic_rank
from .poly import BadPrimeError, Poly, divexact, poly_gcd
from .ratfun import (
    DegenerateSpecializationError,
    ParseError,
    PoleError,
    RatFun,
    compose_numerator,
    parse,
)

__all__ = [
    "Poly",
    "BadPrimeError",
    "poly_gcd",
    "divexact",
    "RatFun",
    "parse",
    "ParseError",
    "PoleError",
    "DegenerateSpecializationError",
    "compose_numerator",
    "DEFAULT_PRIMES",
    "primes_below",
    "rng_for",
    "DoublingMap",
    "doubling_map",
    "image_dimension",
    "is_nondegenerate",
    "annihilating_poly",
    "symbolic_rank",
    "separability_identity",
    "DependenceCertificate",
    "FormReport",
    "dependence_certificate",
    "verify_certificate",
    "fit_bivariate",
    "classify_trivariate",
    "cube_identities",
    "verify_twisted_identities",
]
