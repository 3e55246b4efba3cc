"""Exact combinatorics of alternating sign matrices: the lattice order,
prism tableaux, pipe dreams and subword-complex facets, determinantal
initial ideals, and the polynomials they all compute."""

from .algebra import Monomial, Polynomial, ZeroPolynomialError, poly_from_monomials
from .asm import (
    Asm,
    AsmValidationError,
    MatrixParseError,
    MonotoneTriangle,
    PartialAsm,
    asm_from_corner_sum,
    asm_join,
    asm_leq,
    asm_meet,
    canonical_completion,
    corner_rows,
    embed,
    enumerate_asms,
    essential_set,
    identity_asm,
    inversions,
    monotone_triangle,
    rank_conditions,
    validate_asm,
    validate_partial_asm,
)
from .perm import (
    Perm,
    asm_from_shape_tuple,
    bigr_of,
    bigrassmannian_encode,
    deg,
    grassmannian_encode,
    min_perm_set,
    perm_set,
)
from .prism import (
    PrismShapeSpec,
    PrismTableau,
    Rssyt,
    asm_polynomial,
    bigrassmannian_model,
    enumerate_rssyt,
    parabolic_model,
    prism_set,
    prism_weight,
)
from .pipedream import (
    PlusDiagram,
    delta_facets,
    delta_fmax,
    min_perm_schubert_sum,
    phi,
    pipe_dreams_of,
    schubert_polynomial,
    verify_bijection,
)
from .ideal import (
    SRComplexFacets,
    initial_ideal,
    multidegree,
    stanley_reisner_facets,
)

__version__ = "0.1.0"
