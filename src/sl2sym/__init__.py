"""Exact sl2-actions on symmetric polynomials and Young diagrams.

Two actions by differential operators on the algebra of symmetric
polynomials in n variables are realized in the Schur basis, together with
their lowest-weight (kernel) spaces, the decomposition into irreducible
modules, character and multiplicity formulas, and the transported
operators on the vector space spanned by Young diagrams.  All arithmetic
is exact over the rationals."""

from .combinatorics import (
    alpha_tuples,
    gamma,
    gaussian_binomial,
    partitions,
    sylvester_cayley,
)
from .polyring import (
    Poly,
    alternant,
    elementary_poly,
    homogeneous_poly,
    poly_to_schur,
    power_sum_poly,
    rho1_apply,
    rho2_apply,
    schur_to_poly,
    sigma_slice,
    staircase,
    z_generator_poly,
)
from .symfunc import (
    SchurVector,
    elementary_schur,
    multiply,
    pieri_e1,
    power_sum_schur,
    z_generator_schur,
    z_monomial_schur,
)
from .sl2_actions import (
    LowestWeightVector,
    act_rho1,
    act_rho2,
    character_finite,
    decompose_finite,
    lowest_weight_basis_rho1,
    lowest_weight_space_rho2,
    vd_realization,
    weight_of_alpha,
)
from .young import (
    DiagramVector,
    KerovParams,
    hat_apply,
    kerov_apply,
    nabla,
    phi,
    phi_inverse,
    pi_k,
    tilde_apply,
    xi_minus,
    zeta,
)
from .exprlang import EvalError, ParseError, evaluate, parse, print_expr

__all__ = [
    "DiagramVector",
    "EvalError",
    "KerovParams",
    "LowestWeightVector",
    "ParseError",
    "Poly",
    "SchurVector",
    "act_rho1",
    "act_rho2",
    "alpha_tuples",
    "alternant",
    "character_finite",
    "decompose_finite",
    "elementary_poly",
    "elementary_schur",
    "evaluate",
    "gamma",
    "gaussian_binomial",
    "hat_apply",
    "homogeneous_poly",
    "kerov_apply",
    "lowest_weight_basis_rho1",
    "lowest_weight_space_rho2",
    "multiply",
    "nabla",
    "parse",
    "partitions",
    "phi",
    "phi_inverse",
    "pi_k",
    "pieri_e1",
    "poly_to_schur",
    "power_sum_poly",
    "power_sum_schur",
    "print_expr",
    "rho1_apply",
    "rho2_apply",
    "schur_to_poly",
    "sigma_slice",
    "staircase",
    "sylvester_cayley",
    "tilde_apply",
    "vd_realization",
    "weight_of_alpha",
    "xi_minus",
    "z_generator_poly",
    "z_generator_schur",
    "z_monomial_schur",
    "zeta",
]
