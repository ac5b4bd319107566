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
# perfbench's tests read sl2sym.Poly, and its tracer sys.modules["sl2sym.polyring"]
from .polyring import Poly
from .symfunc import (
    SchurVector,
    multiply,
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
)
from .young import (
    DiagramVector,
    KerovParams,
    hat_apply,
    kerov_apply,
    phi,
    phi_inverse,
    tilde_apply,
)
from .exprlang import EvalError, ParseError, evaluate, parse

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
    "character_finite",
    "decompose_finite",
    "evaluate",
    "gamma",
    "gaussian_binomial",
    "hat_apply",
    "kerov_apply",
    "lowest_weight_basis_rho1",
    "lowest_weight_space_rho2",
    "multiply",
    "parse",
    "partitions",
    "phi",
    "phi_inverse",
    "power_sum_schur",
    "sylvester_cayley",
    "tilde_apply",
    "z_generator_schur",
    "z_monomial_schur",
]
