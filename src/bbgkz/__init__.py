"""Exact-arithmetic tools for better behaved hypergeometric systems.

The public surface mirrors the pipeline: group and degree data (`abelian`),
cone layers and volumes (`polyhedral`), graded quotient dimensions (`ring`),
truncated solution germs (`solver`), character lifting (`torsion`), and the
batch runner (`cli`).
"""

from .abelian import (AbelianGroup, Character, DualElement, GroupElement,
                      NoDegreeFunctional, NotSpanning, char_value, pair,
                      validate_data)
from .polyhedral import Cone, GradedSemigroup, NotPointed, build_semigroup, k_prim
from .ring import (DimReport, FVector, NondegeneracyRetriesExhausted, certifies,
                   hat_quotient_dims, hat_restriction_rank, is_nondegenerate,
                   jacobian_dims, r1_dims, random_rational_x)
from .solver import (GermStack, InconsistentSystem, exact_rank, filtration_dims,
                     solve_recursion)
from .torsion import (DegenerateQuotient, QuotientProblem, ResidualTooLarge,
                      build_quotient, lift_and_verify, p_rho)

__version__ = "1.0.0"
