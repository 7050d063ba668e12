"""Exact arithmetic in imaginary quadratic orders, Bianchi-group matrix
computation, circle discriminants, congruence subgroups, and certified
construction of normal-closure elements in co-compact circle stabilizers.
"""

from .circles import (CircleTriple, circle_action, circle_at_origin,
                      cocompact_certificate, discriminant, hermitian_action,
                      is_quadratic_nonresidue, primitive_triple,
                      smallest_nonresidue, stab_form)
from .congruence import (FiniteSubgroup, ResidueMatrix, enumerate_psl2,
                         gamma8_generators, group_closure, in_gamma8,
                         in_gamma_n, phi_n)
from .pipeline import (CompressionWitness, Params, construct_series,
                       construct_witness, parse_witnesses, render_witnesses,
                       validate_fig8, validate_general, verify_witness)
from .psl2 import IsometryClass, Mat2, PslElement, eval_word, parse_psl
from .quadint import QuadInt, parse_quadint
from .quat import QuadRat, QuatAlgebra, Quaternion, in_order, order_unit_to_stab, rho
