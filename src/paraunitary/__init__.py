"""Exact paraunitary matrices from complete symmetric orthogonal idempotents.

The package works entirely in exact arithmetic: rationals, cyclotomic
fields of a fixed conductor, or prime fields.  Build idempotent sets from
orthonormal bases, group rings, matrix rows, or tensor products; assemble
paraunitary and pseudo-paraunitary matrices from them; and verify every
claimed identity as a polynomial identity, never numerically.
"""

from .constructors import (
    ArrangementPlan,
    ClearedMatrix,
    MonomialAssignment,
    TangleVariant,
    all_tangle_variants,
    belevitch_block,
    block_arrangement,
    compose,
    latin_square_from_group,
    monomial_clear,
    monomial_sum,
    pseudo_from_rows,
    simple_monomial_sum,
    spectral_unitary,
    tangle,
    unit_monomial,
)
from .groups import (
    Character,
    CharacterTable,
    GroupRingElement,
    GroupTable,
    builtin_group,
    character_table,
    cyclic,
    dihedral,
    elementary_abelian_2,
    embed_group_ring,
    group_ring_idempotents,
    symmetric_3,
)
from .hadamard import HadamardReport, hadamard_check, specialize
from .idempotents import (
    IdempotentSet,
    conjugate_set,
    diagonal_set,
    factor_rank1,
    from_group,
    from_matrix_rows,
    from_orthogonal_basis_finite,
    from_orthonormal_basis,
    idempotent_inverse,
    merge,
    projection,
    realify,
    tensor_sets,
    verify_set,
)
# laurent.exact_div is not exported (no module here calls it); perfbench/tracer.py wraps it by name
from .laurent import LaurentPoly, poly_from_text, poly_to_text
from .polymatrix import (
    PolyMatrix,
    VerificationReport,
    assemble_blocks,
    combination,
    determinant,
    determinant_cofactor,
    is_paraunitary,
    is_pseudo_paraunitary,
    mul,
    rank,
    tensor,
    trace,
)
from .scalars import (
    QQ,
    ExactScalar,
    RingDescriptor,
    cyclotomic as cyclotomic_ring,
    embed,
    is_unit_modulus,
    multiplicative_order,
    prime_field,
    root_of_unity,
    scalar_sqrt,
    sqrt2,
    zeta,
)

__version__ = "0.1.0"
