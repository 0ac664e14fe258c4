"""Exact computation of Spin modules of orthogonal representations.

The library builds root systems with exact rational arithmetic, enumerates
Weyl groups and coset sections, computes characters (Weyl formula,
Freudenthal multiplicities, exterior invariants), and decomposes the reduced
Spin of orthogonal modules, including the isotropy modules of symmetric
pairs of both inner and outer type.
"""

from .errors import (
    BudgetExceeded,
    ConsistencyError,
    InvalidDescriptor,
    NonModuleCharacter,
    NotClosed,
    NotSelfDual,
    SpinCharError,
)
from .rootsys import (
    RootSystem,
    SpecialElements,
    Weight,
    bourbaki_numbering,
    build_root_system,
    dual_root_system,
    parse_descriptor,
    special_elements,
    subsystem,
)
from .weyl import (
    SubsystemDatum,
    WeylElement,
    cunning_parity,
    enumerate_weyl,
    l0_of,
    minimal_coset_reps,
)
from .charring import (
    Character,
    Decomposition,
    GradedPoincare,
    WeightSystem,
    decompose,
    freudenthal_weights,
    invariant_poincare,
    irreducible_character,
    multiplicity_of,
    plus_product,
    weyl_denominator,
    weyl_dimension,
)
from .spinmod import (
    DominantHalf,
    classify_coprimary,
    enumerate_dominant_halves,
    extreme_weights,
    frobenius_schur,
    is_coprimary,
    is_decomposably_generated,
    orthogonality_type,
    spin0_character,
    spin0_decomposition,
    spin_character,
    spin_scalar,
)
from .gradings import (
    Z2Grading,
    casimir_check,
    equal_rank_pair,
    grading_catalog,
    inner_grading,
    inner_gradings,
    kac_marks,
    outer_grading,
    spin_g1,
    verify_tau_identity,
)

__version__ = "0.1.0"
