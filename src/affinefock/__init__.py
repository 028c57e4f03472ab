"""affinefock: exact free field realizations of affine Kac-Moody algebras.

The package realizes the induced modules attached to a parabolic subalgebra
of sl(n+1) as polynomial Fock spaces tensored with an inducing module, builds
the image of every affine generator as a finite normal-ordered operator, and
verifies the bracket relations by exact computation on states.  It holds
what the command line and the benchmark run; the reference implementations
that only the tests compare against (the loop algebra and the Killing form,
single creation and annihilation, gradings of a state, the PBW and vacuum
checks) live with the tests, in `tests/oracles.py`.
"""

from .fock import FockState, state_to_text
from .formal_dist import (
    DeltaKernel,
    LaurentPoly,
    annihilation_check,
    delta_identity_suite,
    multiply_by_field,
    residue_pair,
)
from .inducing import (
    axiom_check,
    character_module,
    evaluation_module,
    heisenberg_fock,
    natural_block_rep,
)
from .lie import (
    LieElement,
    ParabolicData,
    Root,
    bracket,
    build_sl,
    cartan_h,
    diag_element,
    form,
    matrix_unit,
    parabolic_decompose,
)
from .realization import (
    CENTRAL,
    NormalOrderedOperator,
    Realization,
    bernoulli,
    bracket_sweep,
    build_operator_explicit_sl,
    build_operator_general,
    series_expand,
)
from .sampling import Sampler

__all__ = [
    "CENTRAL",
    "DeltaKernel",
    "FockState",
    "LaurentPoly",
    "LieElement",
    "NormalOrderedOperator",
    "ParabolicData",
    "Realization",
    "Root",
    "Sampler",
    "annihilation_check",
    "axiom_check",
    "bernoulli",
    "bracket",
    "bracket_sweep",
    "build_operator_explicit_sl",
    "build_operator_general",
    "build_sl",
    "cartan_h",
    "character_module",
    "delta_identity_suite",
    "diag_element",
    "evaluation_module",
    "form",
    "heisenberg_fock",
    "matrix_unit",
    "multiply_by_field",
    "natural_block_rep",
    "parabolic_decompose",
    "residue_pair",
    "series_expand",
    "state_to_text",
]
