"""Verified evaluation of finite trigonometric sums.

Finite sums of cosine/sine prefixes against powers of shifted
cotangent, cosecant, tangent, or secant factors (and products of a
shifted cosecant or secant with a second shifted factor) are computed
along three paths:

  * closed forms and their multi-index power generalizations,
  * direct compensated summation of the defining terms,
  * residue reconstruction: the w^-1 coefficient of a contour
    integrand's local series at its interior pole.

The closed form and the residue path share the coefficient tables, the
kernel and the product identity, so only the direct sum is independent
of them. `trigsum verify` sweeps the paths against each other over
deterministic grids.
"""

from .closed_form import closed_form_value, corollary_value, theorem_sum
from .coefficients import (
    apostol_coeff,
    apostol_coeff_table,
    bernoulli,
    coefficient_cap,
    cot_coeff,
    csc_coeff,
)
from .errors import NumericError, ParameterError
from .families import (
    POWER_FAMILIES,
    RESIDUE_FAMILIES,
    Family,
    FamilyTraits,
    SumSpec,
    SumValue,
    TRAITS,
    pole_order,
    validate_params,
)
from .multiindex import (
    CompositionTuple,
    cot_coeff_product,
    csc_coeff_product,
    enumerate_compositions,
)
from .oracle import conditioning, direct_sum, term_magnitude_sum
from .residue_engine import (
    LaurentSeries,
    boundary_residues,
    expand_factor,
    residue_at_interior_pole,
    series_mul,
    series_pow,
    sum_via_residues,
)

__version__ = "0.1.0"

__all__ = [
    "CompositionTuple",
    "Family",
    "FamilyTraits",
    "LaurentSeries",
    "NumericError",
    "POWER_FAMILIES",
    "ParameterError",
    "RESIDUE_FAMILIES",
    "SumSpec",
    "SumValue",
    "TRAITS",
    "apostol_coeff",
    "apostol_coeff_table",
    "bernoulli",
    "boundary_residues",
    "closed_form_value",
    "coefficient_cap",
    "conditioning",
    "corollary_value",
    "cot_coeff",
    "cot_coeff_product",
    "csc_coeff",
    "csc_coeff_product",
    "direct_sum",
    "enumerate_compositions",
    "expand_factor",
    "pole_order",
    "residue_at_interior_pole",
    "series_mul",
    "series_pow",
    "sum_via_residues",
    "term_magnitude_sum",
    "theorem_sum",
    "validate_params",
    "__version__",
]
