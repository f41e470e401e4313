"""Verified evaluation of finite trigonometric sums.

Finite sums of cosine/sine prefixes against powers of shifted
cotangent, cosecant, tangent, or secant factors (and cosecant-times-
oscillator triple products) are computed three independent ways:

  * closed forms and their multi-index power generalizations,
  * direct compensated summation,
  * residue reconstruction through truncated Laurent series.

The three paths must agree; `trigsum verify` sweeps them against each
other over deterministic grids.
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
    TRIPLE_FAMILIES,
    Family,
    FamilyTraits,
    SumSpec,
    SumValue,
    TRAITS,
    is_classical,
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
    IntegrandDescriptor,
    LaurentSeries,
    boundary_residues,
    expand_factor,
    residue_at_interior_pole,
    series_add,
    series_eval,
    series_from_coeffs,
    series_mul,
    series_pow,
    series_reciprocal,
    series_scale,
    sum_via_residues,
)

__version__ = "0.1.0"

__all__ = [
    "CompositionTuple",
    "Family",
    "FamilyTraits",
    "IntegrandDescriptor",
    "LaurentSeries",
    "NumericError",
    "POWER_FAMILIES",
    "ParameterError",
    "RESIDUE_FAMILIES",
    "SumSpec",
    "SumValue",
    "TRAITS",
    "TRIPLE_FAMILIES",
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
    "is_classical",
    "pole_order",
    "residue_at_interior_pole",
    "series_add",
    "series_eval",
    "series_from_coeffs",
    "series_mul",
    "series_pow",
    "series_reciprocal",
    "series_scale",
    "sum_via_residues",
    "term_magnitude_sum",
    "theorem_sum",
    "validate_params",
    "__version__",
]
