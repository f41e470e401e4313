"""Verified evaluation of finite trigonometric sums.

Finite sums of cosine/sine prefixes against powers of shifted
cotangent, cosecant, tangent, or secant factors (and products of a
shifted cosecant or secant with a second shifted factor) are computed
along three paths, one public entry each:

  * closed_form_value: the closed forms and, for a power above the
    first, their multi-index generalization;
  * direct_sum: direct compensated summation of the defining terms;
  * sum_via_residues: residue reconstruction, the w^-1 coefficient of a
    contour integrand's local series at its interior pole.

The closed form and the residue path share the coefficient tables, the
kernel and the product identity, so only the direct sum is independent
of them. `trigsum verify` sweeps the paths against each other over
deterministic grids. The layers' own helpers (Laurent series,
composition tuples, the coefficient cap) are imported from their
modules.
"""

from .closed_form import closed_form_value
from .coefficients import apostol_coeff_table, bernoulli, cot_coeff, csc_coeff
from .errors import NumericError, ParameterError
from .families import (
    POWER_FAMILIES,
    RESIDUE_FAMILIES,
    Family,
    SumSpec,
    SumValue,
    TRAITS,
    validate_params,
)
from .oracle import conditioning, direct_sum, term_magnitude_sum
from .residue_engine import boundary_residues, residue_at_interior_pole, sum_via_residues

__version__ = "0.1.0"

__all__ = [
    "Family",
    "NumericError",
    "POWER_FAMILIES",
    "ParameterError",
    "RESIDUE_FAMILIES",
    "SumSpec",
    "SumValue",
    "TRAITS",
    "apostol_coeff_table",
    "bernoulli",
    "boundary_residues",
    "closed_form_value",
    "conditioning",
    "cot_coeff",
    "csc_coeff",
    "direct_sum",
    "residue_at_interior_pole",
    "sum_via_residues",
    "term_magnitude_sum",
    "validate_params",
    "__version__",
]
