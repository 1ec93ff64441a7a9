"""Exact classification of monomial orders via integer level matrices."""

from types import ModuleType as _ModuleType

from .errors import (
    BudgetExceededError,
    DimensionMismatch,
    InvalidInputError,
    MonordersError,
    NotALatticeError,
    NotAnOrderError,
    NotPositiveTypeError,
    NotTriangularError,
    ParseError,
    SearchTooLargeError,
)
from .levels import (
    DEFAULT_SEARCH_CAP,
    LevelMatrix,
    PositiveTypeForm,
    WeylElement,
    canonical_form,
    compose,
    conjugate,
    inverse,
    is_order,
    is_upper_triangular,
    normalize_positive,
    order_violation,
)
from .duality import (
    DualLevel,
    dual_level,
    gorenstein_failing_row,
    gorenstein_via_dual,
    gorenstein_witnesses,
    is_gorenstein,
    is_lattice,
    is_projective,
    lattice_violation,
    projective_witness,
)
from .classify import (
    BASS_EICHLER_PERIOD_TWO,
    BASS_HEREDITARY,
    BASS_NOT,
    ClassificationReport,
    EichlerShape,
    classify,
    classify_eichler,
    eichler_shape_of_triangular,
    is_bass,
    is_hereditary,
    triangular_form,
    truncate,
)
from .oracle import DEFAULT_BUDGET, OverorderSet, bass_oracle, overorder_bound, overorders
from .census import (
    FILTERS,
    CensusClass,
    CensusQuery,
    CensusResult,
    census,
    match_family,
)
from .families import Family, load_families
from .levelio import (
    level_to_json_obj,
    level_to_text,
    load_level,
    parse_level,
    parse_level_json,
    parse_level_text,
)

__version__ = "0.1.0"

# every name imported above, in sorted order; not the submodules, which those imports
# also bind on the package
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))
)
