"""Exact arithmetic with linear differential operators in one distinguished
derivative Dx and parameter derivatives Dy1..Dyn over the rational-function
field Q(x, y1..yn), with left Groebner bases, elimination, shape bases,
linear changes of variables, and truncated power-series solving at an
ordinary origin.

All core objects (operators, rational functions, Groebner bases, series)
are immutable values: methods return new objects, so instances can be
shared freely across threads.
"""

from .arith import MultiPoly, RatFunc, format_poly, format_ratfunc, poly_gcd
from .errors import (
    ArityError,
    CyclicVectorNotFound,
    DegreeCapExceeded,
    DivisionByZero,
    InternalError,
    NonOrdinaryOrigin,
    NormalizationFailed,
    NotCyclic,
    NotNormalPosition,
    NotZeroDimensional,
    OreShapeError,
    ParseError,
    PoleAtOrigin,
    PoleAtPoint,
    ResourceLimit,
    TruncationTooSmall,
)
from .gb import GroebnerBasis, TermOrder, groebner_basis, left_reduce
from .ore import (
    OreOperator,
    TruncSeries,
    format_operator,
    format_series,
    ratfunc_to_series,
)
from .parsing import parse_ideal_file, parse_operator
from .series import (
    DEPENDENCE_FOUND,
    NO_DEPENDENCE,
    DRadicalVerdict,
    SolutionBasis,
    d_radical_check,
    in_normal_position_series,
    solve_series,
    wronskian_x,
)
from .shape import (
    QuotientAction,
    ShapeBasis,
    ShearParams,
    cyclic_vector,
    eliminate_dx,
    gauge_transform,
    in_normal_position,
    normalize_by_shear,
    quotient_action,
    shape_basis,
    shear_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "RatFunc",
    "poly_gcd",
    "format_poly",
    "format_ratfunc",
    "OreOperator",
    "TruncSeries",
    "format_operator",
    "format_series",
    "ratfunc_to_series",
    "TermOrder",
    "GroebnerBasis",
    "groebner_basis",
    "left_reduce",
    "QuotientAction",
    "quotient_action",
    "eliminate_dx",
    "in_normal_position",
    "ShapeBasis",
    "shape_basis",
    "ShearParams",
    "shear_ideal",
    "normalize_by_shear",
    "cyclic_vector",
    "gauge_transform",
    "SolutionBasis",
    "solve_series",
    "wronskian_x",
    "in_normal_position_series",
    "DRadicalVerdict",
    "DEPENDENCE_FOUND",
    "NO_DEPENDENCE",
    "d_radical_check",
    "parse_operator",
    "parse_ideal_file",
    "OreShapeError",
    "ParseError",
    "ArityError",
    "DivisionByZero",
    "PoleAtPoint",
    "PoleAtOrigin",
    "NonOrdinaryOrigin",
    "NotZeroDimensional",
    "NotNormalPosition",
    "NotCyclic",
    "DegreeCapExceeded",
    "TruncationTooSmall",
    "ResourceLimit",
    "NormalizationFailed",
    "CyclicVectorNotFound",
    "InternalError",
    "__version__",
]
