"""Exact-arithmetic Clifford analysis in R_{0,m}.

Multivectors with rational coefficients, structural sets, twisted Dirac
operators on polynomial fields, the two-set Psi operator family, exact
membership classification for the generalized harmonic function classes,
and rational nullspace solvers over homogeneous coefficient spaces.
"""

from .algebra import DimensionMismatch, Multivector, blade_order, blade_product
from .classify import ClassMembership, RegionLabel, classify, region
from .fields import PolyField, dirac_left, dirac_right, laplacian, sandwich
from .linalg import RationalMatrix
from .parser import ParseError, format_field, parse_field, parse_multivector
from .psi import (
    PsiOperator,
    apply_psi_k,
    apply_psi_minus,
    apply_psi_plus,
    apply_psi_subset1,
    psi_matrix,
    scalar_action,
    scalar_action_hypergeometric,
)
from .solver import (
    ClassDimensions,
    CoefficientSpace,
    FieldOperator,
    OperatorMatrix,
    class_dimensions,
    class_nullspace,
    converse_counterexample,
    find_region_witness,
    operator_matrix,
)
from .structural import StructuralSet, StructuralSetError, TransitionMatrix, transition
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [
    "ClassDimensions",
    "ClassMembership",
    "CoefficientSpace",
    "DimensionMismatch",
    "FieldOperator",
    "Multivector",
    "OperatorMatrix",
    "ParseError",
    "PolyField",
    "PsiOperator",
    "RationalMatrix",
    "RegionLabel",
    "StructuralSet",
    "StructuralSetError",
    "TransitionMatrix",
    "Verdict",
    "apply_psi_k",
    "apply_psi_minus",
    "apply_psi_plus",
    "apply_psi_subset1",
    "blade_order",
    "blade_product",
    "class_dimensions",
    "class_nullspace",
    "classify",
    "converse_counterexample",
    "dirac_left",
    "dirac_right",
    "find_region_witness",
    "format_field",
    "laplacian",
    "operator_matrix",
    "parse_field",
    "parse_multivector",
    "psi_matrix",
    "region",
    "sandwich",
    "scalar_action",
    "scalar_action_hypergeometric",
    "transition",
    "__version__",
]
