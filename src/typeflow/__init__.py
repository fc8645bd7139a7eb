"""Exact dynamics on type spaces of definable sets over computable group backends.

Everything here is finite and exact: group backends are finite tables or the
integers with eventually periodic sets, type spaces are truncated at a finite
congruence level, and all verdicts come with checkable certificates.
"""

__version__ = "0.1.0"

from .groups import (
    BackendMismatch,
    FiniteGroup,
    Group,
    IntegerGroup,
    INTEGERS,
    ProductGroup,
    bundled_small_groups,
    cyclic_group,
)
from .defsets import (
    FiniteSubset,
    IntegerSet,
    RectangleSet,
    boolean_op,
    complement,
    congruence_set,
    difference_set,
    intersect,
    is_left_generic,
    member,
    translate,
    union,
)
from .typespace import LevelError, Limit, acting_set, apply_group, contains, is_closed_invariant, limit_points, restrict, witness
from .ellis import find_idempotents, star, star_via_schema

__all__ = [
    "BackendMismatch",
    "FiniteGroup",
    "Group",
    "IntegerGroup",
    "INTEGERS",
    "ProductGroup",
    "bundled_small_groups",
    "cyclic_group",
    "FiniteSubset",
    "IntegerSet",
    "RectangleSet",
    "boolean_op",
    "complement",
    "congruence_set",
    "difference_set",
    "intersect",
    "is_left_generic",
    "member",
    "translate",
    "union",
    "LevelError",
    "Limit",
    "acting_set",
    "apply_group",
    "contains",
    "is_closed_invariant",
    "limit_points",
    "restrict",
    "witness",
    "find_idempotents",
    "star",
    "star_via_schema",
]
