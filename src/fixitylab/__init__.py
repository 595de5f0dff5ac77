"""Fixity of transitive coset actions of finite permutation groups."""

from .errors import (
    CapExceededError,
    DegreeMismatchError,
    FalsificationError,
    FixityError,
    GroupDataError,
    GroupNotFoundError,
    MembershipError,
    NotBijectionError,
    ParseError,
    PreconditionError,
)
from .perm import PermGroup, Permutation, build_bsgs, point_stabilizer
from .ffield import Field, FieldElement, make_field, primitive_element
from .zoo import load_group, resolve_group, save_group

__version__ = "0.1.0"
