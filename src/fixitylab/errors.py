"""Exception types shared across the package."""


class FixityError(Exception):
    """Base class for all package errors."""


class DegreeMismatchError(FixityError):
    """Two permutations of different degrees were combined."""


class NotBijectionError(FixityError):
    """An image table is not a bijection on {0, ..., degree-1}."""


class MembershipError(FixityError):
    """An element was expected to lie in a group but does not."""


class CapExceededError(FixityError):
    """An enumeration cap would be exceeded."""


class GroupDataError(FixityError):
    """A group file or a zoo construction failed an integrity check."""


class GroupNotFoundError(GroupDataError):
    """A group selector names no constructor, packaged file or data file."""


class ParseError(GroupDataError):
    """A group file could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(FixityError):
    """A documented operation precondition does not hold."""


class FalsificationError(FixityError):
    """A property the underlying theory guarantees failed on concrete data.

    This is never swallowed: it carries a reproducer in its message.
    """
