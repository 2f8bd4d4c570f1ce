"""Exception hierarchy shared by all varsign modules."""


class VarsignError(Exception):
    """Base class for every error raised by this package."""


class ConstructionError(VarsignError, ValueError):
    """A value object was built from inconsistent parts (zero denominator,
    inverted interval, empty column, bad sign-set parameters, ...). The spec
    loader reports it as a SpecError at the field it built from."""


class DomainError(VarsignError, ValueError):
    """An argument is outside the object's domain: digit not in the column's
    alphabet, malformed digit word, division by an interval touching zero."""


class ParameterError(DomainError):
    """A depth/length parameter violates a precondition (e.g. tail depth
    must exceed the position it certifies)."""


class RangeError(DomainError):
    """A target value lies outside the representable range of a system."""


class SpecError(VarsignError, ValueError):
    """A system description file failed to parse or validate.

    `where` carries a human-readable location: either "line L column C" for
    syntax errors or a dotted field path for semantic ones.
    """

    def __init__(self, message, where=None):
        self.where = where
        if where:
            message = f"{message} (at {where})"
        super().__init__(message)
