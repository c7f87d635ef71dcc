"""Exception types shared across the package.

Every library error derives from :class:`MeaspaceError`; the ``code``
attribute feeds the machine-readable CLI error object.
"""


class MeaspaceError(Exception):
    code = "error"


class InputFormatError(MeaspaceError):
    """Malformed value, label, or JSON structure."""

    code = "bad-input"


class GroundMismatchError(MeaspaceError):
    """Two objects live over different (or incompatible) ground sets."""

    code = "ground-mismatch"


class NotMeasurableError(MeaspaceError):
    """A set is not a union of atoms of the algebra in play."""

    code = "not-measurable"


class PreconditionError(MeaspaceError):
    """A checked operation precondition does not hold."""

    code = "precondition"


class SizeCapError(MeaspaceError):
    """A documented size cap (16 points, 8 for enumeration) was exceeded."""

    code = "size-cap"


class InvalidKitError(MeaspaceError):
    """An extension kit failed validation; carries the problem list."""

    code = "invalid-kit"

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__("invalid extension kit: " + "; ".join(self.problems))


class InvariantError(MeaspaceError):
    """A computed result failed a consistency check that valid input guarantees."""

    code = "invariant"
