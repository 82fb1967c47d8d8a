"""Exception types shared across the library, and the one form in which
a refusal quotes a value its caller passed."""

from reprlib import Repr


class _BoundedRepr(Repr):
    def repr_int(self, x, level):
        # an int past the interpreter's limit on decimal digits has no
        # decimal form to elide, so it is quoted by its size
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"

    def repr_SimplexElem(self, x, level):
        # a face field by field under the same limits, as the named tuple's
        # own repr has no depth bound; any other class of this name is
        # quoted the default way
        if not (isinstance(x, tuple) and hasattr(x, "_fields")):
            return self.repr_instance(x, level)
        if level <= 0:
            return "SimplexElem(...)"
        return "SimplexElem(" + ", ".join(
            f"{k}={self.repr1(v, level - 1)}" for k, v in zip(x._fields, x)) + ")"


# repr with nesting cut at eight levels and long values elided, so that a
# value of any depth is quoted as one bounded line; sets and dicts print
# sorted where their entries compare
_BOUNDED = _BoundedRepr()
vars(_BOUNDED).update(maxlevel=8, maxstring=200, maxlong=200, maxother=200, **dict.fromkeys(
    ("maxtuple", "maxlist", "maxarray", "maxdict", "maxset", "maxfrozenset", "maxdeque"), 30))
shown = _BOUNDED.repr


class SposetError(Exception):
    """Base class for every error raised by this package."""


class PosetValidationError(SposetError):
    """A face lattice violates one of the simplicial poset axioms."""

    def __init__(self, element_id, axiom, message):
        self.element_id = element_id
        self.axiom = axiom
        super().__init__(f"element {shown(element_id)}: {message} [{axiom}]")


class NonBooleanInterval(PosetValidationError):
    """A lower interval is not a Boolean lattice."""


class DanglingFaceRef(PosetValidationError):
    """A facet list references an id that does not exist."""


class RankMismatch(PosetValidationError):
    """Vertex count, facet count and rank disagree."""


class EmptyInput(SposetError):
    """An operation that needs a nonempty poset received nothing."""


class UnknownElement(SposetError):
    """Requested element id is not in the poset."""


class NotPure(SposetError):
    """Maximal faces have different dimensions."""


class NotConnected(SposetError):
    """The poset's realization is disconnected."""


class MissingVertexAssignment(SposetError):
    """A characteristic function leaves some vertex unassigned."""


class WrongVectorLength(SposetError):
    """A characteristic vector has the wrong number of entries."""


class NonPrimitiveVector(SposetError):
    """A characteristic vector whose entries have gcd != 1."""


class BudgetExhausted(SposetError):
    """Rejection sampling gave up before finding a valid assignment."""

    def __init__(self, message, failing_simplex=None, attempts=0):
        self.failing_simplex = failing_simplex
        self.attempts = attempts
        super().__init__(message)


class NotBuchsbaum(SposetError):
    """Link homology is not concentrated in top degree; carries witnesses."""

    def __init__(self, message, witnesses=()):
        self.witnesses = tuple(witnesses)
        super().__init__(message)


class InconsistentBundle(SposetError):
    """Manifold rank data cannot sit in an exact sequence."""


class InvalidCharFn(SposetError):
    """Characteristic function fails validation for the requested ring."""


class NonFieldCoefficients(SposetError):
    """The operation is only defined over a field."""


class UnknownFormat(SposetError):
    """Input carries a format tag this library does not understand."""


class SchemaViolation(SposetError):
    """Input matches a known format tag but not its schema."""


class UnknownName(SposetError):
    """Requested corpus entry does not exist."""


class InvalidArgument(SposetError, ValueError):
    """A library call received an argument of the wrong type or value."""


class InternalError(SposetError):
    """A computed invariant broke a condition that must always hold."""
