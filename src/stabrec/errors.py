"""Shared exception types."""


class StabrecError(Exception):
    """Base class for all package errors."""


class PresentationError(StabrecError):
    """Malformed or non-admissible quiver presentation."""


class NotSelfInjective(StabrecError):
    """Raised when an operation requiring a self-injective algebra is
    invoked on an algebra that is not self-injective."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"algebra is not self-injective: {witness}")


class Inconclusive(StabrecError):
    """A bounded search ended without a definite answer.

    Raising this (rather than guessing) keeps every returned answer exact."""


class Undecided(Inconclusive):
    """A capped enumeration (padding or filtration search) hit its cap."""


class NotFiltrable(StabrecError):
    """The module admits no filtration with layers in add(S)."""


class NoSurjectionInCoset(StabrecError):
    """No surjective representative exists in a stable class.

    When `exhaustive` is set the negative is certified; otherwise the
    bounded search simply failed."""

    def __init__(self, msg, exhaustive=True):
        self.exhaustive = exhaustive
        super().__init__(msg)
