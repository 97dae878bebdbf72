"""Exception types shared across the library."""

from __future__ import annotations


class OrbispinError(Exception):
    """Base class for the domain errors raised by this package."""


class NotHyperbolic(OrbispinError):
    """The orbifold has non-negative Euler characteristic.

    Carries the offending exact value in the ``chi`` attribute.
    """

    def __init__(self, chi) -> None:
        self.chi = chi
        super().__init__(f"orbifold Euler characteristic {chi} is not negative")


class InadmissibleOrder(OrbispinError):
    """The requested covering order fails the existence test for roots."""


class NotSL2Quotient(OrbispinError):
    """Seifert invariants that do not describe a fibrewise covering of a
    unit tangent bundle: the Euler number must be negative, the fibre index
    an exact positive integer, and the covering relations must hold."""


class CountOverflow(OrbispinError):
    """An enumeration or orbit search would exceed the configured state cap."""


class OddOrder(OrbispinError):
    """The Arf-type parity was requested for an odd covering order, where the
    mod-2 reduction is not well defined."""


class MixedOrbit(RuntimeError):
    """An orbit search found members of one orbit with different canonical forms."""
