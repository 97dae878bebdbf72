"""Orbifold signatures, exact Euler characteristics, admissible covering orders.

A closed orientable 2-orbifold is described by its signature: a genus g >= 0
together with the multiplicities alpha_1, ..., alpha_n >= 2 of its cone
points.  Everything here is exact integer/rational arithmetic.  The orbifold
Euler characteristic is

    chi = 2 - 2g - n + sum_j 1/alpha_j,

and the orbifold is of hyperbolic type exactly when chi < 0.  The unit
tangent bundle of a hyperbolic orbifold admits a connected fibrewise r-fold
covering (an r-th root, or r-spin structure) if and only if r is coprime to
every alpha_j and divides the integer alpha_1 * ... * alpha_n * chi.  Both
conditions are decided here without ever leaving exact arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, prod
from typing import Any

from .errors import NotHyperbolic


def _as_int(value: Any, what: str, minimum: int | None = None) -> int:
    """``value`` as an int, with no coercion: bool, floats and other
    non-integers raise ValueError, and so do values below ``minimum``."""
    if type(value) is not int:
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise ValueError(f"{what} must be an integer, got {value!r}")
        value = operator.index(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


@dataclass(frozen=True)
class OrbifoldSignature:
    """Genus plus cone-point multiplicities of a closed orientable 2-orbifold.

    Cone points are recorded only through their multiplicities.  Their order
    is kept for labelling, but no derived quantity depends on it.
    """

    genus: int
    cone_multiplicities: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "genus", _as_int(self.genus, "genus", 0))
        cones = tuple(_as_int(a, "cone multiplicity", 2) for a in self.cone_multiplicities)
        object.__setattr__(self, "cone_multiplicities", cones)

    @property
    def num_cone_points(self) -> int:
        return len(self.cone_multiplicities)

    @cached_property
    def _chi(self) -> Fraction:
        # one Fraction over the product of the multiplicities, made on first use
        product = prod(self.cone_multiplicities)
        numerator = (2 - 2 * self.genus - self.num_cone_points) * product
        return Fraction(numerator + sum(product // a for a in self.cone_multiplicities), product)

    def to_json(self) -> dict[str, Any]:
        return {"genus": self.genus, "cone_points": list(self.cone_multiplicities)}

    @classmethod
    def from_json(cls, data: Any) -> "OrbifoldSignature":
        if not isinstance(data, dict) or "genus" not in data or "cone_points" not in data:
            raise ValueError('signature JSON must be {"genus": g, "cone_points": [...]}')
        cones = data["cone_points"]
        if not isinstance(cones, (list, tuple)):
            raise ValueError("cone_points must be a list of integers >= 2")
        return cls(data["genus"], tuple(cones))


def chi_orb(sig: OrbifoldSignature) -> Fraction:
    """Exact orbifold Euler characteristic 2 - 2g - n + sum(1/alpha_j),
    computed once per signature object."""
    return sig._chi


def is_hyperbolic(sig: OrbifoldSignature) -> bool:
    return chi_orb(sig) < 0


def assert_hyperbolic(sig: OrbifoldSignature) -> None:
    """Raise :class:`NotHyperbolic` unless chi(sig) < 0."""
    chi = chi_orb(sig)
    if chi >= 0:
        raise NotHyperbolic(chi)


def multiplicity_product_chi(sig: OrbifoldSignature) -> int:
    """The integer alpha_1 * ... * alpha_n * chi (empty product = 1).

    Expanding the formula for chi shows the product clears every
    denominator, so the result is an exact integer; this is asserted.
    """
    value = prod(sig.cone_multiplicities) * chi_orb(sig)
    assert value.denominator == 1, f"expected an integer, got {value}"
    return value.numerator


def root_order_admissible(sig: OrbifoldSignature, r: int) -> bool:
    """Whether a connected fibrewise covering of order r exists.

    True iff gcd(r, alpha_j) = 1 for every cone point and r divides the
    integer alpha_1*...*alpha_n*chi (divisibility of a negative integer
    means divisibility of its absolute value).
    """
    assert_hyperbolic(sig)
    r = _as_int(r, "covering order", 1)
    if any(gcd(r, a) != 1 for a in sig.cone_multiplicities):
        return False
    return abs(multiplicity_product_chi(sig)) % r == 0


def admissible_root_orders(sig: OrbifoldSignature) -> tuple[int, ...]:
    """All covering orders admitting a root, in ascending order.

    The list is finite: every admissible r divides the fixed nonzero
    integer alpha_1*...*alpha_n*chi.
    """
    assert_hyperbolic(sig)
    bound = abs(multiplicity_product_chi(sig))
    return tuple(r for r in divisors(bound) if root_order_admissible(sig, r))


def divisors(n: int) -> tuple[int, ...]:
    """Positive divisors of |n| in ascending order (n must be a nonzero integer)."""
    n = abs(_as_int(n, "n"))
    if n == 0:
        raise ValueError("zero has no finite divisor list")
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return tuple(small + large[::-1])
