"""Seifert data of fibrewise coverings of unit tangent bundles.

The unit tangent bundle of a hyperbolic orbifold with signature
(g; alpha_1, ..., alpha_n) is a Seifert fibration with normalised invariants
{g; b = 2g-2; (alpha_j, alpha_j - 1)}.  A connected fibrewise r-fold covering
of it is again a Seifert fibration {g; b; (alpha_j, beta_j)}, and its data is
pinned down by the Raymond-Vasquez relations: there are integers k_j with

    r * b      = 2g - 2 - sum_j k_j,
    r * beta_j = alpha_j - 1 + k_j * alpha_j        for each j,

where each beta_j is normalised into [1, alpha_j - 1].  The Euler number
e = -(b + sum_j beta_j/alpha_j) of the covering then satisfies r*e = chi
exactly.

``solve_raymond_vasquez`` produces this data for an admissible order:
coprimality of r and alpha_j makes beta_j the unique solution of
r*beta_j = alpha_j - 1 (mod alpha_j) in the normalised range, and the
relations then force k_j and b.  ``recognize_fibre_index`` inverts the
process, recovering r from given normalised invariants or rejecting them.
Both derive each k_j by one floor division (``_twist_integers``) and leave
every relation to ``RootContext``, whose construction is the one place they
are checked.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Any

from .errors import InadmissibleOrder, NotSL2Quotient
from .orbifold import OrbifoldSignature, _as_int, assert_hyperbolic, chi_orb, root_order_admissible


@dataclass(frozen=True)
class SeifertInvariants:
    """Normalised Seifert invariants {g; b; (alpha_1, beta_1), ...}."""

    genus: int
    obstruction: int
    multiple_fibres: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "genus", _as_int(self.genus, "genus", 0))
        object.__setattr__(self, "obstruction", _as_int(self.obstruction, "obstruction"))
        pairs = tuple(
            (_as_int(a, "fibre multiplicity", 2), _as_int(b, "fibre invariant beta", 1))
            for a, b in self.multiple_fibres
        )
        object.__setattr__(self, "multiple_fibres", pairs)
        for a, b in pairs:
            if b > a - 1:
                raise ValueError(f"pair ({a}, {b}) is not normalised: need 1 <= beta <= alpha-1")

    def base_signature(self) -> OrbifoldSignature:
        return OrbifoldSignature(self.genus, tuple(a for a, _ in self.multiple_fibres))

    @cached_property
    def _euler(self) -> Fraction:
        # one Fraction over the product of the multiplicities, made on first use
        product = prod(a for a, _ in self.multiple_fibres)
        numerator = self.obstruction * product + sum(b * (product // a) for a, b in self.multiple_fibres)
        return Fraction(-numerator, product)

    def euler_number(self) -> Fraction:
        """e = -(b + sum_j beta_j / alpha_j), exact; computed once per object."""
        return self._euler

    def to_json(self) -> dict[str, Any]:
        return {
            "genus": self.genus,
            "b": self.obstruction,
            "pairs": [list(p) for p in self.multiple_fibres],
        }

    @classmethod
    def from_json(cls, data: Any) -> "SeifertInvariants":
        if not isinstance(data, dict) or not {"genus", "b", "pairs"} <= set(data):
            raise ValueError('invariants JSON must be {"genus": g, "b": b, "pairs": [[a, b], ...]}')
        pairs = data["pairs"]
        if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ValueError("pairs must be a list of [alpha, beta] integer pairs")
        return cls(data["genus"], data["b"], tuple(map(tuple, pairs)))


@dataclass(frozen=True)
class RootContext:
    """A validated covering datum: signature, order, solved Seifert data.

    Construction re-checks the covering relations and the exact identity
    r*e = chi, so an inconsistent context cannot exist.
    """

    signature: OrbifoldSignature
    order: int
    invariants: SeifertInvariants
    twist_integers: tuple[int, ...]
    euler_number: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", _as_int(self.order, "order", 1))
        object.__setattr__(
            self, "twist_integers", tuple(_as_int(k, "twist integer") for k in self.twist_integers)
        )
        sig, r, inv = self.signature, self.order, self.invariants
        if inv.genus != sig.genus:
            raise ValueError("invariants and signature disagree on genus")
        alphas = tuple(a for a, _ in inv.multiple_fibres)
        if alphas != sig.cone_multiplicities:
            raise ValueError("invariants and signature disagree on multiplicities")
        ks = self.twist_integers
        if len(ks) != len(alphas):
            raise ValueError("one twist integer per cone point is required")
        for (a, beta), k in zip(inv.multiple_fibres, ks):
            if r * beta != a - 1 + k * a:
                raise ValueError(f"covering relation fails at fibre ({a}, {beta})")
        if r * inv.obstruction != 2 * sig.genus - 2 - sum(ks):
            raise ValueError("long covering relation r*b = 2g-2 - sum(k_j) fails")
        if self.euler_number != inv.euler_number():
            raise ValueError("stored Euler number disagrees with the invariants")
        if r * self.euler_number != chi_orb(sig):
            raise ValueError("identity r*e = chi fails")

    @property
    def genus(self) -> int:
        return self.signature.genus

    def to_json(self) -> dict[str, Any]:
        return {
            "signature": self.signature.to_json(),
            "r": self.order,
            "b": self.invariants.obstruction,
            "pairs": [list(p) for p in self.invariants.multiple_fibres],
            "k": list(self.twist_integers),
            "euler_number": str(self.euler_number),
        }

    @classmethod
    def from_json(cls, data: Any) -> "RootContext":
        if not isinstance(data, dict) or not {"signature", "r", "k", "euler_number"} <= set(data):
            raise ValueError("context JSON must have the keys of RootContext.to_json")
        sig = OrbifoldSignature.from_json(data["signature"])
        inv = SeifertInvariants.from_json({**data, "genus": sig.genus})
        k, e = data["k"], data["euler_number"]
        if not (type(k) is list and type(e) is str and re.fullmatch(r"-?\d+(/[1-9]\d*)?", e)):
            raise ValueError('k must be a list of integers and euler_number a fraction like "-1/2"')
        return cls(sig, data["r"], inv, tuple(k), Fraction(e))


def _twist_integers(r: int, pairs: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """k_j = (r*beta_j - alpha_j + 1) / alpha_j, rounded down: exact exactly
    when fibre j satisfies its covering relation, which RootContext checks."""
    return tuple((r * beta - a + 1) // a for a, beta in pairs)


def solve_raymond_vasquez(sig: OrbifoldSignature, r: int) -> RootContext:
    """Solve the covering relations for an admissible order r.

    beta_j is the unique integer in [1, alpha_j - 1] with
    r*beta_j = alpha_j - 1 (mod alpha_j), i.e. beta_j = -r^{-1} mod alpha_j;
    k_j and b follow by division, which admissibility makes exact and
    RootContext re-checks.
    """
    if not root_order_admissible(sig, r):
        raise InadmissibleOrder(
            f"order {r} is not admissible for signature {sig.to_json()}"
        )
    r = int(r)
    pairs = tuple((a, (-pow(r, -1, a)) % a) for a in sig.cone_multiplicities)
    ks = _twist_integers(r, pairs)
    inv = SeifertInvariants(sig.genus, (2 * sig.genus - 2 - sum(ks)) // r, pairs)
    return RootContext(sig, r, inv, ks, inv.euler_number())


def unit_tangent_bundle(sig: OrbifoldSignature) -> RootContext:
    """The order-1 covering datum: b = 2g-2 and pairs (alpha_j, alpha_j - 1)."""
    return solve_raymond_vasquez(sig, 1)


def recognize_fibre_index(inv: SeifertInvariants) -> RootContext:
    """Recover the fibre index r from normalised Seifert invariants.

    Requires a hyperbolic base.  Computes e = -(b + sum beta/alpha), demands
    e < 0 and r = chi/e a positive integer, then derives every k_j and
    builds the context, whose construction checks the covering relations
    (each fibre's, then the long one).  Any failure raises
    :class:`NotSL2Quotient`.
    """
    sig = inv.base_signature()
    assert_hyperbolic(sig)
    e = inv.euler_number()
    if e >= 0:
        raise NotSL2Quotient(f"Euler number {e} is not negative")
    ratio = chi_orb(sig) / e
    if ratio.denominator != 1 or ratio <= 0:
        raise NotSL2Quotient(f"chi/e = {ratio} is not a positive integer")
    r = int(ratio)
    try:
        return RootContext(sig, r, inv, _twist_integers(r, inv.multiple_fibres), e)
    except ValueError as err:
        raise NotSL2Quotient(f"{err} for the recovered fibre index r = {r}") from err
