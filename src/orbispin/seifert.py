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

A covering datum is therefore its signature and an admissible order r
alone: a :class:`RootContext` is built from (signature, r), derives
beta_j = -r^{-1} mod alpha_j, the k_j, b and e once, and checks them by
r*e = chi.  ``recognize_fibre_index`` inverts the process: it checks each
fibre relation of given invariants at the recovered r, which makes them the
derived data, and builds the context from the data it has checked; only
``RootContext(signature, r)`` derives.  ``RootContext.from_json`` refuses
data that differs from the derived data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Any

from .errors import InadmissibleOrder, NotSL2Quotient
from .orbifold import (
    OrbifoldSignature, _as_int, _json_object, _product_chi, _trusted, assert_hyperbolic, root_order_admissible,
)


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
        g, cones = self.genus, tuple(a for a, _ in self.multiple_fibres)
        return _trusted(OrbifoldSignature, genus=g, cone_multiplicities=cones, _product_chi=_product_chi(g, cones))

    def _minus_euler_product(self) -> int:
        """-e P = b P + sum_j beta_j P / alpha_j, an integer, for P the product
        of the multiplicities."""
        product = prod(a for a, _ in self.multiple_fibres)
        return self.obstruction * product + sum(b * (product // a) for a, b in self.multiple_fibres)

    def euler_number(self) -> Fraction:
        """e = -(b + sum_j beta_j / alpha_j), exact."""
        return Fraction(-self._minus_euler_product(), prod(a for a, _ in self.multiple_fibres))

    def to_json(self) -> dict[str, Any]:
        return {
            "genus": self.genus,
            "b": self.obstruction,
            "pairs": [list(p) for p in self.multiple_fibres],
        }

    @classmethod
    def from_json(cls, data: Any) -> "SeifertInvariants":
        shape = 'invariants JSON must be {"genus": g, "b": b, "pairs": [[a, b], ...]}'
        _json_object(data, shape, ("genus", "b", "pairs"))
        pairs = data["pairs"]
        if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
            raise ValueError("pairs must be a list of [alpha, beta] integer pairs")
        return cls(data["genus"], data["b"], tuple(map(tuple, pairs)))


@dataclass(frozen=True)
class RootContext:
    """A covering datum: a signature and an admissible order r (else
    InadmissibleOrder).  The Seifert invariants, the twist integers k_j and
    the Euler number are derived from the two once, on construction, and
    take no part in equality or hashing."""

    signature: OrbifoldSignature
    order: int
    invariants: SeifertInvariants = field(init=False, compare=False)
    twist_integers: tuple[int, ...] = field(init=False, compare=False)
    euler_number: Fraction = field(init=False, compare=False)

    def __post_init__(self) -> None:
        sig, r = self.signature, _as_int(self.order, "order", 1)
        if not root_order_admissible(sig, r):
            raise InadmissibleOrder(f"order {r} is not admissible for signature {sig.to_json()}")
        # beta_j is the unique solution in [1, alpha_j - 1] of r*beta_j = -1
        # (mod alpha_j), so each k_j below is an exact quotient
        pairs = tuple((a, -pow(r, -1, a) % a) for a in sig.cone_multiplicities)
        ks = tuple((r * beta - a + 1) // a for a, beta in pairs)
        b = (2 * sig.genus - 2 - sum(ks)) // r
        inv = _trusted(SeifertInvariants, genus=sig.genus, obstruction=b, multiple_fibres=pairs)
        # r*e = chi times the product P of the multiplicities, in integers; given
        # the fibre relations, the same as r*b = 2g-2 - sum(k_j)
        minus_euler = inv._minus_euler_product()
        if -r * minus_euler != sig._product_chi:
            raise RuntimeError(f"identity r*e = chi fails for {sig.to_json()} at r = {r}")
        self.__dict__.update(order=r, invariants=inv, twist_integers=ks, euler_number=_euler(sig, minus_euler))

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
        """The context of data's signature and r; ValueError unless b, pairs,
        k and euler_number are exactly, types included, what to_json writes."""
        keys = ("b", "pairs", "k", "euler_number")
        _json_object(data, "context JSON must have the keys of RootContext.to_json", ("signature", "r", *keys))
        ctx = cls(OrbifoldSignature.from_json(data["signature"]), data["r"])
        derived = ctx.to_json()
        # json.dumps tells 1.0 from 1 and True from 1, where == does not
        wrong = [key for key in keys if json.dumps(data[key], default=repr) != json.dumps(derived[key])]
        if wrong:
            raise ValueError(f"{', '.join(wrong)} disagree with the covering data solved at r = {ctx.order}")
        return ctx


def _euler(sig: OrbifoldSignature, minus_euler: int) -> Fraction:
    """The Euler number e of a covering of ``sig`` from the integer -e P, P the
    product of the multiplicities."""
    return Fraction(-minus_euler, prod(sig.cone_multiplicities))


def solve_raymond_vasquez(sig: OrbifoldSignature, r: int) -> RootContext:
    """The covering datum of order r over ``sig``; InadmissibleOrder unless
    r is admissible."""
    return RootContext(sig, r)


def unit_tangent_bundle(sig: OrbifoldSignature) -> RootContext:
    """The order-1 covering datum: b = 2g-2 and pairs (alpha_j, alpha_j - 1)."""
    return RootContext(sig, 1)


def recognize_fibre_index(inv: SeifertInvariants) -> RootContext:
    """Recover the fibre index r from normalised Seifert invariants.

    Requires a hyperbolic base.  Computes e = -(b + sum beta/alpha), demands
    e < 0, r = chi/e a positive integer and each fibre relation
    r*beta_j = alpha_j - 1 + k_j*alpha_j for an integer k_j; these make the
    given invariants those of RootContext(signature, r), which is built from
    the checked data alone.  Any failure raises :class:`NotSL2Quotient`.
    """
    sig = inv.base_signature()
    assert_hyperbolic(sig)
    # over the product P of the multiplicities, -e P > 0 and P chi < 0 are integers
    minus_euler = inv._minus_euler_product()
    if minus_euler <= 0:
        raise NotSL2Quotient(f"Euler number {inv.euler_number()} is not negative")
    r, rem = divmod(-sig._product_chi, minus_euler)  # chi/e
    if rem or r <= 0:
        raise NotSL2Quotient(f"chi/e = {Fraction(-sig._product_chi, minus_euler)} is not a positive integer")
    ks = []
    for a, beta in inv.multiple_fibres:
        k, rem = divmod(r * beta - a + 1, a)
        if rem:
            raise NotSL2Quotient(
                f"covering relation fails at fibre ({a}, {beta}) for the recovered fibre index r = {r}"
            )
        ks.append(k)
    # r*beta_j = -1 mod alpha_j gives gcd(r, alpha_j) = 1 and beta_j = -r^{-1} mod
    # alpha_j; r*(-e P) = -P chi gives r | P chi and, with the fibre relations, b
    return _trusted(RootContext, signature=sig, order=r, invariants=inv, twist_integers=tuple(ks),
                    euler_number=_euler(sig, minus_euler))
