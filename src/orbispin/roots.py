"""Root tuples: coordinates for the set of order-r fibrewise coverings.

A connected fibrewise covering of order r corresponds to a homomorphism from
the fundamental group of the unit tangent bundle into Z_r sending the fibre
class to 1.  Such a homomorphism takes arbitrary values on the 2g handle
generators and is determined everywhere else: the fibre class maps to 1 and
the j-th exceptional generator to k_j mod r.  A :class:`RootTuple` stores
only the free part, the tuple (s_1, t_1, ..., s_g, t_g) in Z_r^{2g}; the
full homomorphism is reconstructed on demand from a :class:`RootContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Iterator

from .errors import CountOverflow
from .orbifold import _as_int, _json_object, _trusted
from .seifert import RootContext

DEFAULT_STATE_CAP = 1 << 24


@dataclass(frozen=True)
class RootTuple:
    """An element of Z_r^{2g}; entries are reduced mod r on construction."""

    order: int
    coords: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        r = _as_int(self.order, "order", 1)
        object.__setattr__(self, "order", r)
        if len(self.coords) % 2 != 0:
            raise ValueError("a root tuple has an even number of coordinates")
        object.__setattr__(self, "coords", tuple(_as_int(c, "coordinate") % r for c in self.coords))

    @property
    def genus(self) -> int:
        return len(self.coords) // 2

    def to_json(self) -> dict[str, Any]:
        return {"r": self.order, "coords": list(self.coords)}

    @classmethod
    def from_json(cls, data: Any) -> "RootTuple":
        _json_object(data, 'root tuple JSON must be {"r": r, "coords": [...]}', ("r", "coords"))
        return cls(data["r"], tuple(data["coords"]))


def _state_cap(cap: Any) -> int:
    """``cap`` read as a state cap: an integer >= 1, else ValueError."""
    return _as_int(cap, "state cap", 1)


def _within_cap(r: int, genus: int, cap: int | None) -> bool:
    """Whether the r^{2g} root tuples fit under the state cap ``cap`` (None
    for no cap); the one comparison of a state space with a cap, so every
    bound on brute force reads it."""
    return cap is None or r ** (2 * genus) <= _state_cap(cap)


def _check_state_count(r: int, genus: int, cap: int | None) -> int:
    """The number r^{2g} of root tuples; CountOverflow when it exceeds ``cap``
    (None for no cap)."""
    total = r ** (2 * genus)
    if not _within_cap(r, genus, cap):
        raise CountOverflow(f"{total} roots exceed the state cap {cap}")
    return total


def enumerate_roots(ctx: RootContext, cap: int | None = DEFAULT_STATE_CAP) -> Iterator[RootTuple]:
    """Yield all r^{2g} root tuples once each, in lexicographic order.

    Raises :class:`CountOverflow` up front when the full enumeration would
    exceed ``cap`` states; pass ``cap=None`` to stream without the guard.
    """
    r, g = ctx.order, ctx.genus
    _check_state_count(r, g, cap)
    return (_trusted(RootTuple, order=r, coords=combo) for combo in product(range(r), repeat=2 * g))


def determined_values(ctx: RootContext) -> tuple[int, tuple[int, ...]]:
    """The forced values of a root homomorphism: 1 mod r on the fibre class
    and k_j mod r on each exceptional generator."""
    r = ctx.order
    return 1 % r, tuple(k % r for k in ctx.twist_integers)
