"""The Dehn-twist action on root tuples: canonical forms and witnesses.

Orientation-preserving diffeomorphisms of the base orbifold act on the set
of order-r coverings.  On the coordinate tuple (s_1, t_1, ..., s_g, t_g) the
basic right-handed twists act by

    along u_i:          t_i  <-  t_i - s_i
    along v_i:          s_i  <-  s_i + t_i
    along w_{i,i+1}:    t_i  <-  t_i - omega,   t_{i+1}  <-  t_{i+1} + omega

where w_{i,i+1} is the curve separating handles i and i+1, on which a root
takes the value omega = s_i - s_{i+1} + 1.  Left-handed twists invert the
signs.  A power m iterates the unit twist m times; since each formula fixes
the entries it reads, iteration just scales the shift by m.  ``_twist`` holds
these formulas once, for Python ints and for numpy digit arrays alike.

The u/v twists realise the Euclidean algorithm on each handle pair, the
w twists merge handle values, and together they drive every tuple to one of
a short list of standard forms: the empty tuple (genus 0), (0, d) with d a
divisor of r (genus 1, with d = r encoding the zero class), and for genus
at least 2 either (0, ..., 0, 0) or (0, ..., 0, 1) -- a single form when r
is odd, two forms distinguished by an Arf-type parity

    A = sum_i (s_i + 1)(t_i + 1)  mod 2

when r is even (the parity is well defined only for even r and is preserved
by every twist).  ``reduce_with_witness`` returns the canonical form of a
tuple together with an explicit twist word whose replay lands exactly on
the canonical representative.  The word has O(g log r) letters: a signed
Euclidean algorithm on each handle, one w-power per merge, and a single
block W^m . flip . W^m that moves the last t-entry by 2m at once.  Adjacent
powers of one twist are folded into one letter, so no two neighbouring
letters twist along the same curve.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import repeat
from math import gcd
from typing import Any, Iterable

from .errors import OddOrder
from .orbifold import _as_int, _json_object, _trusted
from .roots import RootTuple

KIND_GENUS0 = "genus0"
KIND_GENUS1 = "genus1"
KIND_ALL_ZERO = "all_zero"
KIND_LAST_ONE = "last_one"

_FAMILIES = ("U", "V", "W")


@dataclass(frozen=True)
class TwistGenerator:
    """A power of one basic Dehn twist.

    ``family`` is "U"/"V" (twist along u_i/v_i, index i in [1, g]) or "W"
    (twist along w_{i,i+1}, index i in [1, g-1]); positive powers are
    right-handed.
    """

    family: str
    index: int
    power: int = 1

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {_FAMILIES}, got {reprlib.repr(self.family)}")
        object.__setattr__(self, "index", _as_int(self.index, "index", 1))
        object.__setattr__(self, "power", _as_int(self.power, "power"))
        if self.power == 0:
            raise ValueError("power must be a nonzero integer, got 0")

    def inverse(self) -> "TwistGenerator":
        return TwistGenerator(self.family, self.index, -self.power)

    def to_json(self) -> dict[str, Any]:
        return {"family": self.family, "index": self.index, "power": self.power}

    @classmethod
    def from_json(cls, data: Any) -> "TwistGenerator":
        shape = 'generator JSON must be {"family": ..., "index": ..., "power": ...}'
        _json_object(data, shape, ("family", "index", "power"))
        return cls(data["family"], data["index"], data["power"])


@dataclass(frozen=True)
class TwistWord:
    """A finite composition of twist generators, applied left to right."""

    word: tuple[TwistGenerator, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", tuple(self.word))
        if not all(map(isinstance, self.word, repeat(TwistGenerator))):
            raise ValueError("twist word letters must be TwistGenerator instances")

    def __len__(self) -> int:
        return len(self.word)

    def inverse(self) -> "TwistWord":
        return TwistWord(tuple(g.inverse() for g in reversed(self.word)))

    def to_json(self) -> list[dict[str, Any]]:
        return [g.to_json() for g in self.word]

    @classmethod
    def from_json(cls, data: Any) -> "TwistWord":
        if not isinstance(data, list):
            raise ValueError("twist word JSON must be a list of generators")
        return cls(tuple(TwistGenerator.from_json(g) for g in data))


def _twist(digits, r: int, family: str, i: int, m: int):
    """(slot, new value) for each entry of (s_1, t_1, ..., s_g, t_g), ints or
    int32 or int64 digit arrays in [0, r), that a power m in [0, r) of twist i
    (0-based) changes; unreduced mod r (below r (2r + 1)) but never negative, as
    subtractions use r - m and omega = s_i - s_{i+1} + 1 is shifted by r."""
    s, t = digits[2 * i], digits[2 * i + 1]
    if family == "U":  # t_i <- t_i - m s_i
        return ((2 * i + 1, t + (r - m) * s),)
    if family == "V":  # s_i <- s_i + m t_i
        return ((2 * i, s + m * t),)
    # t_i <- t_i - m omega,  t_{i+1} <- t_{i+1} + m omega
    omega = s - digits[2 * i + 2] + (r + 1)
    return ((2 * i + 1, t + (r - m) * omega), (2 * i + 3, digits[2 * i + 3] + m * omega))


def _parity(digits, genus: int):
    """sum((s_i + 1)(t_i + 1)) mod 2 of non-negative ints or int32 or int64 digit arrays."""
    return sum((digits[2 * i] + 1) * (digits[2 * i + 1] + 1) for i in range(genus)) & 1


def apply_generator(root: RootTuple, gen: TwistGenerator) -> RootTuple:
    """Act on a root tuple by one (power of a) basic Dehn twist."""
    return apply_word(root, (gen,))


def apply_word(root: RootTuple, word: TwistWord | Iterable[TwistGenerator]) -> RootTuple:
    """Apply the letters of a word left to right; the empty word is the identity."""
    word = word if isinstance(word, TwistWord) else TwistWord(word)
    coords = list(root.coords)
    r, genus = root.order, root.genus
    # the largest index of each family: a u/v twist acts on handle index in [1, g], a w twist on [1, g - 1]
    limits = {"U": genus, "V": genus, "W": genus - 1}
    for gen in word.word:
        family, index = gen.family, gen.index
        if not 1 <= index <= limits[family]:
            raise ValueError(f"{family}-twist index {index} out of range for genus {genus}")
        # a power acts only through its value mod r
        for slot, value in _twist(coords, r, family, index - 1, gen.power % r):
            coords[slot] = value % r
    return _trusted(RootTuple, order=r, coords=tuple(coords))


def w_value(root: RootTuple, i: int) -> int:
    """The value s_i - s_{i+1} + 1 mod r taken on the separating curve
    between handles i and i+1 (1 <= i <= g-1)."""
    i = _as_int(i, "separating-curve index")
    if not 1 <= i <= root.genus - 1:
        raise ValueError(f"separating-curve index {i} out of range for genus {root.genus}")
    return (root.coords[2 * (i - 1)] - root.coords[2 * i] + 1) % root.order


def a_invariant(root: RootTuple) -> int:
    """Arf-type parity sum((s_i + 1)(t_i + 1)) mod 2; defined for even r only.

    Any integer representatives of the residues give the same parity when r
    is even, so the reduced coordinates may be used directly.
    """
    if root.order % 2 != 0:
        raise OddOrder(f"the parity invariant is undefined for odd order {root.order}")
    return _parity(root.coords, root.genus)


@dataclass(frozen=True)
class StandardForm:
    """Canonical label of a twist orbit, together with its ambient (r, g).

    ``kind`` is one of "genus0", "genus1" (with a divisor d of r, d = r
    encoding the zero class), "all_zero" or "last_one".
    """

    kind: str
    order: int
    genus: int
    d: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (KIND_GENUS0, KIND_GENUS1, KIND_ALL_ZERO, KIND_LAST_ONE):
            raise ValueError(f"unknown standard form kind {reprlib.repr(self.kind)}")
        object.__setattr__(self, "order", _as_int(self.order, "order", 1))
        object.__setattr__(self, "genus", _as_int(self.genus, "genus", 0))
        if self.d is not None:
            object.__setattr__(self, "d", _as_int(self.d, "d"))
        if self.kind == KIND_GENUS0 and self.genus != 0:
            raise ValueError("genus0 form requires genus 0")
        if self.kind == KIND_GENUS1:
            if self.genus != 1:
                raise ValueError("genus1 form requires genus 1")
            if self.d is None or not 1 <= self.d <= self.order or self.order % self.d != 0:
                raise ValueError(f"d must be a divisor of {self.order} in [1, {self.order}]")
        else:
            if self.d is not None:
                raise ValueError("d is only meaningful for genus1 forms")
        if self.kind in (KIND_ALL_ZERO, KIND_LAST_ONE) and self.genus < 2:
            raise ValueError(f"{self.kind} form requires genus >= 2")
        if self.kind == KIND_LAST_ONE and self.order % 2 != 0:
            raise ValueError("last_one form occurs only for even order")

    @property
    def invariant(self) -> int:
        """The value on this class of the twist invariant that tells the
        classes apart: the divisor d at genus 1; otherwise the Arf-type
        parity, which is g mod 2 exactly on the all-zero class (a parity
        only for even r, where there are two classes)."""
        if self.kind == KIND_GENUS1:
            return self.d
        return (self.genus + (self.kind == KIND_LAST_ONE)) % 2

    def render_text(self) -> str:
        """The kind, followed by d at genus 1."""
        return self.kind if self.d is None else f"{self.kind} d={self.d}"

    def canonical_coords(self) -> tuple[int, ...]:
        if self.kind == KIND_GENUS0:
            return ()
        if self.kind == KIND_GENUS1:
            return (0, self.d % self.order)
        coords = [0] * (2 * self.genus)
        if self.kind == KIND_LAST_ONE:
            coords[-1] = 1
        return tuple(coords)

    def canonical_root(self) -> RootTuple:
        return _trusted(RootTuple, order=self.order, coords=self.canonical_coords())

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind}
        if self.kind == KIND_GENUS1:
            data["d"] = self.d
        return data

    @classmethod
    def from_json(cls, data: Any, order: int, genus: int) -> "StandardForm":
        _json_object(data, 'standard form JSON must be {"kind": ..., "d": ...?}', ("kind",), ("d",))
        return cls(data["kind"], order, genus, data.get("d"))


def canonical_form(root: RootTuple) -> StandardForm:
    """The complete orbit invariant of a root tuple under the twist action.

    genus 0: a single class.  genus 1: the divisor d = gcd(s_1, t_1, r)
    normalised into (0, r] (zero tuple -> d = r).  genus >= 2: a single
    class for odd r; for even r the class is decided by the Arf-type
    parity, which equals g mod 2 exactly on the all-zero class.
    """
    r, g = root.order, root.genus
    if g == 0:
        return _trusted(StandardForm, kind=KIND_GENUS0, order=r, genus=0, d=None)
    if g == 1:
        d = gcd(root.coords[0], root.coords[1], r)
        return _trusted(StandardForm, kind=KIND_GENUS1, order=r, genus=1, d=d)
    if r % 2 == 1 or a_invariant(root) == g % 2:
        return _trusted(StandardForm, kind=KIND_ALL_ZERO, order=r, genus=g, d=None)
    return _trusted(StandardForm, kind=KIND_LAST_ONE, order=r, genus=g, d=None)


def _signed_residue(x: int, r: int) -> int:
    """Least-absolute-value representative of x mod r (ties go positive)."""
    x %= r
    return x - r if 2 * x > r else x


def _nearest_quotient(a: int, b: int) -> int:
    """Round a/b to the nearest integer, exactly (|a - q*b| <= |b|/2)."""
    if b < 0:
        return -_nearest_quotient(a, -b)
    q, rem = divmod(a, b)
    if 2 * rem > b:
        q += 1
    return q


def reduce_with_witness(root: RootTuple) -> tuple[StandardForm, TwistWord]:
    """Canonical form plus a twist word replaying the reduction.

    The returned word w satisfies apply_word(root, w) == canonical tuple.
    Strategy: a signed Euclidean algorithm with u/v twists turns each handle
    pair into (0, d_i) with d_i the normalised divisor gcd(s_i, t_i, r).
    For genus >= 2 every s-entry is now 0, so every separating-curve value
    is 1 and W_i^{t_i} moves t_i into t_{i+1}, leaving t_i = 0.  Then one
    block W^m . flip . W^m on handle g-1 takes the last entry t to its
    canonical value (0, or 1 for even r and odd parity): W^m turns
    (t_{g-1}, t_g) = (0, t) into (-m, t + m), the flip negates t_{g-1} and
    the second W^m returns it to 0, for a net t + 2m.  So m solves
    2m = target - t (mod r) with |m| <= r/2: (target - t)/2 for even r,
    where target = t mod 2, and (target - t) * 2^{-1} mod r for odd r.
    """
    form = canonical_form(root)
    r, g = root.order, root.genus
    state = list(root.coords)
    word: list[tuple[str, int, int]] = []  # (family, index, power) letters

    def emit(family: str, index: int, power: int) -> None:
        # the action of a power only depends on it mod r and powers of one
        # twist add, so keep words short: fold each letter into an
        # equal-twist predecessor and drop letters that vanish mod r
        for slot, value in _twist(state, r, family, index - 1, power % r):
            state[slot] = value % r
        if word and word[-1][:2] == (family, index):
            power += word.pop()[2]
        power = _signed_residue(power, r)
        if power:
            word.append((family, index, power))

    def reduce_handle(i: int) -> None:
        # signed Euclid until one slot of handle i (0-based) vanishes mod r;
        # work on the coordinate with the larger least-absolute representative,
        # preferring the t-slot on ties
        while True:
            s = _signed_residue(state[2 * i], r)
            t = _signed_residue(state[2 * i + 1], r)
            if s == 0 or t == 0:
                break
            if abs(s) > abs(t):
                emit("V", i + 1, -_nearest_quotient(s, t))
            else:
                emit("U", i + 1, _nearest_quotient(t, s))
        if state[2 * i + 1] == 0 and state[2 * i] != 0:
            emit("U", i + 1, -1)  # (s, 0) -> (s, s)
            emit("V", i + 1, -1)  # (s, s) -> (0, s)
        t = state[2 * i + 1]
        if t != 0:
            d = gcd(t, r)
            if t != d:
                # t/d is a unit mod r/d, so a*t = d (mod r) is solvable
                a = pow(t // d, -1, r // d)
                emit("V", i + 1, a)  # (0, t) -> (d, t)
                emit("U", i + 1, t // d)  # (d, t) -> (d, 0)
                emit("U", i + 1, -1)  # (d, 0) -> (d, d)
                emit("V", i + 1, -1)  # (d, d) -> (0, d)

    for i in range(g):
        reduce_handle(i)

    if g >= 2:
        # all s-entries vanish here, so every separating-curve value is 1 and
        # a w-power moves handle values verbatim into the next slot
        for i in range(g - 1):
            m = state[2 * i + 1]
            if m:
                emit("W", i + 1, m)
        last = state[2 * g - 1]
        target = 0 if r % 2 == 1 else last % 2
        up = (target - last) % r
        # the least |m| with 2m = up (mod r); (r + 1)/2 inverts 2 mod odd r
        if r % 2 == 0:
            m = _signed_residue(up // 2, r // 2)
        else:
            m = _signed_residue(up * (r + 1) // 2, r)
        if m:
            emit("W", g - 1, m)
            emit("V", g - 1, -1)  # (0, -m) -> (m, -m)
            emit("U", g - 1, -2)  # (m, -m) -> (m, m)
            emit("V", g - 1, -1)  # (m, m) -> (0, m)
            emit("W", g - 1, m)

    if tuple(state) != form.canonical_coords():
        raise RuntimeError("witness replay did not reach the canonical representative")
    return form, TwistWord([_trusted(TwistGenerator, family=f, index=i, power=m) for f, i, m in word])
