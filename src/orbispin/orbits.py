"""Brute-force orbit enumeration of the twist action on Z_r^{2g}.

States are packed into mixed-radix integers (base r, big-endian, so index
order is lexicographic order of tuples) and the search works on numpy index
arrays, so no per-state Python objects are created.  Orbits are discovered
in ascending order of their lexicographically minimal member, which
therefore serves as the representative.

The search needs neither a sort nor the inverse twists.  Each generator is a
bijection of Z_r^{2g}, so it maps the distinct states of a frontier to
distinct images: the images not yet marked in ``visited`` are new and
distinct, and once marked, later generators find any repeats.  Each
generator has finite order, so its inverse is a positive power of it and the
closure under the generators alone is the whole orbit.  A frontier is
decoded into its 2g digit arrays once, in bounded chunks; the generator
images (by ``twists._twist``) and the label check are built from them.

The twist formulas read only (g, r), never the cone data.  Nothing is
cached between calls: the cost of a partition depends only on its own
(g, r) and generators, never on which calls came before it.  Only the
search functions import numpy; the closed forms below never load it.

The closed-form counts implemented alongside: for genus >= 2 and even r the
action has exactly two orbits, of sizes r^{2g} (2^g + 1) / 2^{g+1} and
r^{2g} (2^g - 1) / 2^{g+1} (even/odd Arf-type parity); for odd r it is
transitive.  For genus 1 the orbit of (0, d) consists of the pairs
generating the same ideal of Z_r as the divisor d; there are J_2(r/d) of
them, J_2 being the Jordan totient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from .orbifold import divisors
from .roots import DEFAULT_STATE_CAP, RootTuple, _check_state_count
from .seifert import RootContext
from .twists import (
    KIND_ALL_ZERO,
    StandardForm,
    TwistGenerator,
    _check_index,
    _parity,
    _twist,
    canonical_form,
)


@dataclass(frozen=True)
class OrbitRecord:
    representative: RootTuple
    size: int
    label: StandardForm


@dataclass(frozen=True)
class OrbitPartition:
    """The full orbit decomposition of Z_r^{2g} under a twist generator set."""

    order: int
    genus: int
    orbits: tuple[OrbitRecord, ...]

    def __post_init__(self) -> None:
        total = sum(rec.size for rec in self.orbits)
        if total != self.order ** (2 * self.genus):
            raise ValueError(f"orbit sizes sum to {total}, expected r^(2g)")
        labels = [rec.label for rec in self.orbits]
        if len(set(labels)) != len(labels):
            raise ValueError("orbit labels must be pairwise distinct")

    def sizes(self) -> tuple[int, ...]:
        return tuple(rec.size for rec in self.orbits)

    def to_json(self) -> dict[str, Any]:
        return {
            "r": self.order,
            "g": self.genus,
            "orbits": [
                {
                    "rep": list(rec.representative.coords),
                    "size": rec.size,
                    "label": rec.label.to_json(),
                }
                for rec in self.orbits
            ],
        }


def standard_generators(genus: int) -> tuple[TwistGenerator, ...]:
    """The unit twists u_1, v_1, ..., u_g, v_g, w_1, ..., w_{g-1}."""
    handles = [TwistGenerator(family, i) for i in range(1, genus + 1) for family in "UV"]
    return tuple(handles + [TwistGenerator("W", i) for i in range(1, genus)])


# states decoded at a time: bounds the digit and image arrays of one step
_CHUNK = 1 << 15


def _weights(r: int, genus: int) -> list[int]:
    return [r ** (2 * genus - 1 - a) for a in range(2 * genus)]


def _validated(generators: Iterable[TwistGenerator] | None, genus: int) -> tuple[TwistGenerator, ...]:
    gens = standard_generators(genus) if generators is None else tuple(generators)
    for gen in gens:
        _check_index(gen.family, gen.index, genus)
    return gens


def _mod(x: np.ndarray, r: int) -> np.ndarray:
    # x % r for x >= 0: numpy divides int64 by a scalar much faster than it
    # takes the remainder, above all of negative numbers
    return x - (x // r) * r


def _digits(states: np.ndarray | int, r: int, count: int) -> list:
    """The ``count`` base-r digits of packed states or of one int, most significant first."""
    digits = []
    for _ in range(count):
        quotient = states // r
        digits.append(states - quotient * r)
        states = quotient
    return digits[::-1]


def _levels(seed: int, visited: np.ndarray, r: int, genus: int, gens: tuple[TwistGenerator, ...]):
    """Breadth-first search from ``seed``: yields each chunk of each level as
    (states, digits) and marks every state it reaches in ``visited``.

    One generator is a bijection, so its images of distinct states are
    distinct; those not yet visited are new and need no further dedupe.
    A power divisible by r acts trivially and is dropped.
    """
    import numpy as np
    moves = dict.fromkeys((g.family, g.index - 1, g.power % r) for g in gens if g.power % r)
    w = _weights(r, genus)
    visited[seed] = True
    frontier = np.array([seed], dtype=np.int64)
    while frontier.size:
        level = [frontier[:0]]
        for start in range(0, frontier.size, _CHUNK):
            states = frontier[start : start + _CHUNK]
            digits = _digits(states, r, 2 * genus)
            yield states, digits
            for move in moves:
                image = states
                for slot, value in _twist(digits, r, *move):
                    image = image + (_mod(value, r) - digits[slot]) * w[slot]
                fresh = image[~visited[image]]
                visited[fresh] = True
                level.append(fresh)
        frontier = np.concatenate(level)


def _encode(coords: Sequence[int], r: int) -> int:
    index = 0
    for c in coords:
        index = index * r + (c % r)
    return index


def orbit_of(
    root: RootTuple,
    cap: int | None = DEFAULT_STATE_CAP,
    generators: Iterable[TwistGenerator] | None = None,
) -> set[RootTuple]:
    """Closure of one root under the twist generators and their inverses."""
    import numpy as np
    r, g = root.order, root.genus
    total = _check_state_count(r, g, cap)
    gens = _validated(generators, g)
    levels = _levels(_encode(root.coords, r), np.zeros(total, dtype=bool), r, g, gens)
    chunks = (np.reshape(digits, (2 * g, states.size)).T.tolist() for states, digits in levels)
    return {RootTuple._trusted(r, tuple(row)) for rows in chunks for row in rows}


def partition_orbits(
    ctx: RootContext,
    cap: int | None = DEFAULT_STATE_CAP,
    generators: Iterable[TwistGenerator] | None = None,
) -> OrbitPartition:
    """Full orbit decomposition of Z_r^{2g}, labelled by canonical forms.

    Each orbit is labelled by the canonical form of its representative (the
    lexicographically least member), and the whole orbit is checked to share
    that form; a mixed orbit would raise RuntimeError.
    """
    import numpy as np
    r, genus = ctx.order, ctx.genus
    total = _check_state_count(r, genus, cap)
    gens = _validated(generators, genus)
    visited = np.zeros(total, dtype=bool)
    invariant = _invariant(r, genus)
    records: list[OrbitRecord] = []
    seed = 0
    while not visited[seed]:
        rep = RootTuple(r, _digits(seed, r, 2 * genus))
        label = canonical_form(rep)
        # the Arf-type parity is g mod 2 exactly on the all-zero class
        expected = label.d if genus == 1 else (genus + (label.kind != KIND_ALL_ZERO)) % 2
        size = 0
        for states, digits in _levels(seed, visited, r, genus, gens):
            size += states.size
            if invariant is not None and not np.all(invariant(digits) == expected):
                raise RuntimeError(f"the orbit of {rep.coords} mixes canonical forms")
        records.append(OrbitRecord(rep, size, label))
        seed += int(visited[seed:].argmin())  # the next unvisited state, if any
    return OrbitPartition(r, genus, tuple(records))


def _invariant(r: int, genus: int) -> Callable[[list[np.ndarray]], np.ndarray] | None:
    """The twist invariant that tells the labels apart, computed from decoded
    digits; None when (g, r) has a single label."""
    import numpy as np
    if genus == 0 or (genus >= 2 and r % 2 == 1):
        return None
    if genus == 1:
        # gcd(s, t, r) = gcd(gcd(s, r), gcd(t, r)), looked up by the position
        # of gcd(x, r) among the divisors of r
        divs = np.array(divisors(r))
        position = np.searchsorted(divs, np.gcd(np.arange(r), r))
        meet = np.gcd.outer(divs, divs)
        return lambda digits: meet[position[digits[0]], position[digits[1]]]
    return partial(_parity, genus=genus)


def orbit_count_closed_form(genus: int, r: int) -> int | tuple[int, int]:
    """Orbit sizes for genus >= 2 without enumeration.

    Odd r: the action is transitive, one orbit of size r^{2g}.  Even r: the
    pair (even-type count, odd-type count) = r^{2g} (2^g +- 1) / 2^{g+1},
    computed in exact integer arithmetic.
    """
    if genus < 2:
        raise ValueError("closed-form counts apply to genus >= 2 only")
    if r < 1:
        raise ValueError(f"order must be a positive integer, got {r!r}")
    total = r ** (2 * genus)
    if r % 2 == 1:
        return total
    denom = 2 ** (genus + 1)
    even_count, rem = divmod(total * (2**genus + 1), denom)
    assert rem == 0
    odd_count, rem = divmod(total * (2**genus - 1), denom)
    assert rem == 0
    return even_count, odd_count


def genus_one_orbit_size(r: int, d: int) -> int:
    """Number of pairs (s, t) in Z_r^2 generating the same ideal as d.

    With gcd(s, t, r) normalised so the zero pair belongs to d = r, the count
    is the Jordan totient J_2(r/d).
    """
    if r < 1:
        raise ValueError(f"order must be a positive integer, got {r!r}")
    if d < 1 or r % d != 0:
        raise ValueError(f"{d} does not divide {r}")
    return _jordan_totient_2(r // d)


def _jordan_totient_2(m: int) -> int:
    """J_2(m) = m^2 * prod over primes p | m of (1 - 1/p^2), exactly."""
    result = m * m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            result = result // (p * p) * (p * p - 1)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        result = result // (n * n) * (n * n - 1)
    return result
