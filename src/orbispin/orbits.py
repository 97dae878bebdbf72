"""Brute-force orbit enumeration of the twist action on Z_r^{2g}.

States are packed into mixed-radix integers (base r, big-endian, so index
order is lexicographic order of tuples) and the search works on numpy index
arrays, so no per-state Python objects are created.  Each orbit is
represented by its lexicographically least member, and orbits are listed in
ascending order of it.  A move is one generator power reduced mod r; its
packed images are built from the decoded digits by ``twists._twist``.

Two engines partition the space and give identical records.

Breadth-first search (``_levels``), one orbit at a time, for large spaces.
It needs neither a sort nor the inverse twists.  Each move is a bijection
of Z_r^{2g}, so it maps the distinct states of a frontier to distinct
images: the images not yet marked in ``visited`` are new and distinct, and
once marked, later moves find any repeats.  Each move has finite order, so
its inverse is a positive power of it and the closure under the moves alone
is the whole orbit.  A frontier is decoded into its 2g digit arrays once, in
bounded chunks, and the label check reads them.  Memory is the 1 B/state
``visited`` mask plus the widest level.

Min-label propagation (``_orbits_by_tables``, after Shiloach and Vishkin,
J. Algorithms 1982) for small spaces, where the search above is mostly
per-call numpy overhead.  It decodes every state once and builds one packed
image table per move and its inverse, 16 B per state and move.  Each sweep
lowers every state's label to the least label among its images and
preimages, then jumps pointers (label = label[label]).  Sweeps repeat
until one changes nothing: at most 8 sweeps on every (g, r) within the
bound.  A label starts at the state itself, only decreases, and always
names a member of the state's orbit.  At the fixed point
label[x] <= label[m(x)] for every move m, and a move permutes each of its
finite cycles, so the label is constant on every orbit; being at most
every member and itself a member, it is the orbit's least member.  The
representatives are then the states that label themselves, already in
ascending order.

``partition_orbits`` chooses the tables when states x distinct moves is at
most ``_TABLE_CELLS`` = 2^16, so its tables take at most 1 MB.  In a
sweep of both engines (``BENCH_9.json``, 2-core box) the tables won by
2.2-9.7x up to 4,096 states and by 1.65x at (2, 10) (50,000 cells); the
search won at (2, 11) (73,205 cells) by 1.5x and at (2, 31) by 3.9x.  From
about 2^15 to 2^16 cells the winner at genus 1 follows the orbit count, not
the size: the search was 1.5-2x faster at prime r (two orbits), the tables
1.7-2.8x faster at r = 144, 150, 160, 180.  The tables take 1,227 of the
1,266 contexts of the benchmark's census, all but (2, 11) and (3, 5), and
the search every space of 10^5 or more states.  ``orbit_of`` always uses
the search.

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


# (family, 0-based index, power in [1, r)): one generator power acting on Z_r^{2g}
_Move = tuple[str, int, int]

# states decoded at a time: bounds the digit and image arrays of one step
_CHUNK = 1 << 15

# the largest table size (states x distinct moves) searched by image tables;
# larger spaces go to the breadth-first search
_TABLE_CELLS = 1 << 16


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


def _moves(gens: Iterable[TwistGenerator], r: int) -> tuple[_Move, ...]:
    """The distinct (family, 0-based index, power mod r) moves of ``gens``;
    a power divisible by r acts trivially and is dropped."""
    return tuple(dict.fromkeys((g.family, g.index - 1, g.power % r) for g in gens if g.power % r))


def _image(states: np.ndarray, digits: list, r: int, w: list[int], move: _Move) -> np.ndarray:
    """The packed images of packed ``states``, decoded into ``digits``, under one move."""
    image = states
    for slot, value in _twist(digits, r, *move):
        image = image + (_mod(value, r) - digits[slot]) * w[slot]
    return image


def _levels(seed: int, visited: np.ndarray, r: int, genus: int, moves: tuple[_Move, ...]):
    """Breadth-first search from ``seed``: yields each chunk of each level as
    (states, digits) and marks every state it reaches in ``visited``.

    One move is a bijection, so its images of distinct states are distinct;
    those not yet visited are new and need no further dedupe.
    """
    import numpy as np
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
                image = _image(states, digits, r, w, move)
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
    moves = _moves(_validated(generators, g), r)
    levels = _levels(_encode(root.coords, r), np.zeros(total, dtype=bool), r, g, moves)
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
    r, genus = ctx.order, ctx.genus
    total = _check_state_count(r, genus, cap)
    moves = _moves(_validated(generators, genus), r)
    search = _orbits_by_tables if total * len(moves) <= _TABLE_CELLS else _orbits_by_levels
    return OrbitPartition(r, genus, tuple(search(r, genus, moves)))


def _head(seed: int, r: int, genus: int) -> tuple[RootTuple, StandardForm, int]:
    """The representative and label of the orbit whose least member is
    ``seed``, and the invariant value that label predicts for the orbit."""
    rep = RootTuple(r, _digits(seed, r, 2 * genus))
    label = canonical_form(rep)
    # the Arf-type parity is g mod 2 exactly on the all-zero class
    expected = label.d if genus == 1 else (genus + (label.kind != KIND_ALL_ZERO)) % 2
    return rep, label, expected


def _orbits_by_levels(r: int, genus: int, moves: tuple[_Move, ...]) -> list[OrbitRecord]:
    """One breadth-first search per orbit, seeded at the least unvisited state."""
    import numpy as np
    visited = np.zeros(r ** (2 * genus), dtype=bool)
    invariant = _invariant(r, genus)
    records: list[OrbitRecord] = []
    seed = 0
    while not visited[seed]:
        rep, label, expected = _head(seed, r, genus)
        size = 0
        for states, digits in _levels(seed, visited, r, genus, moves):
            size += states.size
            if invariant is not None and not np.all(invariant(digits) == expected):
                raise RuntimeError(f"the orbit of {rep.coords} mixes canonical forms")
        records.append(OrbitRecord(rep, size, label))
        seed += int(visited[seed:].argmin())  # the next unvisited state, if any
    return records


def _orbits_by_tables(r: int, genus: int, moves: tuple[_Move, ...]) -> list[OrbitRecord]:
    """Every state's least orbit member at once, by min-label propagation
    along one image table per move, in both directions, and pointer jumping."""
    import numpy as np
    states = np.arange(r ** (2 * genus))
    digits = _digits(states, r, 2 * genus)
    w = _weights(r, genus)
    tables = [_image(states, digits, r, w, move) for move in moves]
    # the inverses go after all the images: interleaving them took more sweeps
    for image in tables[: len(moves)]:
        inverse = np.empty_like(image)
        inverse[image] = states
        tables.append(inverse)
    least = states.copy()
    while True:
        before = least.copy()
        for table in tables:
            np.minimum(least, least[table], out=least)
        least = least[least]
        if np.array_equal(least, before):
            break
    seeds = np.flatnonzero(least == states)
    heads = [_head(seed, r, genus) for seed in seeds.tolist()]
    invariant = _invariant(r, genus)
    if invariant is not None:
        predicted = np.zeros(states.size, dtype=np.int64)
        predicted[seeds] = [expected for _, _, expected in heads]
        mixed = least[invariant(digits) != predicted[least]]
        if mixed.size:
            rep = heads[int(np.searchsorted(seeds, mixed.min()))][0]
            raise RuntimeError(f"the orbit of {rep.coords} mixes canonical forms")
    sizes = np.bincount(least)[seeds].tolist()
    return [OrbitRecord(rep, size, label) for (rep, label, _), size in zip(heads, sizes)]


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
