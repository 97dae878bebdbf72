"""Brute-force orbit enumeration of the twist action on Z_r^{2g}.

States are packed into mixed-radix integers (base r, big-endian, so index
order is lexicographic order of tuples) and the search works on numpy index
arrays, so no per-state Python objects are created.  Each orbit is
represented by its lexicographically least member, and orbits are listed in
ascending order of it.  A move is one generator power reduced mod r; its
packed images are built from the decoded digits by ``twists._twist``.

Three engines partition the space and give identical records.

Breadth-first search (``_levels``), one orbit at a time, for ``orbit_of``
and for big spaces the handles do not take.  It needs neither a sort nor the
inverse twists.  Each move is a bijection of Z_r^{2g}, so it maps the
distinct states of a frontier to distinct images: the images not yet marked
in ``visited`` are new and distinct, and once marked, later moves find any
repeats.  Each move has finite order, so its inverse is a positive power of
it and the closure under the moves alone is the whole orbit.  States are
int32 if r^{2g} <= 2^31 and r (2r + 2) < 2^31 (``_twist``'s unreduced values
reach r (2r + 1)), else int64.  A level is the list of new-state arrays its
chunks found; the next chunk joins consecutive ones, up to ``_CHUNK``
states, and is decoded into its 2g digit arrays once for the moves and the
label check.  No level is copied whole.  Memory is the 1 B/state ``visited``
mask, 4 B per state of two levels and one chunk's arrays: a traced peak of
10.3 B/state at (2, 21), 4.2 at (2, 31) and 1.6-2.1 for the 2^24 states of
(1, 4096), (2, 64), (3, 16) and (4, 8).

Min-label propagation (``_orbits_by_tables``, after Shiloach and Vishkin,
J. Algorithms 1982) for small spaces, where the search above is mostly
per-call numpy overhead.  It decodes every state once and builds one packed
image table per move, 8 B per state and move; no inverse tables are built.
Each sweep lowers every state's label to the least label among its images,
pulling labels from images only, then jumps pointers (label =
label[label]).  Sweeps repeat until one changes nothing: at most 16 sweeps
on every (g, r) within the bound, at (1, 145).  A label starts at the state
itself, only decreases, and always names a member of the state's orbit.  At
the fixed point label[x] <= label[m(x)] for every move m, and a move
permutes each of its finite cycles, so the label is constant on every
cycle and hence on every orbit; being at most every member and itself a
member, it is the orbit's least member.  The representatives are then the
states that label themselves, already in ascending order.  The same
propagation also runs along edges pulled both ways, lowering both ends to
the lesser label; at its fixed point the ends of every edge agree, so by
the same argument each label is the least member of its component.

Handle by handle (``_orbits_by_handles``) for the unit twists at genus >= 2
above the tables' bound.  U_h and V_h move only the pair (s_h, t_h), W_h
only the handles h and h + 1, each by the same formula on every handle up
to a shift of index.  An orbit is a component of the Schreier graph of the
moves (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005, 4.1), so it can be built from coarser pieces:

1. The U/V twists generate a product of per-handle groups, whose orbits
   (product classes) are products of one handle's classes: the d(r)
   genus-1 orbits below, found once by the tables' propagation on Z_r^2.
2. An orbit is a union of product classes.  An edge of W_h changes only
   the classes of handles h and h + 1, whatever the others are, as W_1
   does those of handles 1 and 2, so every W_h joins the same class pairs:
   those W_1 joins on Z_r^4, found once, in blocks of at most ``_CHUNK``
   states, by propagation along its edges.  The orbits are the join of
   this partition tensored with the identity at each of the g - 1 places.
3. Class ids are ranked by least member and a product class is packed in
   their mixed radix, so index order is the order of least members.  Its
   least member and size come from its handles' by outer products; an
   orbit's representative is the least member of its least class, and its
   size the sum of its classes' (int64, or Python ints past 2^63 states).
4. The label check reads every state, a block of at most ``_CHUNK`` at a
   time, and names the least representative among the orbits that hold a
   mismatch, as the tables do.  Memory is one handle's arrays of r^2
   entries, d(r)^g product classes and one block: a traced peak of about
   1 MB at (2, 31), (2, 32) and (3, 8), and 1.6 MB at 2^24 states.

``partition_orbits`` is the one place that picks an engine.  It chooses
the tables when states x distinct moves is at most ``_TABLE_CELLS`` = 2^16,
so its tables take at most 512 KB.  Above that, genus >= 2 goes handle by
handle when its moves are the unit twists, compared as a set, so any order
or repeat of them routes the same; genus 1 and every other generator set
(such as powers {2, -3}, or W alone) go to the search.  The tables take
1,227 of the 1,266 contexts of the benchmark's census, and the handles the
other 39, at (2, 11) and (3, 5).  Best of 9 in-process times (2-core box,
two sittings, unit twists), search then handles: (2, 31) 62-75 -> 5.9-6.6
ms, (3, 8) 24-28 -> 3.9, (2, 21) 15-16 -> 2.1-3.5, (2, 18) 9.1-9.9 ->
2.7-4.2, (3, 7) 10.4-10.9 -> 0.44-0.48, (3, 5) 2.7-4.2 -> 0.27-0.51,
(2, 11) 1.8-2.8 -> 0.37-0.64.  On tiny spaces the handles cost more than
the tables ((2, 2) 0.35 against 0.20 ms, (4, 2) 0.66 against 0.37); they
win from about 2 x 10^4 cells ((2, 8) 0.49 against 0.93 ms), which the
bound leaves to the tables.  At genus 1, from about 2^15 to 2^16 cells the
winner follows the orbit count, not the size: the search was 1.3-2.1x
faster at prime r (two orbits), the tables 1.8-2.6x faster at r = 144,
150, 160, 180 (``BENCH_10.json``).

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
from itertools import product
from typing import Any, Callable, Iterable

from .errors import MixedOrbit
from .orbifold import divisors
from .roots import DEFAULT_STATE_CAP, RootTuple, _check_state_count
from .seifert import RootContext
from .twists import (
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
# larger spaces go handle by handle or to the breadth-first search
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


def _state_dtype(r: int, genus: int) -> str:
    # int32 when every packed state and every unreduced _twist value (< r (2r + 1)) fits
    return "int32" if r ** (2 * genus) <= 1 << 31 and r * (2 * r + 2) < 1 << 31 else "int64"


def _levels(seed: int, visited: np.ndarray, r: int, genus: int, moves: tuple[_Move, ...]):
    """Breadth-first search from ``seed``: yields each chunk of each level as
    (states, digits) and marks every state it reaches in ``visited``.

    One move is a bijection, so its images of distinct states are distinct;
    those not yet visited are new and need no further dedupe.
    """
    import numpy as np
    w = _weights(r, genus)
    visited[seed] = True
    level = [np.array([seed], dtype=_state_dtype(r, genus))]
    while level:
        parts, level = level[::-1], []
        while parts:
            batch, size = [], 0
            while parts and size + parts[-1].size <= _CHUNK:
                size += parts[-1].size
                batch.append(parts.pop())
            states = np.concatenate(batch)
            digits = _digits(states, r, 2 * genus)
            yield states, digits
            for move in moves:
                image = _image(states, digits, r, w, move)
                fresh = image[~visited[image]]
                visited[fresh] = True
                if fresh.size:
                    level.append(fresh)


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
    seed = sum(c * w for c, w in zip(root.coords, _weights(r, g)))
    levels = _levels(seed, np.zeros(total, dtype=bool), r, g, moves)
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
    that form; a mixed orbit would raise MixedOrbit.  CountOverflow when
    r^{2g} exceeds ``cap``; ``cap=None`` means no cap.
    """
    r, genus = ctx.order, ctx.genus
    total = _check_state_count(r, genus, cap)
    moves = _moves(_validated(generators, genus), r)
    if total * len(moves) <= _TABLE_CELLS:
        records = _orbits_by_tables(r, genus, moves)
    elif genus >= 2 and set(moves) == set(_moves(standard_generators(genus), r)):
        records = _orbits_by_handles(r, genus)
    else:
        records = _orbits_by_levels(r, genus, moves)
    return OrbitPartition(r, genus, tuple(records))


def _head(seed: int, r: int, genus: int) -> tuple[RootTuple, StandardForm]:
    """The representative and label of the orbit whose least member is ``seed``."""
    rep = RootTuple(r, _digits(seed, r, 2 * genus))
    return rep, canonical_form(rep)


def _orbits_by_levels(r: int, genus: int, moves: tuple[_Move, ...]) -> list[OrbitRecord]:
    """One breadth-first search per orbit, seeded at the least unvisited state."""
    import numpy as np
    visited = np.zeros(r ** (2 * genus), dtype=bool)
    invariant = _invariant(r, genus)
    records: list[OrbitRecord] = []
    seed = 0
    while not visited[seed]:
        rep, label = _head(seed, r, genus)
        size = 0
        for states, digits in _levels(seed, visited, r, genus, moves):
            size += states.size
            if invariant is not None and not np.all(invariant(digits) == label.invariant):
                raise _mixed(rep)
        records.append(OrbitRecord(rep, size, label))
        seed += int(visited[seed:].argmin())  # the next unvisited state, if any
    return records


def _least_labels(least: np.ndarray, pulls: list[Callable[[np.ndarray], None]]) -> np.ndarray:
    """Min-label propagation: each sweep runs every pull, which lowers labels
    to labels of their neighbours in place, then jumps pointers (label =
    label[label]); the labels of the first sweep that changes nothing."""
    import numpy as np
    while True:
        before = least.copy()
        for pull in pulls:
            pull(least)
        least = least[least]
        if np.array_equal(least, before):
            return least


def _pull_images(table: np.ndarray) -> Callable[[np.ndarray], None]:
    """Lower each label to the label of its image under one move."""
    import numpy as np
    return lambda least: np.minimum(least, least[table], out=least)


def _pull_both_ways(a: np.ndarray, b: np.ndarray) -> Callable[[np.ndarray], None]:
    """Lower the labels at both ends of each edge (a[k], b[k]) to the lesser of the two."""
    import numpy as np

    def pull(least: np.ndarray) -> None:
        np.minimum.at(least, a, least[b])
        np.minimum.at(least, b, least[a])
    return pull


def _least_members(r: int, genus: int, moves: tuple[_Move, ...]) -> tuple[list, np.ndarray]:
    """The decoded digits of every state and every state's least orbit member,
    by min-label propagation along one packed image table per move."""
    import numpy as np
    states = np.arange(r ** (2 * genus))
    digits = _digits(states, r, 2 * genus)
    w = _weights(r, genus)
    tables = [_image(states, digits, r, w, move) for move in moves]
    return digits, _least_labels(states, [_pull_images(table) for table in tables])


def _mixed(rep: RootTuple) -> MixedOrbit:
    return MixedOrbit(f"the orbit of {rep.coords} mixes canonical forms")


def _orbits_by_tables(r: int, genus: int, moves: tuple[_Move, ...]) -> list[OrbitRecord]:
    """Every state's least orbit member at once, by min-label propagation
    along one image table per move and pointer jumping."""
    import numpy as np
    digits, least = _least_members(r, genus, moves)
    seeds = np.flatnonzero(least == np.arange(least.size))
    heads = [_head(seed, r, genus) for seed in seeds.tolist()]
    invariant = _invariant(r, genus)
    if invariant is not None:
        predicted = np.zeros(least.size, dtype=np.int64)
        predicted[seeds] = [label.invariant for _, label in heads]
        mixed = least[invariant(digits) != predicted[least]]
        if mixed.size:
            raise _mixed(heads[int(np.searchsorted(seeds, mixed.min()))][0])
    sizes = np.bincount(least)[seeds].tolist()
    return [OrbitRecord(rep, size, label) for (rep, label), size in zip(heads, sizes)]


def _orbits_by_handles(r: int, genus: int) -> list[OrbitRecord]:
    """The unit twists' orbits at genus >= 2, from one handle's classes and one W join."""
    import numpy as np
    # 1. the classes of a handle's pairs (s, t), packed as s r + t, under its
    # U and V: least members, each pair's class and the class sizes
    least = _least_members(r, 1, _moves(standard_generators(1), r))[1]
    members = np.flatnonzero(least == np.arange(r * r))
    class_of, sizes = np.searchsorted(members, least), np.bincount(least)[members]
    count = members.size
    total = count**genus

    # 2. the partition of two adjacent handles' class pairs that W joins on Z_r^4
    joined = np.arange(count * count)
    for digits in _blocks(r, 4):
        moved = list(digits)
        for slot, value in _twist(digits, r, "W", 0, 1):
            moved[slot] = _mod(value, r)
        src, dst = (class_of[d[0] * r + d[1]] * count + class_of[d[2] * r + d[3]] for d in (digits, moved))
        edge = src != dst
        a, b = joined[src[edge]], joined[dst[edge]]
        cross = a != b
        if cross.any():
            joined = _least_labels(joined, [_pull_both_ways(a[cross], b[cross])])

    # 3. the join of that partition at each pair of handles (h, h + 1): an edge from each
    # product class (class ids big-endian in base count) to the one with joined's label there
    pulls = []
    for h in range(genus - 1):
        index = np.arange(total).reshape(count**h, count * count, count ** (genus - 2 - h))
        pulls.append(_pull_both_ways(index.ravel(), index[:, joined].ravel()))
    least = _least_labels(np.arange(total), pulls)

    # 4. a product class's least member and size, from its handles' by outer
    # products; an orbit's from its classes'
    seeds = np.flatnonzero(least == np.arange(total))
    exact = np.int64 if r ** (2 * genus) < 1 << 63 else object  # Python ints past int64
    state, weight = np.zeros(1, dtype=exact), np.ones(1, dtype=exact)
    for _ in range(genus):
        state = np.add.outer(state * (r * r), members.astype(exact)).ravel()
        weight = np.multiply.outer(weight, sizes.astype(exact)).ravel()
    heads = [_head(seed, r, genus) for seed in state[seeds].tolist()]
    orbit_sizes = np.zeros(total, dtype=exact)
    np.add.at(orbit_sizes, least, weight)

    # 5. every state's label, a block at a time
    invariant = _invariant(r, genus)
    if invariant is not None:
        predicted = np.zeros(total, dtype=np.int64)
        predicted[seeds] = [label.invariant for _, label in heads]
        predicted = predicted[least]
        worst = total
        for digits in _blocks(r, 2 * genus):
            c = sum(class_of[digits[2 * h] * r + digits[2 * h + 1]] * count ** (genus - 1 - h) for h in range(genus))
            mixed = c[invariant(digits) != predicted[c]]
            if mixed.size:
                worst = min(worst, int(least[mixed].min()))
        if worst < total:
            raise _mixed(heads[int(np.searchsorted(seeds, worst))][0])
    return [OrbitRecord(rep, size, label) for (rep, label), size in zip(heads, orbit_sizes[seeds].tolist())]


def _blocks(r: int, count: int):
    """Every tuple of Z_r^count, at most ``_CHUNK`` at a time, in order, as
    ``count`` digits that broadcast against each other: a block fixes its
    leading digits as ints, takes a run of values of the next one, and every
    value of the rest, so each digit's array holds at most r entries."""
    import numpy as np
    free = 0
    while free < count and r ** (free + 1) <= _CHUNK:
        free += 1
    tail = [np.arange(r).reshape((-1,) + (1,) * (free - 1 - a)) for a in range(free)]
    if free == count:
        yield tail
        return
    step = _CHUNK // r**free
    for head in product(range(r), repeat=count - free - 1):
        for start in range(0, r, step):
            yield [*head, np.arange(start, min(start + step, r)).reshape((-1,) + (1,) * free), *tail]


def _invariant(r: int, genus: int) -> Callable[[list[np.ndarray]], np.ndarray] | None:
    """The twist invariant that tells the labels apart, computed from decoded
    digit arrays that broadcast against each other; None when (g, r) has a
    single label."""
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
