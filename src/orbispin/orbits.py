"""Brute-force orbit enumeration of the twist action on Z_r^{2g}.

States are packed into mixed-radix integers (base r, big-endian, so index
order is lexicographic order of tuples) and the search works on numpy index
arrays, so no per-state Python objects are created.  Each orbit is
represented by its lexicographically least member, and orbits are listed in
ascending order of it.  A move is one generator power reduced mod r; its
packed images are built from the decoded digits by ``twists._twist``.

Three engines partition the space and give identical records.  They act by
the moves they are given; the library gives them the unit twists'.

Breadth-first search (``_levels``) for ``orbit_of`` and for big genus-1
spaces.  It needs neither a sort nor the inverse twists.  Each move is a
bijection of Z_r^{2g}, so it maps the distinct states of a frontier to
distinct images: the images not yet marked in ``seen`` are new and
distinct, and once marked, later moves find any repeats.  Each move has
finite order, so its inverse is a positive power of it and the closure under
the moves alone is the whole orbit.  States are int32 if r^{2g} <= 2^31 and
r (2r + 2) < 2^31 (``_twist``'s unreduced values reach r (2r + 1)), else
int64.  A level is the list of new-state arrays its chunks found; the next
chunk joins consecutive ones, up to ``_CHUNK`` states, and is decoded into
its 2g digit arrays once for the moves and the label check.  No level is
copied whole, and a chunk's arrays are freed before the next chunk's are
built.

``_orbits_by_levels`` searches in rounds, each from several seeds at once,
so the many small levels of many orbits share chunks.  The seeds are the
first unvisited state of each distinct invariant value among the next r
indices, at most 255 (one when (g, r) has a single label).  The first
round's r indices are the row (0, ..., 0, t), which holds every label:
gcd(0, t, r) = gcd(t, r) takes every divisor of r, and the parity flips
with t.  ``seen`` is 0 at an unvisited state and else the rank (1 to 255)
of the seed whose search reached it; a new image takes its source's rank.
Each chunk checks its states' invariants against the labels of their ranks,
and an image that already holds another rank of the round is a clash: two
seeds, whose values differ, reached one orbit.  Sizes are counted per rank.
If no check fails, every seed is its orbit's least member m.  Earlier rounds
closed whole orbits, so m is unvisited when the round starts and lies
between the round's first unvisited state and the seed, in the round's r
indices; m has the seed's value, and the seed is the least unvisited state
of that value there, so m is the seed.  The records are then those of one
search per orbit, sorted by seed.  A failed round need not name the least
mixed orbit: its least member may share its value with an earlier seed of
another orbit and seed nothing.  So the search then runs again with one
seed per round, the least unvisited state, and names the first orbit that
fails.  Memory is the 1 B/state ``seen`` array, 4 B per state of two levels
and one chunk's arrays.  A round's levels hold the frontiers of all its
orbits at once, 7% more states than the largest orbit's alone at
(1, 4096).  Traced peaks: 5.2 B/state at (2, 21), 2.9 at (2, 31), 2.5 at
(1, 720), 1.6 for the 2^24 states of (1, 4096) and 1.9-2.2 for those of
(2, 64), (3, 16) and (4, 8), two orbits each.

Min-label propagation (``_orbits_by_tables``, after Shiloach and Vishkin,
J. Algorithms 1982) for small genus-1 spaces, where the search above is
mostly per-call numpy overhead (at genus >= 2 the tests hold the handles to
it).  It decodes every state once and builds one packed image table per
move, 8 B per state and move; no inverse tables are built.  Each sweep
lowers every state's label to the least label among its images, pulling
labels from images only, then jumps pointers (label = label[label]).  Sweeps
repeat until one changes nothing: at most 15 sweeps on every r within the
bound, at (1, 115).  A label starts at the state itself, only decreases, and
always names a member of the state's orbit.  At the fixed point label[x] <=
label[m(x)] for every move m, and a move permutes each of its finite cycles,
so the label is constant on every cycle and hence on every orbit; being at
most every member and itself a member, it is the orbit's least member.  The
representatives are then the states that label themselves, already in
ascending order.  The same propagation also runs along edges listed both
ways; at its fixed point the ends of every edge agree, so by the same
argument each label is the least member of its component.

Handle by handle (``_orbits_by_handles``) at every genus >= 2.  U_h and
V_h move only the pair (s_h, t_h), W_h only the handles h and h + 1, each
by the same formula on every handle up to a shift of index.  An orbit is a
component of the Schreier graph of the moves (Holt, Eick and O'Brien,
Handbook of Computational Group Theory, 2005, 4.1), so it can be built from
coarser pieces:

1. The U/V twists generate a product of per-handle groups, whose orbits
   (product classes) are products of one handle's classes: the d(r)
   genus-1 orbits below, found once by the tables' propagation on Z_r^2.
2. An orbit is a union of product classes.  An edge of W_h changes only
   the classes of handles h and h + 1, whatever the others are, as W_1
   does those of handles 1 and 2, so every W_h joins the same class pairs:
   those W_1 joins on Z_r^4, found once.  On a row (s_1, s_2), W_1 moves
   t_1 by -omega and t_2 by +omega, omega = s_1 - s_2 + 1, so its edges
   there are the product of each handle's (class before, class after)
   pairs, and their union over the r^2 rows is its edges on Z_r^4.  With
   M[s, v] the pairs (class of (s, t), class of (s, t + v)) over t, handle
   2's pairs are M[s_2, omega] and handle 1's are M[s_1, omega] reversed.
   One pass over the r^3 cells (s, v, t), in slabs of v of at most
   max(r^2, ``_CHUNK``) cells, builds M.  Inverting omega(s_1, .), a
   permutation that ``_twist`` gives as the new t_2 at t_2 = 0, finds the
   rows that carry each omega, and one float32 0/1 matrix product per slab
   collects their edges (``_w_edges``): BLAS computes it exactly, as its
   entries are counts below 2^24, positive when one of their terms is.
   Propagation along the edges, listed both ways, gives the partition, and
   the orbits are its join tensored with the identity at each of the g - 1
   places.
3. Class ids are ranked by least member and a product class is packed in
   their mixed radix, so index order is the order of least members.  Its
   least member and size come from its handles' by outer products.  Its
   label starts at the least member of its class in the join at handles
   (1, 2), no larger than it and in its orbit, so genus 2 needs no pull.
   Genus g pulls along the other g - 2 places, each edge moved to its ends'
   starting labels: those propagate as above, each starting at itself, and
   every other label follows its start's by pointer jumping.
4. The label check reads classes, not states, and only at even r, as odd
   r has one label.  The parity is a sum over handles: ``_parity(x, g)`` is
   the XOR of ``_parity(x_h, 1)`` over the handles.  So ``_parity(., 1)``,
   read once on Z_r^2, gives each handle class one parity or both, and a
   product class has the XOR of its handles' parities, or both as soon as
   one of its handles' classes has both; outer products give these too.
   Memory is one handle's arrays of r^2 entries, d(r)^g product classes,
   one slab's arrays and d(r)^4 float32s: a traced peak of 0.44-0.91 MB at
   (2, 31), (2, 32), (2, 64) and (2, 100), 1.5 MB at (2, 120), 11.6 MB at
   (2, 360) and 0.12 MB or less at (3, 8), (3, 16) and (4, 8).

The tables and the handles end in one tail (``_records``), over classes of
states ranked by least member; for the tables every state is its own
class.  An orbit's representative is the least member of its least class,
and its size the sum of its classes' (int64, or Python ints past 2^63
states).  A class fails the label check when its invariant value differs
from its orbit's label, as a class holding two values always does; the
error names the least representative among the orbits that hold a failing
class.

``_partition``, behind ``partition_orbits``, is the one place that picks
an engine.  A space of one state (r = 1, or genus 0) needs none: its one
orbit is the zero tuple, labelled by that tuple's canonical form, and
numpy is not imported.  Else genus >= 2 goes handle by handle, and genus 1
to the tables when states x distinct moves is at most ``_TABLE_CELLS`` =
2^15, up to (1, 128), so its tables take at most 256 KB; that bound sits
where the tables and the search cost about the same, and larger genus-1
spaces go to the search.
Of the 1,266 contexts of the benchmark's census, 731 have one state (237
at genus 0, whose census runs no partition, and 494 at r = 1), the tables
take the 294 at genus 1 and the handles 241, at (2, 2) to (2, 11) and
(3, 2) to (3, 5).  Those 1,029 checked contexts span 90 (g, r), and
``moduli_report`` keeps each (g, r)'s self-check, so a pass makes 90
partition calls, one per (g, r).

The twist formulas read only (g, r), never the cone data, so neither does
the partition: each (g, r) is partitioned at most once per process, keyed
on (r, g) alone.  The first call's cost depends only on its own (g, r),
and the cap is checked on every call, a repeat included.  A call that
raises (``MixedOrbit``) keeps nothing.  A kept partition is a frozen record
of Python ints, at most d(r) orbits, made by work over all r^{2g} states,
so what is kept never outgrows the work already done.  Only the search
functions import numpy; the closed forms below never load it.

The closed-form counts implemented alongside: for genus >= 2 and even r the
action has exactly two orbits, of sizes r^{2g} (2^g + 1) / 2^{g+1} and
r^{2g} (2^g - 1) / 2^{g+1} (even/odd Arf-type parity); for odd r it is
transitive.  For genus 1 the orbit of (0, d) consists of the pairs
generating the same ideal of Z_r as the divisor d; there are J_2(r/d) of
them, J_2 being the Jordan totient.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cache, partial
from typing import Any, Callable

from .errors import MixedOrbit
from .orbifold import _as_int, _trusted, divisors
from .roots import DEFAULT_STATE_CAP, RootTuple, _check_state_count
from .seifert import RootContext
from .twists import (
    StandardForm,
    TwistGenerator,
    _parity,
    _twist,
    canonical_form,
)


Components = tuple[tuple[StandardForm, int], ...]


def _of_gr(part: str, value: Any, kind: type, r: int, genus: int) -> None:
    """ValueError unless ``value``, a label or representative of a ``part``,
    is a ``kind`` of order r and genus g."""
    if not isinstance(value, kind) or (value.order, value.genus) != (r, genus):
        raise ValueError(f"{part} {reprlib.repr(value)} is not a {kind.__name__} of order {r} and genus {genus}")


def _components(parts: Any, r: int, genus: int, part: str, size: str) -> Components:
    """``parts``, pairs (label, size), as a census of Z_r^{2g}, else
    ValueError: labels of order r and genus g, pairwise distinct, and sizes
    positive integers summing to r^{2g}.  The one rule for both census
    records, the orbit partition and the moduli report; ``part`` and
    ``size`` name a part and its size in the messages."""
    components = tuple((label, _as_int(n, size, 1)) for label, n in parts)
    for label, _ in components:
        _of_gr(f"{part} label", label, StandardForm, r, genus)
    total = r ** (2 * genus)
    sizes = sum(n for _, n in components)
    if sizes != total:
        raise ValueError(f"{size}s sum to {sizes}, expected r^(2g) = {total}")
    if len({label for label, _ in components}) != len(components):
        raise ValueError(f"{part} labels must be pairwise distinct")
    return components


@dataclass(frozen=True)
class OrbitRecord:
    representative: RootTuple
    size: int
    label: StandardForm


@dataclass(frozen=True)
class OrbitPartition:
    """The full orbit decomposition of Z_r^{2g} under the unit twists."""

    order: int
    genus: int
    orbits: tuple[OrbitRecord, ...]

    def __post_init__(self) -> None:
        r, genus = _as_int(self.order, "order", 1), _as_int(self.genus, "genus", 0)
        object.__setattr__(self, "order", r)
        object.__setattr__(self, "genus", genus)
        for rec in self.orbits:
            _of_gr("orbit representative", rec.representative, RootTuple, r, genus)
        _components(((rec.label, rec.size) for rec in self.orbits), r, genus, "orbit", "orbit size")

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

# states decoded at a time by the breadth-first search, and cells in one slab of
# the handle engine's W join: bounds the arrays of one step of either engine,
# which in the search sit on top of the levels of every orbit a round searches
_CHUNK = 1 << 14

# the largest table size (states x distinct moves) searched by image tables at
# genus 1, 256 KB of tables at (1, 128), where the two engines cost about the
# same; larger spaces go to the breadth-first search
_TABLE_CELLS = 1 << 15

# the invariant value of a class whose states have two values; no label has it
_BOTH = -1


def _weights(r: int, genus: int) -> list[int]:
    return [r ** (2 * genus - 1 - a) for a in range(2 * genus)]


def _digits(states: np.ndarray | int, r: int, count: int) -> list:
    """The ``count`` base-r digits of packed states below r^count or of one int, most significant first."""
    digits = []
    for _ in range(count - 1):
        quotient = states // r
        digits.append(states - quotient * r)
        states = quotient
    return [states] + digits[::-1] if count else []


def _unit_moves(r: int, genus: int) -> tuple[_Move, ...]:
    """The moves of ``standard_generators(genus)``; none at r = 1, where every twist acts trivially."""
    return () if r == 1 else tuple((g.family, g.index - 1, g.power) for g in standard_generators(genus))


def _image(states: np.ndarray, digits: list, r: int, w: list[int], move: _Move) -> np.ndarray:
    """The packed images of packed ``states``, decoded into ``digits``, under one move."""
    image = states
    for slot, value in _twist(digits, r, *move):
        # in place on _twist's fresh, non-negative value: image + (value mod r - digit) * weight
        quotient = value // r
        quotient *= r
        value -= quotient
        value -= digits[slot]
        value *= w[slot]
        value += image
        image = value
    return image


def _state_dtype(r: int, genus: int) -> str:
    # int32 when every packed state and every unreduced _twist value (< r (2r + 1)) fits
    return "int32" if r ** (2 * genus) <= 1 << 31 and r * (2 * r + 2) < 1 << 31 else "int64"


def _levels(seeds: list[int], seen: np.ndarray, r: int, genus: int, moves: tuple[_Move, ...],
            visit: Callable[[np.ndarray, list, np.ndarray], None]) -> None:
    """Breadth-first search from ``seeds`` at once (at most 255 of them):
    marks each state that seed k (from 1) reaches k in ``seen`` and calls
    ``visit(states, digits, ranks)`` on each chunk of each level.  MixedOrbit
    when one seed's search reaches a state that another's holds.

    One move is a bijection, so its images of distinct states are distinct;
    those not yet seen are new and need no further dedupe.
    """
    import numpy as np
    w = _weights(r, genus)
    level = [np.array(seeds, dtype=_state_dtype(r, genus))]
    seen[level[0]] = np.arange(1, len(seeds) + 1)
    while level:
        parts, level = level[::-1], []
        while parts:
            # the next chunk joins the first parts left while all fit in _CHUNK states
            batch = [parts.pop()]
            size = batch[0].size
            while parts and size + parts[-1].size <= _CHUNK:
                size += parts[-1].size
                batch.append(parts.pop())
            states = batch[0] if len(batch) == 1 else np.concatenate(batch)
            del batch  # the joined parts are freed
            ranks, digits = seen.take(states), _digits(states, r, 2 * genus)
            visit(states, digits, ranks)
            for move in moves:
                # the images not held yet are new, and take their sources'
                # ranks; one that holds another rank is a clash
                image = _image(states, digits, r, w, move)
                held = seen.take(image)
                new = held == 0
                fresh = image.compress(new)
                if fresh.size + np.count_nonzero(held == ranks) < image.size:
                    raise MixedOrbit("two seeds of one search reach one orbit")
                seen[fresh] = ranks.compress(new)
                del image, held, new  # freed before the next move's image is built
                if fresh.size:
                    level.append(fresh)
            del states, ranks, digits  # freed before the next chunk's arrays are built


def orbit_of(root: RootTuple, cap: int | None = DEFAULT_STATE_CAP) -> set[RootTuple]:
    """Closure of one root under the unit twists and their inverses."""
    import numpy as np
    r, g = root.order, root.genus
    total = _check_state_count(r, g, cap)
    seed = sum(c * w for c, w in zip(root.coords, _weights(r, g)))
    members: set[RootTuple] = set()

    def visit(states: np.ndarray, digits: list, ranks: np.ndarray) -> None:
        rows = np.reshape(digits, (2 * g, states.size)).T.tolist()
        members.update(_trusted(RootTuple, order=r, coords=tuple(row)) for row in rows)

    _levels([seed], np.zeros(total, dtype=np.uint8), r, g, _unit_moves(r, g), visit)
    return members


def partition_orbits(ctx: RootContext, cap: int | None = DEFAULT_STATE_CAP) -> OrbitPartition:
    """Full orbit decomposition of Z_r^{2g}, labelled by canonical forms.

    Each orbit is labelled by the canonical form of its representative (the
    lexicographically least member), and the whole orbit is checked to share
    that form; a mixed orbit would raise MixedOrbit.  CountOverflow when
    r^{2g} exceeds ``cap``; ``cap=None`` means no cap.
    """
    _check_state_count(ctx.order, ctx.genus, cap)
    return _partition(ctx.order, ctx.genus)


@cache
def _partition(r: int, genus: int) -> OrbitPartition:
    """The partition of Z_r^{2g}, made once per (g, r) and process; a call
    that raises keeps nothing, so the next one searches again."""
    total = r ** (2 * genus)
    if total == 1:  # r = 1 or genus 0: the zero tuple is the one state and its orbit
        rep, label = _head(0, r, genus)
        return OrbitPartition(r, genus, (OrbitRecord(rep, 1, label),))
    if genus >= 2:
        return OrbitPartition(r, genus, tuple(_orbits_by_handles(r, genus)))
    moves = _unit_moves(r, genus)
    engine = _orbits_by_tables if total * len(moves) <= _TABLE_CELLS else _orbits_by_levels
    return OrbitPartition(r, genus, tuple(engine(r, genus, moves)))


def _head(seed: int, r: int, genus: int) -> tuple[RootTuple, StandardForm]:
    """The representative and label of the orbit whose least member is ``seed``."""
    rep = _trusted(RootTuple, order=r, coords=tuple(_digits(seed, r, 2 * genus)))
    return rep, canonical_form(rep)


def _orbits_by_levels(r: int, genus: int, moves: tuple[_Move, ...], most: int = 255) -> list[OrbitRecord]:
    """Breadth-first search in rounds, each from the first state of every
    distinct invariant value among the unvisited states of the next r
    indices (at most ``most`` seeds); after a round that fails a check the
    search runs again one orbit per round, which names the least mixed orbit."""
    import numpy as np
    seen = np.zeros(r ** (2 * genus), dtype=np.uint8)
    invariant = _invariant(r, genus)
    found = []
    start = 0
    while not seen[start]:
        seeds = [start] if invariant is None else _seeds(start, seen, r, genus, invariant, most)
        heads = [_head(seed, r, genus) for seed in seeds]
        labels = np.array([_BOTH] + [label.invariant for _, label in heads], dtype=_state_dtype(r, genus))
        sizes = np.zeros(labels.size, dtype=np.int64)
        try:
            _levels(seeds, seen, r, genus, moves, partial(_tally, sizes, labels, invariant))
        except MixedOrbit:
            if len(seeds) > 1:
                return _orbits_by_levels(r, genus, moves, most=1)
            raise _mixed(heads[0][0]) from None
        found += zip(seeds, heads, sizes[1:].tolist())
        start += int(seen[start:].argmin())  # the next unvisited state, if any
    return [OrbitRecord(rep, size, label) for _, (rep, label), size in sorted(found)]


def _tally(sizes: np.ndarray, labels: np.ndarray, invariant: Callable | None,
           states: np.ndarray, digits: list, ranks: np.ndarray) -> None:
    """Count a chunk's states per rank into ``sizes``, and check each state's
    invariant against ``labels`` at its rank; MixedOrbit if one differs."""
    import numpy as np
    least = ranks.min()
    if least == ranks.max():  # counted whole: np.bincount would widen ranks to intp
        sizes[least] += states.size
    else:
        sizes += np.bincount(ranks, minlength=sizes.size)
    if invariant is not None and not (invariant(digits) == labels.take(ranks)).all():
        raise MixedOrbit("a state's invariant differs from its seed's label")


def _seeds(start: int, seen: np.ndarray, r: int, genus: int, invariant: Callable, most: int) -> list[int]:
    """The first unvisited state of each invariant value among the r indices
    from ``start``, at most ``most`` of them, in index order."""
    import numpy as np
    window = start + np.flatnonzero(seen[start:start + r] == 0).astype(_state_dtype(r, genus))
    first = np.unique(invariant(_digits(window, r, 2 * genus)), return_index=True)[1]
    return window[np.sort(first)[:most]].tolist()


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
        if not np.count_nonzero(least != before):
            return least


def _pull_images(table: np.ndarray) -> Callable[[np.ndarray], None]:
    """Lower each label to the label of its image under one move."""
    import numpy as np
    return lambda least: np.minimum(least, least[table], out=least)


def _pull_edges(a: np.ndarray, b: np.ndarray) -> Callable[[np.ndarray], None]:
    """Lower the label at a[k] to the one at b[k]; edges listed both ways lower both ends."""
    import numpy as np
    return lambda least: np.minimum.at(least, a, least[b])


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
    invariant = _invariant(r, genus)
    values = None if invariant is None else invariant(digits)
    return _records(r, genus, least, np.arange(least.size), None, values)


def _orbits_by_handles(r: int, genus: int) -> list[OrbitRecord]:
    """The unit twists' orbits at genus >= 2, from one handle's classes and one W join."""
    import numpy as np
    # 1. the classes of a handle's pairs (s, t), packed as s r + t, under its
    # U and V: least members, each pair's class and the class sizes
    pairs, least = _least_members(r, 1, _unit_moves(r, 1))
    members = (least == np.arange(r * r)).nonzero()[0]
    class_of, sizes = members.searchsorted(least), np.bincount(least)[members]
    count = members.size
    total, cells = count**genus, count * count

    # 2. the partition of two adjacent handles' class pairs that W joins on Z_r^4
    joined = _least_labels(np.arange(cells), [_pull_edges(*_w_edges(r, class_of, count))])

    # 3. the join of that partition at each pair of handles (h, h + 1), product classes
    # numbered big-endian in base count: labels start at the join at handles (1, 2), and
    # each later edge, to the product class with joined's label there, joins starting labels
    start = np.arange(total).reshape(cells, -1)[joined].ravel()
    pulls = []
    for h in range(1, genus - 1):
        index = np.arange(total).reshape(count**h, cells, -1)
        a, b = start, start[index[:, joined].ravel()]
        pulls.append(_pull_edges(np.concatenate((a, b)), np.concatenate((b, a))))
    least = _least_labels(start, pulls) if pulls else start  # genus 2: start is the partition

    # 4. a product class's least member and size, and at even r its parity (the XOR of its
    # handles', unless one of them holds both parities), from its handles' by outer products
    values = None
    if _invariant(r, genus) is not None:
        odd = np.bincount(class_of, _parity(pairs, 1), count)  # a class's pairs of odd parity
        values, both = flips, mixed = odd > 0, (odd > 0) & (odd < sizes)
        for _ in range(genus - 1):
            values = np.bitwise_xor.outer(values, flips).ravel()
            both = np.logical_or.outer(both, mixed).ravel()
        values = np.where(both, _BOTH, values)
    exact = np.int64 if r ** (2 * genus) < 1 << 63 else object  # Python ints past int64
    state, weight = members, sizes = members.astype(exact), sizes.astype(exact)
    for _ in range(genus - 1):
        state = np.add.outer(state * (r * r), members).ravel()
        weight = np.multiply.outer(weight, sizes).ravel()
    return _records(r, genus, least, state, weight, values)


def _w_edges(r: int, class_of: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """W_1's edges on Z_r^4 between class pairs (class of (s_1, t_1), class of
    (s_2, t_2)), packed as a count + b from ``class_of``, each both ways, as
    ``nonzero`` lists them."""
    import numpy as np
    # on a row (s_1, s_2), W_1 moves t_1 by -omega and t_2 by +omega, and rows[s_1, v] is
    # the s_2 whose row has omega = v, omega being the new t_2 at t_2 = 0.  Per slab of v,
    # shown[(s, v), (a, a')] marks the pairs (class of (s, t), class of (s, t + v)) over t:
    # on the row (s_1, rows[s_1, v]) handle 2 moves by those at s_2 and handle 1 by those
    # at s_1 reversed, and one 0/1 product collects met[(a', a), (b, b')]
    cells, zr = count * count, np.arange(r)
    classes = class_of.reshape(r, r)
    # shifted[s, v, t] = classes[s, (t + v) mod r]: a view of columns v to v + r - 1 of twice
    twice = np.concatenate((classes, classes), axis=1)
    shifted = np.ndarray((r, r, r), twice.dtype, twice, 0, twice.strides + twice.strides[1:])
    rows = np.empty((r, r), dtype=zr.dtype)
    rows[zr[:, None], dict(_twist([zr[:, None], 0, zr, 0], r, "W", 0, 1))[3] % r] = zr
    met = np.zeros((cells, cells), dtype=bool)
    step = max(1, _CHUNK // (r * r))  # a slab is one v of r^2 cells past r^2 = _CHUNK
    for start in range(0, r, step):
        k = min(step, r - start)
        spots = shifted[:, start:start + k] + (classes * count + zr[:, None] * (k * cells))[:, None]
        spots += (np.arange(k) * cells)[:, None]  # the flat positions in shown of the pairs
        shown = np.zeros((r * k, cells), dtype=np.float32)
        shown.reshape(-1)[spots] = 1
        met |= shown.T @ shown.take(rows[:, start:start + k] * k + np.arange(k), axis=0).reshape(-1, cells) > 0
    met = met.reshape((count,) * 4).transpose(1, 2, 0, 3).reshape(cells, cells)  # (before, after)
    return (met | met.T).nonzero()


def _records(r: int, genus: int, least: np.ndarray, members: np.ndarray, sizes: np.ndarray | None,
             values: np.ndarray | None) -> list[OrbitRecord]:
    """The orbit records of classes of states ranked by least member: class k
    has its orbit's least class ``least[k]``, least member ``members[k]``,
    ``sizes[k]`` states (one each if None) and invariant value ``values[k]``
    (None when (g, r) has a single label), which fails if not its orbit's."""
    import numpy as np
    seeds = (least == np.arange(least.size)).nonzero()[0]
    heads = [_head(seed, r, genus) for seed in members[seeds].tolist()]
    if values is not None:
        predicted = np.zeros(least.size, dtype=np.int64)
        predicted[seeds] = [label.invariant for _, label in heads]
        mixed = least[values != predicted[least]]
        if mixed.size:
            raise _mixed(heads[int(np.searchsorted(seeds, mixed.min()))][0])
    if sizes is None:
        counts = np.bincount(least)
    else:
        counts = np.zeros(least.size, dtype=sizes.dtype)
        np.add.at(counts, least, sizes)
    return [OrbitRecord(rep, size, label) for (rep, label), size in zip(heads, counts[seeds].tolist())]


def _invariant(r: int, genus: int) -> Callable[[list[np.ndarray]], np.ndarray] | None:
    """The twist invariant that tells the labels apart, computed from decoded
    digit arrays that broadcast against each other; None when (g, r) has a
    single label."""
    import numpy as np
    if genus == 0 or (genus >= 2 and r % 2 == 1):
        return None
    if genus == 1:
        # gcd(s, t, r) = gcd(gcd(s, r), t), looked up in one flat table by
        # the position of gcd(s, r) among the divisors of r and by t
        divs = np.array(divisors(r))
        position = np.searchsorted(divs, np.gcd(np.arange(r), r))
        dtype = _state_dtype(r, 1)  # every value below is less than r^2
        meet, row = np.gcd.outer(divs, np.arange(r)).ravel().astype(dtype), (position * r).astype(dtype)
        return lambda digits: meet.take(row.take(digits[0]) + digits[1])
    return partial(_parity, genus=genus)


def orbit_count_closed_form(genus: int, r: int) -> int | tuple[int, int]:
    """Orbit sizes for genus >= 2 without enumeration.

    Odd r: the action is transitive, one orbit of size r^{2g}.  Even r: the
    pair (even-type count, odd-type count) = r^{2g} (2^g +- 1) / 2^{g+1},
    computed in exact integer arithmetic.
    """
    genus, r = _as_int(genus, "genus"), _as_int(r, "covering order", 1)
    if genus < 2:
        raise ValueError("closed-form counts apply to genus >= 2 only")
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
    r, d = _as_int(r, "covering order", 1), _as_int(d, "divisor")
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
