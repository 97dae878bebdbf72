from dataclasses import replace
from functools import reduce
from itertools import islice, product
from math import gcd
from operator import xor

import numpy as np
import pytest

from orbispin import orbits
from orbispin import (
    CountOverflow,
    MixedOrbit,
    OrbifoldSignature,
    OrbitPartition,
    OrbitRecord,
    RootTuple,
    StandardForm,
    TwistGenerator,
    canonical_form,
    divisors,
    genus_one_orbit_size,
    orbit_count_closed_form,
    orbit_of,
    partition_orbits,
    solve_raymond_vasquez,
    standard_generators,
)
from orbispin.twists import _parity
from helpers import (
    _moves,
    _twist as tuple_twist,
    bfs_orbit,
    bfs_partition,
    checked_report,
    context_for,
    contexts_at,
    genus_one_pair_count,
    genus_one_signature,
)


def test_orbit_of_examples():
    orbit = orbit_of(RootTuple(2, (0, 1)))
    assert {t.coords for t in orbit} == {(0, 1), (1, 0), (1, 1)}

    assert orbit_of(RootTuple(2, (0, 0))) == {RootTuple(2, (0, 0))}

    zero_orbit = orbit_of(RootTuple(2, (0, 0, 0, 0)))
    assert len(zero_orbit) == 10
    assert all(type(c) is int for root in zero_orbit for c in root.coords)
    assert orbit_of(RootTuple(3, ())) == {RootTuple(3, ())}


def test_partition_genus_two_order_two():
    partition = partition_orbits(context_for(2, 2))
    assert sorted(partition.sizes()) == [6, 10]
    by_kind = {rec.label.kind: rec.size for rec in partition.orbits}
    assert by_kind == {"all_zero": 10, "last_one": 6}


def test_partition_odd_order_is_transitive():
    partition = partition_orbits(context_for(2, 3))
    assert partition.sizes() == (81,)
    assert partition.orbits[0].label.kind == "all_zero"


def test_partition_genus_one_order_six():
    ctx = solve_raymond_vasquez(genus_one_signature(6), 6)
    partition = partition_orbits(ctx)
    by_d = {rec.label.d: rec.size for rec in partition.orbits}
    assert by_d == {1: 24, 2: 8, 3: 3, 6: 1}
    assert sum(partition.sizes()) == 36


def test_representatives_are_lexicographic_minima():
    partition = partition_orbits(context_for(2, 2))
    for rec in partition.orbits:
        orbit = orbit_of(rec.representative)
        assert rec.representative.coords == min(t.coords for t in orbit)
        assert len(orbit) == rec.size


def test_genus_zero_partition_is_trivial():
    ctx = solve_raymond_vasquez(OrbifoldSignature(0, (2, 3, 7)), 1)
    partition = partition_orbits(ctx)
    assert partition.sizes() == (1,)
    assert partition.orbits[0].label.kind == "genus0"


def test_closed_form_counts():
    assert orbit_count_closed_form(2, 2) == (10, 6)
    assert orbit_count_closed_form(3, 2) == (36, 28)
    assert orbit_count_closed_form(2, 3) == 81
    assert orbit_count_closed_form(2, 4) == (160, 96)
    assert orbit_count_closed_form(3, 4) == (2304, 1792)
    with pytest.raises(ValueError):
        orbit_count_closed_form(1, 2)


def test_genus_one_orbit_size_examples():
    assert genus_one_orbit_size(6, 6) == 1
    assert genus_one_orbit_size(6, 1) == 24
    assert genus_one_orbit_size(4, 2) == 3
    with pytest.raises(ValueError):
        genus_one_orbit_size(6, 4)


def test_closed_forms_refuse_non_integers():
    for bad in (12.9, 12.0, True, None, "12"):
        for call in (lambda: orbit_count_closed_form(bad, 2), lambda: orbit_count_closed_form(2, bad),
                     lambda: genus_one_orbit_size(bad, 1), lambda: genus_one_orbit_size(12, bad)):
            with pytest.raises(ValueError):
                call()


def test_genus_one_orbit_size_matches_pair_count():
    for r in range(1, 61):
        for d in divisors(r):
            assert genus_one_orbit_size(r, d) == genus_one_pair_count(r, d), (r, d)


def test_genus_one_orbit_sizes_sum_to_r_squared():
    for r in range(1, 101):
        assert sum(genus_one_orbit_size(r, d) for d in divisors(r)) == r * r


def test_genus_one_orbits_match_ideal_classes():
    for r in (4, 6, 9):
        for d in divisors(r):
            orbit = orbit_of(RootTuple(r, (0, d % r)))
            expected = {
                (s, t)
                for s in range(r)
                for t in range(r)
                if gcd(s, t, r) == d
            }
            assert {t.coords for t in orbit} == expected


def test_partition_is_generator_set_independent():
    base = partition_orbits(context_for(2, 3))
    extra = [
        TwistGenerator("U", 1),
        TwistGenerator("V", 1),
        TwistGenerator("U", 2),
        TwistGenerator("V", 2),
        TwistGenerator("W", 1),
        TwistGenerator("U", 1, 2),
        TwistGenerator("V", 2, -2),
        TwistGenerator("W", 1, 2),
    ]
    ctx6 = solve_raymond_vasquez(genus_one_signature(6), 6)
    gens = [TwistGenerator("U", 1), TwistGenerator("V", 1), TwistGenerator("U", 1, 3)]
    # the engines take any move set; both sets generate the unit twists' group
    for engine in (orbits._orbits_by_tables, orbits._orbits_by_levels):
        assert tuple(engine(3, 2, _moves(extra, 3))) == base.orbits
        assert tuple(engine(6, 1, _moves(gens, 6))) == partition_orbits(ctx6).orbits


def test_partition_is_deterministic():
    assert partition_orbits(context_for(2, 2)) == partition_orbits(context_for(2, 2))


def test_census_sweep_matches_closed_form_up_to_order_six():
    for genus in (2, 3):
        for r in range(1, 7):
            assert checked_report(context_for(genus, r)), (genus, r)


def test_state_cap_enforced():
    with pytest.raises(CountOverflow):
        partition_orbits(context_for(2, 2), cap=15)
    with pytest.raises(CountOverflow):
        orbit_of(RootTuple(2, (0, 0, 0, 0)), cap=15)


@pytest.mark.parametrize("genus, r", [(2, 2), (3, 3), (1, 6), (1, 129), (1, 1), (3, 1)])
def test_each_gr_is_partitioned_once(monkeypatch, genus, r):
    # the handles, the tables, the search and the one-state path: a second call
    # at (g, r), through the same signature or another, runs none of them
    first, other = islice(contexts_at(genus, r), 2)
    assert first.signature != other.signature
    partition = partition_orbits(first)
    for name in ("_orbits_by_tables", "_orbits_by_levels", "_orbits_by_handles", "_head"):
        monkeypatch.setattr(orbits, name, _refuse)
    assert partition_orbits(first) == partition
    assert partition_orbits(other) == partition


def test_a_kept_partition_still_checks_the_cap():
    ctx = context_for(2, 3)
    partition = partition_orbits(ctx)
    with pytest.raises(CountOverflow):
        partition_orbits(ctx, cap=80)
    assert partition_orbits(ctx, cap=81) == partition


def test_a_mixed_orbit_is_not_kept(monkeypatch):
    # the invariant flipped at (1, 1) alone, as in test_both_engines_check_every_state_label,
    # mixes the orbit of (0, 1) for the genus-1 tables, which read it through _invariant
    ctx = solve_raymond_vasquez(genus_one_signature(2), 2)
    invariant = orbits._invariant(2, 1)
    with monkeypatch.context() as patch:
        patch.setattr(orbits, "_invariant", lambda r, genus: lambda digits: invariant(digits) ^ reduce(
            np.logical_and, [d == 1 for d in digits]))
        for _ in range(2):
            with pytest.raises(MixedOrbit):
                partition_orbits(ctx)
    assert partition_orbits(ctx).sizes() == (1, 3)


def test_partition_json_shape():
    data = partition_orbits(context_for(2, 2)).to_json()
    assert data["r"] == 2 and data["g"] == 2
    assert sum(o["size"] for o in data["orbits"]) == 16
    for o in data["orbits"]:
        assert set(o) == {"rep", "size", "label"}


def test_orbit_partition_refuses_bad_records():
    # genus 1 at r = 4: the orbits of (0, 0), (0, 1) and (0, 2), of sizes 1,
    # 12 and 3 and labels d = 4, 1 and 2
    first, second, third = partition_orbits(solve_raymond_vasquez(genus_one_signature(4), 4)).orbits
    with pytest.raises(ValueError, match=r"orbit sizes sum to 13, expected r\^\(2g\)"):
        OrbitPartition(4, 1, (first, second))
    with pytest.raises(ValueError, match="orbit labels must be pairwise distinct"):
        OrbitPartition(4, 1, (first, replace(second, label=first.label), third))
    # parts of another (g, r), and sizes that sum to r^{2g} but are not positive integers
    with pytest.raises(ValueError, match="is not a RootTuple of order 2 and genus 2"):
        OrbitPartition(2, 2, (OrbitRecord(RootTuple(3, (0, 0)), 16, StandardForm("genus0", 5, 0)),))
    with pytest.raises(ValueError, match="orbit label .* is not a StandardForm of order 4 and genus 1"):
        OrbitPartition(4, 1, (first, second, replace(third, label=StandardForm("genus1", 8, 1, 2))))
    with pytest.raises(ValueError, match="orbit representative .* is not a RootTuple of order 4"):
        OrbitPartition(4, 1, (first, second, replace(third, representative=RootTuple(8, (0, 2)))))
    with pytest.raises(ValueError, match="orbit size must be an integer, got 1.0"):
        OrbitPartition(4, 1, (replace(first, size=1.0), second, third))
    with pytest.raises(ValueError, match="orbit size must be an integer >= 1, got -1"):
        OrbitPartition(4, 1, (replace(first, size=5), second, replace(third, size=-1)))
    for order, genus in ((4.0, 1), (4, True)):
        with pytest.raises(ValueError, match="must be an integer, got"):
            OrbitPartition(order, genus, (first, second, third))


# every (g, r) with r^{2g} <= 4096; genus 0 has a single state at every r
_SMALL = [
    (g, r) for g in range(7) for r in range(1, 65) if r ** (2 * g) <= 4096 and (g or r <= 16)
]


def _records(partition):
    return [(rec.representative.coords, rec.size) for rec in partition.orbits]


def test_partition_matches_tuple_bfs():
    for genus, r in _SMALL:
        standard = [(g.family, g.index, g.power) for g in standard_generators(genus)]
        partition = partition_orbits(context_for(genus, r))
        assert _records(partition) == bfs_partition(r, genus, standard), (genus, r)


# 32,768 and 33,282 table cells (states x moves), either side of the engine
# choice at genus 1; genus >= 2 has no bound, every such space going handle by handle
_BOUNDARY = [(1, 128), (1, 129)]
_ENGINES = [orbits._orbits_by_tables, orbits._orbits_by_levels, orbits._orbits_by_handles]


def _run(engine, r, genus, moves):
    # the handle engine takes no moves: it acts by the unit twists
    return engine(r, genus) if engine is orbits._orbits_by_handles else engine(r, genus, moves)


@pytest.mark.parametrize("powers", [(1,), (2, -3)])
def test_both_engines_match_tuple_bfs(powers):
    assert 128**2 * 2 <= orbits._TABLE_CELLS < 129**2 * 2
    for genus, r in _SMALL + _BOUNDARY:
        letters = [(g.family, g.index, m) for g in standard_generators(genus) for m in powers]
        moves = _moves([TwistGenerator(*p) for p in letters], r)
        expected = bfs_partition(r, genus, letters)
        # the handle engine takes the unit twists at genus >= 2 alone
        for engine in _ENGINES if powers == (1,) and genus >= 2 else _ENGINES[:2]:
            records = _run(engine, r, genus, moves)
            assert [(rec.representative.coords, rec.size) for rec in records] == expected, (engine, genus, r)


def test_unit_moves_are_the_standard_generators_moves():
    for genus in range(6):
        for r in range(1, 9):
            assert orbits._unit_moves(r, genus) == _moves(standard_generators(genus), r), (genus, r)


def _refuse(*args):
    raise AssertionError("another engine was chosen")


def test_engine_choice_follows_table_size(monkeypatch):
    # every space of genus >= 2 and r >= 2 goes handle by handle, however
    # small: (2, 2) has 80 cells (states x moves), (2, 6) 6,480, (3, 3) 5,832,
    # (4, 2) 2,816 and (5, 2) 14,336.  At genus 1 at most 2^15 cells go to the
    # tables and larger spaces to the breadth-first search: (1, 128) has
    # 32,768 and (1, 129) 33,282.  A space of one state (r = 1, or genus 0)
    # runs no engine at all.  The census's self-check reads the partition kept
    # from the patched call
    engines = {"_orbits_by_tables", "_orbits_by_levels", "_orbits_by_handles"}
    for genus, r, engine in [(2, 2, "_orbits_by_handles"), (2, 6, "_orbits_by_handles"),
                             (3, 3, "_orbits_by_handles"), (4, 2, "_orbits_by_handles"),
                             (5, 2, "_orbits_by_handles"),
                             (1, 128, "_orbits_by_tables"), (1, 129, "_orbits_by_levels"),
                             (1, 1, None), (3, 1, None), (0, 5, None)]:
        with monkeypatch.context() as patch:
            for other in engines - {engine}:
                patch.setattr(orbits, other, _refuse)
            partition = partition_orbits(ctx := context_for(genus, r))
        if engine is None:
            zero = RootTuple(r, (0,) * (2 * genus))
            assert [(rec.representative, rec.size, rec.label) for rec in partition.orbits] == [
                (zero, 1, canonical_form(zero))]
        else:
            assert checked_report(ctx), (genus, r)


@pytest.mark.parametrize("r", [*range(9, 17), 18, 20, 24])
def test_handle_engine_matches_the_tables_at_genus_two(r):
    # 32,805 to 1,990,656 cells, 2 to 8 classes per handle: d(r) is 6 at
    # r = 18 and 20 and 8 at r = 24, so W joins among up to 64 class pairs
    assert orbits._orbits_by_handles(r, 2) == orbits._orbits_by_tables(r, 2, orbits._unit_moves(r, 2))


@pytest.mark.parametrize("r", [4, 6])
def test_handle_engine_matches_the_tables_at_genus_three(r):
    # the W join of two handles, tensored with the identity at the third
    assert orbits._orbits_by_handles(r, 3) == orbits._orbits_by_tables(r, 3, orbits._unit_moves(r, 3))


@pytest.mark.parametrize("genus, r", [(2, 11), (2, 12), (3, 5)])
def test_handle_engine_matches_tuple_bfs_above_the_tables(genus, r):
    # 73,205, 103,680 and 125,000 cells, past the tables' bound; at (2, 12)
    # each handle has 6 classes, so W joins among 36 class pairs
    standard = [(g.family, g.index, g.power) for g in standard_generators(genus)]
    assert r ** (2 * genus) * len(standard) > orbits._TABLE_CELLS
    records = orbits._orbits_by_handles(r, genus)
    assert [(rec.representative.coords, rec.size) for rec in records] == bfs_partition(r, genus, standard)


def _flip_handle_parity(monkeypatch, pairs):
    """Flip the parity that the handle engine reads on Z_2^2 at ``pairs``, and
    return the least representative among the orbits of (2, 2) that hold a
    state whose parity this changes (one with an odd number of handles at a
    flipped pair), as the tuple BFS finds them."""
    parity = orbits._parity

    def flipped(digits, genus):
        assert genus == 1  # the engine reads no other parity
        return parity(digits, genus) ^ reduce(
            np.logical_or, [(digits[0] == s) & (digits[1] == t) for s, t in pairs])

    standard = [(g.family, g.index, g.power) for g in standard_generators(2)]
    changed = {x for x in product(range(2), repeat=4) if ((x[:2] in pairs) + (x[2:] in pairs)) % 2}
    holding = [start for start, _ in bfs_partition(2, 2, standard) if bfs_orbit(start, 2, standard) & changed]
    monkeypatch.setattr(orbits, "_parity", flipped)
    return min(holding)


@pytest.mark.parametrize("engine", _ENGINES)
def test_both_engines_check_every_state_label(monkeypatch, engine):
    # flip the parity at (1, 1, 1, 1) alone, a member of the all-zero orbit
    # of (2, 2) but not its least one.  The handle engine checks classes: flip
    # the pair (1, 1), whose class {(0, 1), (1, 0), (1, 1)} then holds both
    # parities, as do the product classes with a handle in it
    if engine is orbits._orbits_by_handles:
        assert _flip_handle_parity(monkeypatch, [(1, 1)]) == (0, 0, 0, 0)
    else:
        parity = orbits._invariant(2, 2)

        def flipped(r, genus):
            # digits may broadcast against each other rather than share one shape
            return lambda digits: parity(digits) ^ reduce(np.logical_and, [d == 1 for d in digits])

        monkeypatch.setattr(orbits, "_invariant", flipped)
    with pytest.raises(MixedOrbit, match=r"the orbit of \(0, 0, 0, 0\) mixes canonical forms"):
        _run(engine, 2, 2, _moves(standard_generators(2), 2))


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("flips, rep", [
    ([(0, 0, 1, 1)], "0, 0, 0, 1"),
    ([(0, 0, 1, 1), (1, 1, 1, 1)], "0, 0, 0, 0"),
])
def test_a_mixed_orbit_is_named_by_its_least_member(monkeypatch, engine, flips, rep):
    # (0, 0, 1, 1) lies in the later, odd orbit of (2, 2), whose least member
    # is (0, 0, 0, 1); with a mismatch in both orbits the earlier one is named,
    # even when a block of 4 states finds the later one first.  The handle
    # engine flips the first pair of each state instead: (0, 0) is a class of
    # its own, whose one parity is then wrong in the odd orbit alone, and
    # (1, 1) adds a class with both parities to the even orbit
    if engine is orbits._orbits_by_handles:
        assert _flip_handle_parity(monkeypatch, [x[:2] for x in flips]) == tuple(map(int, rep.split(", ")))
    else:
        parity = orbits._invariant(2, 2)

        def flipped(r, genus):
            return lambda digits: parity(digits) ^ reduce(
                np.logical_or, [reduce(np.logical_and, [d == c for d, c in zip(digits, x)]) for x in flips])

        monkeypatch.setattr(orbits, "_invariant", flipped)
    monkeypatch.setattr(orbits, "_CHUNK", 4)
    with pytest.raises(MixedOrbit, match=rf"the orbit of \({rep}\) mixes canonical forms"):
        _run(engine, 2, 2, _moves(standard_generators(2), 2))


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("powers", [(1,), (2, -3), (2,)])
def test_search_rounds_match_tuple_bfs(monkeypatch, powers, chunk):
    # genus 1 at composite r has one orbit per divisor of r, and the first
    # round seeds them all; at genus 2 and even r the parity tells two orbits
    # apart.  With chunks of 5 states the seeds span several chunks, and
    # chunks mix ranks.  The powers {2, -3} generate the unit twists' group again;
    # the squares alone do not, so one label holds several orbits, which
    # later rounds must seed
    if chunk:
        monkeypatch.setattr(orbits, "_CHUNK", chunk)
    more_orbits_than_labels = False
    for genus, r in [(1, 12), (1, 36), (1, 60), (2, 4), (2, 6)]:
        letters = [(g.family, g.index, m) for g in standard_generators(genus) for m in powers]
        records = orbits._orbits_by_levels(r, genus, _moves([TwistGenerator(*p) for p in letters], r))
        assert [(rec.representative.coords, rec.size) for rec in records] == bfs_partition(r, genus, letters)
        more_orbits_than_labels |= len({rec.label for rec in records}) < len(records)
    assert more_orbits_than_labels == (powers == (2,))


def _one_move(monkeypatch, r, cycles):
    """Make the search's one move the permutation of Z_r^2 with these cycles
    of packed states (every other state fixed); returns that move set."""
    following = np.arange(r * r)
    for cycle in cycles:
        following[cycle] = np.roll(cycle, -1)
    monkeypatch.setattr(orbits, "_image", lambda states, digits, r, w, move: following.take(states).astype(states.dtype))
    return (("U", 0, 1),)


def test_a_clash_of_two_seeds_names_the_orbit(monkeypatch):
    # one cycle through all 16 states of Z_4^2, entering the states of each
    # value of gcd(s, t, 4) in ascending order at its least one: the seeds 0,
    # 1 and 2 (values 4, 1 and 2) each search one arc, whose states all pass
    # their seed's label check.  Only the clash, one search reaching another's
    # seed, shows that the one orbit holds three labels; without it the rounds
    # return ((0, 0), 1), ((0, 1), 12) and ((0, 2), 3), the true sizes
    by_value = {}
    for x in range(16):
        by_value.setdefault(gcd(x // 4, x % 4, 4), []).append(x)
    moves = _one_move(monkeypatch, 4, [by_value[1] + by_value[2] + by_value[4]])
    with pytest.raises(MixedOrbit, match=r"the orbit of \(0, 0\) mixes canonical forms"):
        orbits._orbits_by_levels(4, 1, moves)


def test_a_failed_round_names_the_least_mixed_orbit(monkeypatch):
    # on Z_6^2, where every other state is fixed, (0, 1) and (2, 1) form one
    # orbit, so the round at 12 = (2, 0) seeds 12 (value 2) and 15 = (2, 3)
    # (value 1) among the unvisited states of 12 to 17.  The orbit {14, 15}
    # mixes values 2 and 1 and fails 15's check, but its least member is
    # 14 = (2, 2), which no seed holds: the failed round is searched again one
    # orbit per round, where the unvisited state 14 comes first
    moves = _one_move(monkeypatch, 6, [[1, 13], [14, 15]])
    with pytest.raises(MixedOrbit, match=r"the orbit of \(2, 2\) mixes canonical forms"):
        orbits._orbits_by_levels(6, 1, moves)


def test_w_twist_factors_by_handle():
    # the handle engine's W join is a product over the handles on each row
    # (s_1, s_2): W_1 changes t_1 and t_2 alone, its new t_1 does not read t_2
    # and its new t_2 does not read t_1.  Each digit on an axis of its own
    for r in (5, 6):
        digits = [np.arange(r).reshape((-1,) + (1,) * (3 - axis)) for axis in range(4)]
        for m in range(r):
            moved = dict(orbits._twist(digits, r, "W", 0, m))
            assert sorted(moved) == [1, 3]
            assert moved[1].shape == (r, r, r, 1)
            assert moved[3].shape == (r, 1, r, r)
        # and on every (s_1, s_2, t) the unit W_1 moves t_1 to t - omega and t_2
        # to t + omega, omega read as the engine reads it: the new t_2 at t_2 = 0.
        # No partition can tell -omega from omega, as one handle's classes are
        # symmetric under t -> -t
        s1, s2, t = np.ix_(range(r), range(r), range(r))
        omega = dict(orbits._twist([s1[..., 0], 0, s2[..., 0], 0], r, "W", 0, 1))[3][..., None] % r
        moved = dict(orbits._twist([s1, t, s2, t], r, "W", 0, 1))
        assert (moved[1] % r == (t - omega) % r).all() and (moved[3] % r == (t + omega) % r).all()


@pytest.mark.parametrize("r", [*range(2, 13), 18, 24])
def test_w_join_edges_match_a_brute_force_join(monkeypatch, r):
    # every tuple of Z_r^4 and its image under W_1 give one edge between class
    # pairs, (class of (s_1, t_1), class of (s_2, t_2)) before and after, taken
    # both ways.  The classes are the ideals gcd(s, t, r), numbered by divisor,
    # and at r <= 6 also the pairs themselves, where no two omegas share an edge.
    # The join must give exactly these edges in one slab, in slabs of r - 1
    # omegas and 1, and in slabs of 5 (a partial last slab where 5 does not divide r)
    s, t = np.divmod(np.arange(r * r), r)
    labellings = [(np.searchsorted(divisors(r), np.gcd(np.gcd(s, t), r)), len(divisors(r)))]
    if r <= 6:
        labellings.append((np.arange(r * r), r * r))
    digits = list(np.indices((r,) * 4).reshape(4, -1))
    moved = list(digits)
    for slot, value in orbits._twist(digits, r, "W", 0, 1):
        moved[slot] = value % r
    for class_of, count in labellings:
        cells = count * count
        before, after = ((class_of[x[0] * r + x[1]] * count + class_of[x[2] * r + x[3]]) for x in (digits, moved))
        expected = np.unique(np.concatenate((before * cells + after, after * cells + before)))
        for step in {r, max(1, r - 1), 5}:
            monkeypatch.setattr(orbits, "_CHUNK", step * r * r)
            src, dst = orbits._w_edges(r, class_of, count)
            assert np.array_equal(np.unique(src * cells + dst), expected), (r, count, step)


def test_handle_engine_in_small_slabs_matches_tuple_bfs(monkeypatch):
    # with _CHUNK = 5 each slab of the grid (s, omega, t) holds one omega, so the
    # W join accumulates over r slabs; at (2, 12) each handle has 6 classes
    monkeypatch.setattr(orbits, "_CHUNK", 5)
    for genus, r in [(2, 2), (2, 3), (2, 4), (2, 12), (3, 2), (3, 3)]:
        standard = [(g.family, g.index, g.power) for g in standard_generators(genus)]
        records = orbits._orbits_by_handles(r, genus)
        assert [(rec.representative.coords, rec.size) for rec in records] == bfs_partition(r, genus, standard)


def test_single_twist_orbits_match_tuple_bfs():
    # one generator at a time: a wrong formula can still give the right
    # partition, but not the right cycles of each generator
    for genus, r in [(1, 6), (2, 3), (2, 4), (3, 2)]:
        for gen in standard_generators(genus):
            for m in (1, 2, -3):
                letter = (gen.family, gen.index, m)
                records = orbits._orbits_by_levels(r, genus, _moves([TwistGenerator(*letter)], r))
                assert [(rec.representative.coords, rec.size) for rec in records] == bfs_partition(
                    r, genus, [letter]), letter


def test_partition_ignores_cone_data():
    closed = partition_orbits(solve_raymond_vasquez(OrbifoldSignature(2), 2))
    coned = partition_orbits(solve_raymond_vasquez(OrbifoldSignature(2, (3,)), 2))
    assert coned == closed


def test_even_order_closed_form_counts_theta_characteristics():
    # for even r the parity sum((s_i + 1)(t_i + 1)) mod 2 reads only the
    # residues mod 2, so each class holds (r/2)^{2g} lifts of its members in
    # Z_2^{2g}; those are the even and odd theta characteristics, counted
    # classically as 2^{g-1}(2^g + 1) and 2^{g-1}(2^g - 1)
    for genus in range(2, 9):
        by_parity = [0, 0]
        for x in product((0, 1), repeat=2 * genus):
            by_parity[sum((x[2 * i] + 1) * (x[2 * i + 1] + 1) for i in range(genus)) % 2] += 1
        assert by_parity == [2 ** (genus - 1) * (2**genus + 1), 2 ** (genus - 1) * (2**genus - 1)]
        for r in (2, 4, 6):
            lifts = (r // 2) ** (2 * genus)
            assert orbit_count_closed_form(genus, r) == (lifts * by_parity[0], lifts * by_parity[1])


@pytest.mark.parametrize("genus, r", [(2, 2), (3, 6), (4, 9), (5, 64), (2, 215)])
def test_parity_is_the_xor_of_its_handles(genus, r):
    # the per-class label check of the handle engine rests on this
    rng = np.random.default_rng(1000 * genus + r)
    rows = rng.integers(0, r, size=(2 * genus, 500))
    for digits in (rows.astype(np.int32), rows.astype(np.int64), rows.T.tolist()[:20]):
        if isinstance(digits, list):  # tuples of Python ints, one at a time
            for x in digits:
                assert _parity(x, genus) == reduce(xor, [_parity(x[2 * h:], 1) for h in range(genus)])
            continue
        per_handle = reduce(np.bitwise_xor, [_parity(digits[2 * h:], 1) for h in range(genus)])
        assert digits.dtype == _parity(digits, genus).dtype == per_handle.dtype
        assert np.array_equal(_parity(digits, genus), per_handle)


def test_state_dtype_boundaries():
    # r^{2g} is an even power, so it never equals 2^31: (2, 215) and (3, 35)
    # are the largest int32 spaces of their genus, 2^30 and 2^32 flank 2^31
    assert 215**4 <= 2**31 < 216**4 and 35**6 <= 2**31 < 36**6
    for genus, r, dtype in [(2, 215, "int32"), (2, 216, "int64"), (3, 35, "int32"), (3, 36, "int64"),
                            (15, 2, "int32"), (16, 2, "int64")]:
        assert orbits._state_dtype(r, genus) == dtype, (genus, r)
    # the unreduced twist values need r (2r + 2) < 2^31, which fails first at r = 2^15
    assert 32767 * (2 * 32767 + 2) < 2**31 <= 32768 * (2 * 32768 + 2)
    for genus in (0, 1):
        assert orbits._state_dtype(32767, genus) == "int32"
        assert orbits._state_dtype(32768, genus) == "int64"


@pytest.mark.parametrize("genus, r", [(1, 32767), (2, 215)])
def test_int32_twists_do_not_overflow_at_the_bound(genus, r):
    # every move on the extreme digits, as int32 arrays and as ints
    rows = [0, r - 1] if genus == 1 else [0, 1, r - 1]
    coords = list(product(rows, repeat=2 * genus))
    states = np.array([sum(c * w for c, w in zip(row, orbits._weights(r, genus))) for row in coords], dtype="int32")
    digits = orbits._digits(states, r, 2 * genus)
    letters = [(g.family, g.index, m) for g in standard_generators(genus) for m in (1, 2, r - 1)]
    for move in _moves([TwistGenerator(*p) for p in letters], r):
        image = orbits._image(states, digits, r, orbits._weights(r, genus), move)
        assert image.dtype == np.int32
        expected = [tuple_twist(row, r, *move) for row in coords]
        assert [tuple(d) for d in zip(*orbits._digits(image, r, 2 * genus))] == expected, move


@pytest.mark.parametrize("powers", [(1,), (2, -3)])
@pytest.mark.parametrize("genus, r", [(1, 97), (2, 5), (3, 3)])
def test_int64_states_give_the_same_records(monkeypatch, genus, r, powers):
    # otherwise int64 runs only above 2^31 states or at r >= 2^15, which no test reaches
    letters = [(g.family, g.index, m) for g in standard_generators(genus) for m in powers]
    moves = _moves([TwistGenerator(*p) for p in letters], r)

    def search(dtype):
        chunks = []
        orbits._levels([0], np.zeros(r ** (2 * genus), dtype=np.uint8), r, genus, moves,
                       lambda *chunk: chunks.append(chunk))
        for states, digits, ranks in chunks:
            assert states.dtype == digits[0].dtype == dtype
            assert set(ranks.tolist()) == {1}
        return orbits._orbits_by_levels(r, genus, moves)

    narrow = search(np.int32)
    monkeypatch.setattr(orbits, "_state_dtype", lambda r, genus: "int64")
    wide = search(np.int64)
    assert wide == narrow
    assert [(rec.representative.coords, rec.size) for rec in wide] == bfs_partition(r, genus, letters)


def test_search_peak_memory_per_state():
    # a 1 B/state visited mask, two levels of int32 states and one chunk's
    # arrays: 5.2 B/state at (2, 21) and 2.5 at (1, 720).  A search that kept
    # one array alive past its use (the joined parts of a chunk, a move's
    # image, or the last chunk's arrays while the next is built) reads
    # 5.5-5.7 at (2, 21), and the first two 2.6 at (1, 720)
    import tracemalloc

    for genus, r, bound in [(2, 21, 5.4), (1, 720, 2.55)]:
        moves = _moves(standard_generators(genus), r)
        orbits._orbits_by_levels(3, genus, moves)  # warm numpy's caches
        tracemalloc.start()
        try:
            orbits._orbits_by_levels(r, genus, moves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * r ** (2 * genus), (genus, r, peak)


def test_handle_engine_peak_memory():
    # one handle's arrays of r^2 entries, d(r)^g product classes and one slab of
    # at most max(r^2, 2^14) cells of the grid (s, omega, t): 0.44 MB at (2, 31),
    # 0.9 MB at (2, 100) and 1.5 MB at (2, 120), against 2.9 B/state, 2.7 MB, for
    # the search at (2, 31)
    import tracemalloc

    for genus, r in [(2, 31), (2, 32), (2, 64), (2, 100), (2, 120), (3, 8)]:
        orbits._orbits_by_handles(3, genus)  # warm numpy's caches
        tracemalloc.start()
        try:
            orbits._orbits_by_handles(r, genus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20, (genus, r, peak)


def test_handle_engine_checks_labels_past_the_states():
    # 2^48 states at even r: a label check that read every state could not
    # finish, so this space is reachable only through the check on classes
    ctx = context_for(4, 64)
    assert checked_report(ctx)
    assert [rec.label.kind for rec in partition_orbits(ctx, cap=None).orbits] == ["all_zero", "last_one"]


def test_handle_engine_joins_genus_two_past_the_states():
    # 6x10^6 to 3x10^12 states: the W join of two handles reads the r^3 cells of
    # (s, omega, t), not Z_r^4, and at genus 3 it is joined once more; at (2, 50)
    # the last of its slabs of 6 omegas holds 2
    for genus, r in [(2, 50), (2, 100), (2, 181), (3, 120)]:
        assert checked_report(context_for(genus, r)), (genus, r)


def test_handle_engine_counts_past_int64():
    # 7^24 states, more than 2^67, and 2^12 product classes: sizes and least
    # members are Python ints, and no array holds one entry per state
    assert checked_report(ctx := context_for(12, 7))
    assert partition_orbits(ctx, cap=None).orbits[0].representative.coords == (0,) * 24
