from itertools import product
from math import gcd

import numpy as np
import pytest

from orbispin import orbits
from orbispin import (
    CountOverflow,
    OrbifoldSignature,
    RootTuple,
    TwistGenerator,
    divisors,
    genus_one_orbit_size,
    orbit_count_closed_form,
    orbit_of,
    partition_orbits,
    solve_raymond_vasquez,
    standard_generators,
)
from helpers import (
    CENSUS_SIGNATURES,
    bfs_orbit,
    bfs_partition,
    context_for,
    genus_one_pair_count,
    genus_one_signature,
)


def _ctx(genus, r):
    return solve_raymond_vasquez(CENSUS_SIGNATURES[(genus, r)], r)


def test_orbit_of_examples():
    orbit = orbit_of(RootTuple(2, (0, 1)))
    assert {t.coords for t in orbit} == {(0, 1), (1, 0), (1, 1)}

    assert orbit_of(RootTuple(2, (0, 0))) == {RootTuple(2, (0, 0))}

    zero_orbit = orbit_of(RootTuple(2, (0, 0, 0, 0)))
    assert len(zero_orbit) == 10
    assert all(type(c) is int for root in zero_orbit for c in root.coords)
    assert orbit_of(RootTuple(3, ())) == {RootTuple(3, ())}


def test_partition_genus_two_order_two():
    partition = partition_orbits(_ctx(2, 2))
    assert sorted(partition.sizes()) == [6, 10]
    by_kind = {rec.label.kind: rec.size for rec in partition.orbits}
    assert by_kind == {"all_zero": 10, "last_one": 6}


def test_partition_odd_order_is_transitive():
    partition = partition_orbits(_ctx(2, 3))
    assert partition.sizes() == (81,)
    assert partition.orbits[0].label.kind == "all_zero"


def test_partition_genus_one_order_six():
    ctx = solve_raymond_vasquez(genus_one_signature(6), 6)
    partition = partition_orbits(ctx)
    by_d = {rec.label.d: rec.size for rec in partition.orbits}
    assert by_d == {1: 24, 2: 8, 3: 3, 6: 1}
    assert sum(partition.sizes()) == 36


def test_representatives_are_lexicographic_minima():
    partition = partition_orbits(_ctx(2, 2))
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
    base = partition_orbits(_ctx(2, 3))
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
    assert partition_orbits(_ctx(2, 3), generators=extra) == base

    ctx6 = solve_raymond_vasquez(genus_one_signature(6), 6)
    gens = [TwistGenerator("U", 1), TwistGenerator("V", 1), TwistGenerator("U", 1, 3)]
    assert partition_orbits(ctx6, generators=gens) == partition_orbits(ctx6)


def test_partition_is_deterministic():
    assert partition_orbits(_ctx(2, 2)) == partition_orbits(_ctx(2, 2))


# hyperbolic signatures of genus 3 admitting the orders 5 and 6
_EXTRA = {(3, 5): OrbifoldSignature(3, (2, 2)), (3, 6): OrbifoldSignature(3, (5,))}


def test_census_sweep_matches_closed_form_up_to_order_six():
    for genus in (2, 3):
        for r in range(1, 7):
            sig = CENSUS_SIGNATURES.get((genus, r)) or _EXTRA.get((genus, r))
            if sig is None:
                sig = OrbifoldSignature(genus)  # r = 1 works everywhere
            partition = partition_orbits(solve_raymond_vasquez(sig, r))
            expected = orbit_count_closed_form(genus, r)
            if isinstance(expected, tuple):
                assert sorted(partition.sizes()) == sorted(expected)
            else:
                assert partition.sizes() == (expected,)


def test_state_cap_enforced():
    with pytest.raises(CountOverflow):
        partition_orbits(_ctx(2, 2), cap=15)
    with pytest.raises(CountOverflow):
        orbit_of(RootTuple(2, (0, 0, 0, 0)), cap=15)


def test_partition_json_shape():
    data = partition_orbits(_ctx(2, 2)).to_json()
    assert data["r"] == 2 and data["g"] == 2
    assert sum(o["size"] for o in data["orbits"]) == 16
    for o in data["orbits"]:
        assert set(o) == {"rep", "size", "label"}


def test_invalid_generator_rejected():
    with pytest.raises(ValueError):
        partition_orbits(_ctx(2, 2), generators=[TwistGenerator("W", 2)])


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


def test_partition_matches_tuple_bfs_for_other_powers():
    # powers 2 and -3 of every unit twist generate the same group
    for genus, r in _SMALL:
        powers = [(g.family, g.index, m) for g in standard_generators(genus) for m in (2, -3)]
        gens = [TwistGenerator(*p) for p in powers]
        partition = partition_orbits(context_for(genus, r), generators=gens)
        assert _records(partition) == bfs_partition(r, genus, powers), (genus, r)


# 50,000 and 73,205 table cells (states x moves), either side of the engine choice
_BOUNDARY = [(2, 10), (2, 11)]
_ENGINES = [orbits._orbits_by_tables, orbits._orbits_by_levels]


@pytest.mark.parametrize("powers", [(1,), (2, -3)])
def test_both_engines_match_tuple_bfs(powers):
    assert 10**4 * 5 <= orbits._TABLE_CELLS < 11**4 * 5
    for genus, r in _SMALL + _BOUNDARY:
        letters = [(g.family, g.index, m) for g in standard_generators(genus) for m in powers]
        moves = orbits._moves([TwistGenerator(*p) for p in letters], r)
        expected = bfs_partition(r, genus, letters)
        for engine in _ENGINES:
            records = engine(r, genus, moves)
            assert [(rec.representative.coords, rec.size) for rec in records] == expected, (engine, genus, r)


def test_engine_choice_follows_table_size(monkeypatch):
    def refuse(*args):
        raise AssertionError("the other engine was chosen")

    tables_side, levels_side = (context_for(genus, r) for genus, r in _BOUNDARY)
    with monkeypatch.context() as patch:
        patch.setattr(orbits, "_orbits_by_levels", refuse)
        assert partition_orbits(tables_side).sizes() == orbit_count_closed_form(2, 10)
    monkeypatch.setattr(orbits, "_orbits_by_tables", refuse)
    assert partition_orbits(levels_side).sizes() == (11**4,)


@pytest.mark.parametrize("engine", _ENGINES)
def test_both_engines_check_every_state_label(monkeypatch, engine):
    # flip the parity at (1, 1, 1, 1) alone, a member of the all-zero orbit
    # of (2, 2) but not its least one
    parity = orbits._invariant(2, 2)

    def flipped(r, genus):
        return lambda digits: parity(digits) ^ np.logical_and.reduce([d == 1 for d in digits])

    monkeypatch.setattr(orbits, "_invariant", flipped)
    with pytest.raises(RuntimeError, match=r"the orbit of \(0, 0, 0, 0\) mixes canonical forms"):
        engine(2, 2, orbits._moves(standard_generators(2), 2))


def test_single_twist_orbits_match_tuple_bfs():
    # one generator at a time: a wrong formula can still give the right
    # partition, but not the right cycles of each generator
    for genus, r in [(1, 6), (2, 3), (2, 4), (3, 2)]:
        for gen in standard_generators(genus):
            for m in (1, 2, -3):
                letter = (gen.family, gen.index, m)
                for coords in product(range(r), repeat=2 * genus):
                    orbit = orbit_of(RootTuple(r, coords), generators=[TwistGenerator(*letter)])
                    assert {t.coords for t in orbit} == bfs_orbit(coords, r, [letter])


def test_partition_uses_the_given_generators():
    ctx = solve_raymond_vasquez(genus_one_signature(4), 4)
    assert len(partition_orbits(ctx).orbits) == 3
    # u_1 alone fixes (0, 1) and (0, 3), two orbits with the same label
    with pytest.raises(ValueError):
        partition_orbits(ctx, generators=[TwistGenerator("U", 1)])


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
