import pytest

from orbispin import (
    CountOverflow,
    InadmissibleOrder,
    OrbifoldSignature,
    RootTuple,
    admissible_root_orders,
    determined_values,
    enumerate_roots,
    moduli_report,
    orbit_of,
    partition_orbits,
    solve_raymond_vasquez,
)
from orbispin.verification import GridBounds, hyperbolic_signatures, run_suite


def test_enumerate_genus_zero_has_single_empty_root():
    ctx = solve_raymond_vasquez(OrbifoldSignature(0, (2, 3, 7)), 1)
    roots = list(enumerate_roots(ctx))
    assert roots == [RootTuple(1, ())]


def test_enumerate_genus_one_order_two():
    ctx = solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 2)
    roots = [r.coords for r in enumerate_roots(ctx)]
    assert roots == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_counts_and_uniqueness():
    ctx = solve_raymond_vasquez(OrbifoldSignature(2), 2)
    roots = list(enumerate_roots(ctx))
    assert len(roots) == 16
    assert len(set(roots)) == 16
    coords = [r.coords for r in roots]
    assert coords == sorted(coords)  # lexicographic order


def test_enumerate_respects_cap():
    ctx = solve_raymond_vasquez(OrbifoldSignature(2), 2)
    with pytest.raises(CountOverflow):
        enumerate_roots(ctx, cap=15)
    assert len(list(enumerate_roots(ctx, cap=None))) == 16


@pytest.mark.parametrize("cap", [True, 2.5, 16.0, "16", 0, -1])
def test_state_caps_refuse_non_integers_and_values_below_one(cap):
    # every public cap is read by one rule: no bool or float, nothing below 1
    ctx = solve_raymond_vasquez(OrbifoldSignature(2), 2)
    genus_zero = solve_raymond_vasquez(OrbifoldSignature(0, (2, 3, 7)), 1)
    calls = [
        lambda: enumerate_roots(ctx, cap=cap), lambda: orbit_of(RootTuple(2, (0, 0, 0, 0)), cap=cap),
        lambda: partition_orbits(ctx, cap=cap), lambda: moduli_report(ctx, state_cap=cap),
        lambda: moduli_report(genus_zero, state_cap=cap), lambda: run_suite(GridBounds(0, 0), state_cap=cap),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^state cap must be an integer"):
            call()
    if cap is True:  # run_suite has no uncapped mode
        with pytest.raises(ValueError, match=r"^state cap must be an integer, got None"):
            run_suite(GridBounds(0, 0), state_cap=None)


def test_determined_values_examples():
    ctx = solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 2)
    assert determined_values(ctx) == (1, (0,))

    # r = 1 collapses everything to zero
    ctx = solve_raymond_vasquez(OrbifoldSignature(0, (2, 3, 7)), 1)
    assert determined_values(ctx) == (0, (0, 0, 0))


def test_determined_values_equal_multiplicities_repeat():
    # (0; 5,5,5) only admits orders 1 and 2: the alpha-product times chi is -50
    sig = OrbifoldSignature(0, (5, 5, 5))
    assert admissible_root_orders(sig) == (1, 2)
    with pytest.raises(InadmissibleOrder):
        solve_raymond_vasquez(sig, 3)
    h, qs = determined_values(solve_raymond_vasquez(sig, 2))
    assert h == 1
    assert len(set(qs)) == 1

    # a configuration where the repeated value is nonzero
    ctx = solve_raymond_vasquez(OrbifoldSignature(1, (7, 7)), 4)
    assert ctx.twist_integers == (2, 2)
    assert determined_values(ctx) == (1, (2, 2))


def test_determined_values_satisfy_both_relations_mod_r():
    for sig in hyperbolic_signatures(GridBounds(max_genus=2, max_cones=2, max_multiplicity=6)):
        for r in admissible_root_orders(sig):
            ctx = solve_raymond_vasquez(sig, r)
            h, qs = determined_values(ctx)
            assert h == 1 % r
            # surface relation: sum of exceptional values = 2g - 2 mod r
            assert sum(qs) % r == (2 * sig.genus - 2) % r
            assert sum(ctx.twist_integers) + r * ctx.invariants.obstruction == 2 * sig.genus - 2
            # torsion relation: k_j*alpha_j + alpha_j - 1 = 0 mod r
            for (a, _), k in zip(ctx.invariants.multiple_fibres, ctx.twist_integers):
                assert (k * a + a - 1) % r == 0


def test_root_tuple_normalisation_and_validation():
    assert RootTuple(5, (7, -1)).coords == (2, 4)
    assert RootTuple(1, (0, 0)).coords == (0, 0)
    assert RootTuple(4).genus == 0
    with pytest.raises(ValueError):
        RootTuple(0, ())
    with pytest.raises(ValueError):
        RootTuple(3, (1,))
    with pytest.raises(ValueError):
        RootTuple(3, (1.5, 2))


def test_root_tuple_json_round_trip():
    root = RootTuple(6, (4, 2))
    assert RootTuple.from_json(root.to_json()) == root
    assert root.to_json() == {"r": 6, "coords": [4, 2]}
    with pytest.raises(ValueError):
        RootTuple.from_json({"r": 6})


def test_streams_are_recreatable():
    ctx = solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 2)
    first = list(enumerate_roots(ctx))
    second = list(enumerate_roots(ctx))
    assert first == second
