from fractions import Fraction

import pytest

from orbispin import (
    InadmissibleOrder,
    NotHyperbolic,
    NotSL2Quotient,
    OrbifoldSignature,
    RootContext,
    SeifertInvariants,
    admissible_root_orders,
    chi_orb,
    recognize_fibre_index,
    root_order_admissible,
    solve_raymond_vasquez,
    unit_tangent_bundle,
)
from helpers import chi_by_fraction_sum, euler_by_fraction_sum, hyperbolic_grid, rv_solvable_bruteforce


def test_order_one_solution_is_the_unit_tangent_bundle():
    # r = 1 solves with b = 2g-2, beta_j = alpha_j - 1 and every k_j = 0
    for sig in [
        OrbifoldSignature(2),
        OrbifoldSignature(0, (2, 3, 7)),
        OrbifoldSignature(1, (3,)),
        OrbifoldSignature(3, (2, 5, 9)),
    ]:
        ctx = solve_raymond_vasquez(sig, 1)
        assert ctx.invariants.obstruction == 2 * sig.genus - 2
        assert all(beta == a - 1 for a, beta in ctx.invariants.multiple_fibres)
        assert all(k == 0 for k in ctx.twist_integers)
        assert ctx == unit_tangent_bundle(sig)
        assert ctx.euler_number == chi_orb(sig)


def test_solved_examples():
    ctx = solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 2)
    assert ctx.invariants.multiple_fibres == ((3, 1),)
    assert ctx.twist_integers == (0,)
    assert ctx.invariants.obstruction == 0
    assert ctx.euler_number == Fraction(-1, 3)
    assert 2 * ctx.euler_number == chi_orb(ctx.signature)

    ctx = solve_raymond_vasquez(OrbifoldSignature(2, (3,)), 2)
    assert ctx.invariants.multiple_fibres == ((3, 1),)
    assert ctx.twist_integers == (0,)
    assert ctx.invariants.obstruction == 1
    assert ctx.euler_number == Fraction(-4, 3)


def test_unit_tangent_bundle_examples():
    ctx = unit_tangent_bundle(OrbifoldSignature(2))
    assert ctx.invariants.obstruction == 2
    assert ctx.invariants.multiple_fibres == ()
    assert ctx.euler_number == -2

    ctx = unit_tangent_bundle(OrbifoldSignature(0, (2, 3, 7)))
    assert ctx.invariants.obstruction == -2
    assert ctx.invariants.multiple_fibres == ((2, 1), (3, 2), (7, 6))
    assert ctx.euler_number == Fraction(-1, 42)

    ctx = unit_tangent_bundle(OrbifoldSignature(1, (3,)))
    assert ctx.invariants.obstruction == 0
    assert ctx.invariants.multiple_fibres == ((3, 2),)
    assert ctx.euler_number == Fraction(-2, 3)


def test_solver_rejects_inadmissible_orders():
    with pytest.raises(InadmissibleOrder):
        solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 5)
    with pytest.raises(InadmissibleOrder):
        solve_raymond_vasquez(OrbifoldSignature(2), 3)
    with pytest.raises(NotHyperbolic):
        solve_raymond_vasquez(OrbifoldSignature(1), 1)


def test_recognize_examples():
    ctx = recognize_fibre_index(SeifertInvariants(2, 1, ((3, 1),)))
    assert ctx.order == 2
    assert ctx.twist_integers == (0,)
    assert ctx.euler_number == Fraction(-4, 3)
    assert ctx == solve_raymond_vasquez(OrbifoldSignature(2, (3,)), 2)

    ctx = recognize_fibre_index(SeifertInvariants(2, 2))
    assert ctx.order == 1

    with pytest.raises(NotSL2Quotient):
        recognize_fibre_index(SeifertInvariants(2, 0))  # e = 0
    with pytest.raises(NotSL2Quotient):
        recognize_fibre_index(SeifertInvariants(2, -1))  # e > 0
    with pytest.raises(NotSL2Quotient):
        recognize_fibre_index(SeifertInvariants(2, 3))  # chi/e = 2/3
    with pytest.raises(NotHyperbolic):
        recognize_fibre_index(SeifertInvariants(0, 1, ((2, 1), (3, 2), (6, 5))))


def test_recognize_rejects_wrong_beta():
    # (3, 2) solves the congruence for r = 1, but b = 1 then breaks relation 1
    with pytest.raises(NotSL2Quotient):
        recognize_fibre_index(SeifertInvariants(2, 1, ((3, 2),)))


def test_equivalence_of_admissibility_solver_and_search():
    for sig in hyperbolic_grid(max_genus=2, max_cones=2, max_multiplicity=6):
        for r in range(1, 25):
            admissible = root_order_admissible(sig, r)
            assert admissible == rv_solvable_bruteforce(sig, r)
            if admissible:
                ctx = solve_raymond_vasquez(sig, r)
                assert r * ctx.euler_number == chi_orb(sig)
            else:
                with pytest.raises(InadmissibleOrder):
                    solve_raymond_vasquez(sig, r)


def test_round_trip_recognition_on_grid():
    for sig in hyperbolic_grid(max_genus=2, max_cones=2, max_multiplicity=6):
        for r in admissible_root_orders(sig):
            ctx = solve_raymond_vasquez(sig, r)
            assert recognize_fibre_index(ctx.invariants) == ctx


def test_equal_multiplicities_share_beta_and_k():
    for sig, r in [
        (OrbifoldSignature(0, (5, 5, 5)), 2),
        (OrbifoldSignature(1, (7, 7)), 4),
        (OrbifoldSignature(2, (3, 3, 5)), 2),
    ]:
        ctx = solve_raymond_vasquez(sig, r)
        seen = {}
        for (a, beta), k in zip(ctx.invariants.multiple_fibres, ctx.twist_integers):
            if a in seen:
                assert seen[a] == (beta, k)
            seen[a] = (beta, k)


def test_invariants_validation():
    with pytest.raises(ValueError):
        SeifertInvariants(1, 0, ((3, 3),))  # beta = alpha
    with pytest.raises(ValueError):
        SeifertInvariants(1, 0, ((3, 0),))  # beta = 0
    with pytest.raises(ValueError):
        SeifertInvariants(-1, 0)
    inv = SeifertInvariants(1, 0, ((3, 2),))
    assert inv.euler_number() == Fraction(-2, 3)
    assert SeifertInvariants.from_json(inv.to_json()) == inv


def test_context_construction_rejects_inconsistent_data():
    sig = OrbifoldSignature(1, (3,))
    good = solve_raymond_vasquez(sig, 2)
    with pytest.raises(ValueError):
        RootContext(sig, 2, good.invariants, (1,), good.euler_number)
    with pytest.raises(ValueError):
        RootContext(sig, 2, good.invariants, good.twist_integers, Fraction(-1, 2))


def test_context_json_round_trip():
    ctx = solve_raymond_vasquez(OrbifoldSignature(2, (3,)), 4)
    assert RootContext.from_json(ctx.to_json()) == ctx
    data = ctx.to_json()
    assert data["r"] == 4 and data["pairs"] == [[3, 2]]


def test_context_loader_refuses_non_integers():
    ctx = solve_raymond_vasquez(OrbifoldSignature(2), 2)
    with pytest.raises(ValueError):
        RootContext.from_json({**ctx.to_json(), "r": 2.9})
    ctx = solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 2)
    (k,) = ctx.twist_integers
    with pytest.raises(ValueError):
        RootContext.from_json({**ctx.to_json(), "k": [float(k)]})
    with pytest.raises(ValueError):
        RootContext(ctx.signature, 2.0, ctx.invariants, ctx.twist_integers, ctx.euler_number)


def test_chi_and_euler_number_equal_term_by_term_sums():
    for sig in hyperbolic_grid():
        assert chi_orb(sig) == chi_by_fraction_sum(sig)
        for r in admissible_root_orders(sig):
            ctx = solve_raymond_vasquez(sig, r)
            assert ctx.euler_number == ctx.invariants.euler_number() == euler_by_fraction_sum(ctx.invariants)
    for sig in [OrbifoldSignature(0), OrbifoldSignature(1), OrbifoldSignature(0, (2, 3, 6)), OrbifoldSignature(0, (5,))]:
        assert chi_orb(sig) == chi_by_fraction_sum(sig)


def test_cached_chi_and_euler_number_leave_equality_hash_repr_and_json_alone():
    for make, compute in [
        (lambda: OrbifoldSignature(2, (3, 5)), chi_orb),
        (lambda: SeifertInvariants(2, -1, ((3, 2), (5, 1))), SeifertInvariants.euler_number),
    ]:
        used, fresh = make(), make()
        before = (hash(used), repr(used), used.to_json())
        assert compute(used) is compute(used)
        assert used == fresh and fresh == used
        assert (hash(used), repr(used), used.to_json()) == before == (hash(fresh), repr(fresh), fresh.to_json())
