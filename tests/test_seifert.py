import json
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
    multiplicity_product_chi,
    recognize_fibre_index,
    solve_raymond_vasquez,
    unit_tangent_bundle,
)
from orbispin.verification import GridBounds, hyperbolic_signatures
from helpers import chi_by_fraction_sum, euler_by_fraction_sum

GRID = hyperbolic_signatures(GridBounds(max_genus=3, max_cones=3, max_multiplicity=9))


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
    # e = -5/3 and chi = -8/3, so chi/e = 8/5 is not an integer: this is
    # rejected before any covering relation is checked
    with pytest.raises(NotSL2Quotient):
        recognize_fibre_index(SeifertInvariants(2, 1, ((3, 2),)))


def test_recognize_rejects_a_failed_fibre_relation():
    # chi/e = (-4/3) / (-1/6) = 8 is a positive integer, but 8*1 - 2 + 1 is
    # odd, so fibre (2, 1) fails r*beta = alpha - 1 + k*alpha
    with pytest.raises(NotSL2Quotient, match=r"\(2, 1\)"):
        recognize_fibre_index(SeifertInvariants(1, -1, ((2, 1), (6, 4))))


def test_context_checks_r_times_e_equals_chi(monkeypatch):
    # no input reaches this check: break either side of -r (-e P) = P chi,
    # P the product of the multiplicities, and the context refuses itself
    sig = OrbifoldSignature(2, (3,))
    minus_euler_product = SeifertInvariants._minus_euler_product
    with monkeypatch.context() as patch:
        patch.setattr(SeifertInvariants, "_minus_euler_product", lambda inv: minus_euler_product(inv) + 1)
        with pytest.raises(RuntimeError, match=r"identity r\*e = chi fails .* at r = 2"):
            RootContext(sig, 2)
    # 2 P chi stays negative and even, so the order 2 stays admissible
    monkeypatch.setitem(sig.__dict__, "_product_chi", 2 * multiplicity_product_chi(sig))
    with pytest.raises(RuntimeError, match=r"identity r\*e = chi fails .* at r = 2"):
        RootContext(sig, 2)


def test_round_trip_recognition_on_grid():
    # every order on the census grid: recognition builds its context from the data
    # it checked, and that context must be the one RootContext(signature, r) derives
    contexts = [solve_raymond_vasquez(sig, r) for sig in GRID for r in admissible_root_orders(sig)]
    assert sum(ctx.order ** (2 * ctx.genus) <= 1 << 14 for ctx in contexts) == 1266  # the census's own
    for ctx in contexts:
        back = recognize_fibre_index(ctx.invariants)
        assert back == ctx and hash(back) == hash(ctx) and repr(back) == repr(ctx)
        assert back.to_json() == ctx.to_json() and back.invariants == ctx.invariants
        assert back.twist_integers == ctx.twist_integers and back.euler_number == ctx.euler_number
        assert type(back.order) is int and type(back.euler_number) is Fraction


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


def test_context_refuses_an_inadmissible_order():
    with pytest.raises(InadmissibleOrder):
        RootContext(OrbifoldSignature(1, (3,)), 5)


_SOLVED = solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 2).to_json()  # b 0, pairs [[3, 1]], k [0], e -1/3


@pytest.mark.parametrize(
    "data",
    [
        {**_SOLVED, "b": 1},
        {**_SOLVED, "pairs": [[3, 2]]},
        {**_SOLVED, "k": [1]},
        {**_SOLVED, "k": [1.0]},
        {**_SOLVED, "euler_number": "-1/2"},
    ],
    ids=["wrong-b", "wrong-beta", "wrong-k", "float-k", "wrong-euler"],
)
def test_context_loader_refuses_data_the_relations_do_not_give(data):
    with pytest.raises(ValueError):
        RootContext.from_json(data)


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
        RootContext(ctx.signature, 2.0)


_CONTEXT = solve_raymond_vasquez(OrbifoldSignature(2), 2).to_json()


@pytest.mark.parametrize(
    "data",
    [
        {**_CONTEXT, "euler_number": -1.0},  # the right value, but a float
        {**_CONTEXT, "euler_number": "1/0"},
        {**_CONTEXT, "k": 0},
        {**_CONTEXT, "pairs": "ab"},
        {key: value for key, value in _CONTEXT.items() if key != "b"},
        {key: value for key, value in _CONTEXT.items() if key != "r"},
        list(_CONTEXT.items()),
    ],
    ids=["float-euler", "zero-denominator", "int-k", "string-pairs", "no-b", "no-r", "non-dict"],
)
def test_context_loader_refuses_malformed_json(data):
    with pytest.raises(ValueError):
        RootContext.from_json(data)


def test_chi_and_euler_number_equal_term_by_term_sums():
    for sig in GRID:
        assert chi_orb(sig) == chi_by_fraction_sum(sig)
        for r in admissible_root_orders(sig):
            ctx = solve_raymond_vasquez(sig, r)
            assert ctx.euler_number == ctx.invariants.euler_number() == euler_by_fraction_sum(ctx.invariants)
    for sig in [OrbifoldSignature(0), OrbifoldSignature(1), OrbifoldSignature(0, (2, 3, 6)), OrbifoldSignature(0, (5,))]:
        assert chi_orb(sig) == chi_by_fraction_sum(sig)


def test_cached_multiplicity_product_chi_leaves_equality_hash_repr_and_json_alone():
    used, fresh = OrbifoldSignature(2, (3, 5)), OrbifoldSignature(2, (3, 5))
    before = (hash(used), repr(used), used.to_json())
    assert multiplicity_product_chi(used) is multiplicity_product_chi(used)
    assert used == fresh and fresh == used
    assert (hash(used), repr(used), used.to_json()) == before == (hash(fresh), repr(fresh), fresh.to_json())


def test_context_invariants_equal_the_public_constructors():
    # a context builds its invariants unchecked from the data it derives; over
    # the 1,266 contexts of the census grid they are what the validating
    # constructor makes of that data
    contexts = [RootContext(sig, r) for sig in GRID for r in admissible_root_orders(sig)
                if r ** (2 * sig.genus) <= 1 << 14]
    assert len(contexts) == 1266
    for inv in (ctx.invariants for ctx in contexts):
        public = SeifertInvariants(inv.genus, inv.obstruction, inv.multiple_fibres)
        assert inv == public and hash(inv) == hash(public) and repr(inv) == repr(public)
        assert json.dumps(inv.to_json()) == json.dumps(public.to_json())
        assert inv.euler_number() == public.euler_number()
        assert type(inv.multiple_fibres) is tuple and all(type(p) is tuple for p in inv.multiple_fibres)
