from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from orbispin import (
    NotHyperbolic,
    OrbifoldSignature,
    RootTuple,
    SeifertInvariants,
    TwistGenerator,
    admissible_root_orders,
    assert_hyperbolic,
    chi_orb,
    divisors,
    is_hyperbolic,
    multiplicity_product_chi,
    root_order_admissible,
)
from orbispin.verification import GridBounds, hyperbolic_signatures


@pytest.mark.parametrize(
    "genus,cones,expected",
    [
        (2, (), Fraction(-2)),
        (0, (2, 3, 7), Fraction(-1, 42)),
        (1, (3,), Fraction(-2, 3)),
        (1, (), Fraction(0)),
        (0, (2, 3, 6), Fraction(0)),
        (3, (2, 2), Fraction(-5)),
    ],
)
def test_chi_orb_values(genus, cones, expected):
    assert chi_orb(OrbifoldSignature(genus, cones)) == expected


def test_chi_orb_is_order_independent():
    for alphas in permutations((2, 3, 7)):
        assert chi_orb(OrbifoldSignature(0, alphas)) == Fraction(-1, 42)
    for alphas in permutations((4, 4, 5)):
        assert chi_orb(OrbifoldSignature(1, alphas)) == chi_orb(OrbifoldSignature(1, (4, 4, 5)))


def test_assert_hyperbolic():
    assert_hyperbolic(OrbifoldSignature(2))
    assert_hyperbolic(OrbifoldSignature(0, (2, 3, 7)))
    with pytest.raises(NotHyperbolic) as info:
        assert_hyperbolic(OrbifoldSignature(1))
    assert info.value.chi == 0
    with pytest.raises(NotHyperbolic) as info:
        assert_hyperbolic(OrbifoldSignature(0, (2, 2)))
    assert info.value.chi == 1


def test_multiplicity_product_chi_examples():
    assert multiplicity_product_chi(OrbifoldSignature(2)) == -2
    assert multiplicity_product_chi(OrbifoldSignature(0, (2, 3, 7))) == -1
    assert multiplicity_product_chi(OrbifoldSignature(1, (3,))) == -2


def test_product_chi_is_integer_on_grid():
    for sig in hyperbolic_signatures(GridBounds(max_genus=3, max_cones=3, max_multiplicity=7)):
        product = 1
        for a in sig.cone_multiplicities:
            product *= a
        assert product * chi_orb(sig) == multiplicity_product_chi(sig)


@pytest.mark.parametrize(
    "genus,cones,r,expected",
    [
        (2, (), 2, True),
        (2, (), 3, False),
        (1, (3,), 2, True),
        (0, (2, 3, 7), 1, True),
        (1, (3,), 3, False),  # gcd(3, 3) > 1
    ],
)
def test_root_order_admissible(genus, cones, r, expected):
    assert root_order_admissible(OrbifoldSignature(genus, cones), r) is expected


def test_genus_zero_237_admits_only_order_one():
    sig = OrbifoldSignature(0, (2, 3, 7))
    assert root_order_admissible(sig, 1)
    for r in range(2, 50):
        assert not root_order_admissible(sig, r)


def test_admissible_root_orders_examples():
    assert admissible_root_orders(OrbifoldSignature(2)) == (1, 2)
    assert admissible_root_orders(OrbifoldSignature(3)) == (1, 2, 4)
    assert admissible_root_orders(OrbifoldSignature(0, (2, 3, 7))) == (1,)


def test_cone_free_orders_are_divisors_of_2g_minus_2():
    for g in range(2, 7):
        assert admissible_root_orders(OrbifoldSignature(g)) == divisors(2 * g - 2)


def test_order_one_is_always_admissible():
    for sig in hyperbolic_signatures(GridBounds(max_genus=2, max_cones=2, max_multiplicity=6)):
        orders = admissible_root_orders(sig)
        assert orders[0] == 1
        assert list(orders) == sorted(orders)


def test_not_hyperbolic_blocks_admissibility():
    with pytest.raises(NotHyperbolic):
        root_order_admissible(OrbifoldSignature(1), 1)
    with pytest.raises(NotHyperbolic):
        admissible_root_orders(OrbifoldSignature(0, (3, 3, 3)))


def test_signature_validation():
    with pytest.raises(ValueError):
        OrbifoldSignature(-1)
    with pytest.raises(ValueError):
        OrbifoldSignature(1, (1,))
    with pytest.raises(ValueError):
        root_order_admissible(OrbifoldSignature(2), 0)


def test_signature_json_round_trip():
    sig = OrbifoldSignature(1, (3, 5))
    assert OrbifoldSignature.from_json(sig.to_json()) == sig
    assert sig.to_json() == {"genus": 1, "cone_points": [3, 5]}
    with pytest.raises(ValueError):
        OrbifoldSignature.from_json({"genus": 1})
    with pytest.raises(ValueError):
        OrbifoldSignature.from_json([1, 2])


def test_divisors():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(-7) == (1, 7)
    assert divisors(1) == (1,)
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_refuse_non_integers():
    for bad in (12.9, 12.0, True, None, "12"):
        with pytest.raises(ValueError):
            divisors(bad)


def test_is_hyperbolic_matches_sign():
    assert is_hyperbolic(OrbifoldSignature(0, (2, 3, 7)))
    assert not is_hyperbolic(OrbifoldSignature(0, (2, 4, 4)))


def test_integer_fields_refuse_bool_floats_and_none():
    for bad in (True, 3.0, 3.9, None, "3"):
        with pytest.raises(ValueError):
            OrbifoldSignature(1, (bad,))
        with pytest.raises(ValueError):
            OrbifoldSignature(bad)
        with pytest.raises(ValueError):
            TwistGenerator("U", 1, bad)
        with pytest.raises(ValueError):
            RootTuple(5, (bad, 0))
        with pytest.raises(ValueError):
            SeifertInvariants(1, 0, ((5, bad),))
    with pytest.raises(ValueError):
        root_order_admissible(OrbifoldSignature(2), True)
    # numpy integers are integers, and come out as plain ints
    sig = OrbifoldSignature(np.int64(2), (np.int32(3),))
    assert sig.to_json() == {"genus": 2, "cone_points": [3]}
    assert type(sig.genus) is int and type(sig.cone_multiplicities[0]) is int
