"""The benchmark's oracles against direct enumeration on small cases.

Run with ``python3 -m pytest perfbench``.  These tests import nothing from
the library: they check the oracles the benchmark uses to check it.
"""

from fractions import Fraction
from itertools import product
from math import gcd

import oracles


def test_chi_and_admissible_orders_on_known_signatures():
    assert oracles.chi(0, (2, 3, 7)) == Fraction(-1, 42)
    assert oracles.admissible_orders(0, (2, 3, 7)) == [1]
    assert oracles.admissible_orders(1, (3,)) == [1, 2]
    assert oracles.admissible_orders(2, ()) == [1, 2]
    assert oracles.admissible_orders(3, ()) == [1, 2, 4]


def test_covering_data_satisfies_the_relations():
    for genus, alphas in [(1, (3,)), (2, (5, 5)), (0, (2, 3, 7)), (3, (2,)), (1, (7,))]:
        for r in oracles.admissible_orders(genus, alphas):
            data = oracles.covering_data(genus, alphas, r)
            ks, b = data["k"], data["b"]
            assert r * b == 2 * genus - 2 - sum(ks)
            for (a, beta), k in zip(data["pairs"], ks):
                assert 1 <= beta <= a - 1 and r * beta == a - 1 + k * a
            assert r * Fraction(data["euler_number"]) == oracles.chi(genus, alphas)


def test_jordan_totient_matches_pair_counting():
    for r in range(1, 41):
        for d in oracles.divisors(r):
            pairs = sum(1 for s, t in product(range(r), repeat=2) if gcd(s, t, r) == d)
            assert oracles.jordan_totient_2(r // d) == pairs, (r, d)


def test_sheet_counts_match_exhaustive_orbit_search():
    cases = [(0, 3)] + [(1, r) for r in range(1, 9)] + [(2, r) for r in range(1, 6)] + [(3, 2), (3, 3)]
    for genus, r in cases:
        observed = {}
        for orbit in oracles.exhaustive_orbits(genus, r):
            labels = {oracles.orbit_label(c, r) for c in orbit}
            assert len(labels) == 1, (genus, r, labels)
            observed[labels.pop()] = len(orbit)
        assert observed == oracles.sheet_counts(genus, r), (genus, r)


def test_canonical_tuples_carry_their_label():
    for genus, r in [(1, 6), (2, 4), (3, 4), (2, 5)]:
        for label in oracles.sheet_counts(genus, r):
            assert oracles.orbit_label(oracles.canonical_coords(label, r, genus), r) == label


def test_replayer_powers_and_inverses():
    r, coords = 7, (2, 5, 3, 1)
    assert oracles.replay(coords, r, [("U", 1, 1)]) == (2, 3, 3, 1)
    assert oracles.replay(coords, r, [("V", 2, 1)]) == (2, 5, 4, 1)
    # w_1: x = s_1 - s_2 + 1 = 0, so nothing moves; from (3, 0, 1, 0) x = 3
    assert oracles.replay(coords, r, [("W", 1, 1)]) == coords
    assert oracles.replay((3, 0, 1, 0), r, [("W", 1, 1)]) == (3, 4, 1, 3)
    for letter in oracles.unit_letters(2):
        family, index, power = letter
        assert oracles.replay(coords, r, [letter, (family, index, -power)]) == coords
        assert oracles.replay(coords, r, [(family, index, 3 * power)]) == oracles.replay(coords, r, [letter] * 3)
