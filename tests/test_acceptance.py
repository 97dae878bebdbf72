"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Expected values are frozen from independent computations: the
brute-force relation search in ``verification.check_existence``,
hand-evaluated closed forms, and direct pair counting over Z_r^2.  Criteria
1, 7 and 9 run the checks of ``orbispin verify`` at their own grid, sample
count and seed, and assert the counts those checks report.  All comparisons
are exact; there are no tolerances anywhere.
"""

from itertools import product
from math import gcd

import pytest

from orbispin import (
    RootTuple,
    SeifertInvariants,
    admissible_root_orders,
    a_invariant,
    apply_generator,
    chi_orb,
    divisors,
    moduli_report,
    orbit_of,
    partition_orbits,
    recognize_fibre_index,
    solve_raymond_vasquez,
    standard_generators,
)
from orbispin.verification import (
    GridBounds,
    _solve_grid,
    check_existence,
    check_round_trip,
    check_witnesses,
    hyperbolic_signatures,
)
from helpers import CENSUS_SIGNATURES, genus_one_signature

ACCEPTANCE = GridBounds(max_genus=3, max_cones=3, max_multiplicity=9, max_order=60)
GRID = hyperbolic_signatures(ACCEPTANCE)
MODULI_STATE_BOUND = 1 << 20


@pytest.fixture(scope="module")
def solved():
    """Every GRID signature at r = 1..60, solved once (None where refused);
    a cap of 0 adds no census orders beyond r = 60."""
    return _solve_grid(ACCEPTANCE, 0)


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def _signed_units(genus):
    gens = list(standard_generators(genus))
    return gens + [g.inverse() for g in gens]


def test_criterion_1_existence_equivalence(solved):
    result = check_existence(solved, ACCEPTANCE)
    _report(
        1,
        "existence test agrees with brute-force relation search",
        result.passed and result.detail == "36000 (signature, order) pairs",
        result.detail,
    )


def test_criterion_2_exact_euler_identity(solved):
    contexts = [ctx for ctx in solved.values() if ctx is not None]
    violations = [ctx for ctx in contexts if ctx.order * ctx.euler_number != chi_orb(ctx.signature)]
    _report(
        2,
        "r * e = chi holds exactly for every solved context",
        not violations and len(contexts) == 1536,
        f"{len(contexts)} contexts, zero tolerance",
    )


def test_criterion_3_parity_invariance_exhaustive():
    checked = 0
    violations = 0
    for genus in (2, 3):
        gens = _signed_units(genus)
        for r in (2, 4):
            for coords in product(range(r), repeat=2 * genus):
                root = RootTuple(r, coords)
                parity = a_invariant(root)
                for gen in gens:
                    checked += 1
                    if a_invariant(apply_generator(root, gen)) != parity:
                        violations += 1
    _report(
        3,
        "Arf-type parity is invariant under all twist generators",
        violations == 0,
        f"{checked} generator applications",
    )


def test_criterion_4_even_order_census():
    # sizes frozen from r^{2g} (2^g +- 1) / 2^{g+1}
    expected = {
        (2, 2): (10, 6),
        (2, 4): (160, 96),
        (2, 6): (810, 486),
        (3, 2): (36, 28),
        (3, 4): (2304, 1792),
    }
    failures = []
    for (genus, r), (even_count, odd_count) in expected.items():
        ctx = solve_raymond_vasquez(CENSUS_SIGNATURES[(genus, r)], r)
        partition = partition_orbits(ctx)
        sizes = {rec.label.kind: rec.size for rec in partition.orbits}
        all_zero = even_count if genus % 2 == 0 else odd_count
        last_one = odd_count if genus % 2 == 0 else even_count
        if len(partition.orbits) != 2 or sizes != {
            "all_zero": all_zero,
            "last_one": last_one,
        }:
            failures.append((genus, r, sizes))
    _report(
        4,
        "even-order orbit census matches the closed form",
        not failures,
        f"checked {sorted(expected)}; failures: {failures}",
    )


def test_criterion_5_odd_order_census():
    failures = []
    for genus, r in [(2, 3), (2, 5), (3, 3)]:
        ctx = solve_raymond_vasquez(CENSUS_SIGNATURES[(genus, r)], r)
        partition = partition_orbits(ctx)
        if partition.sizes() != (r ** (2 * genus),):
            failures.append((genus, r, partition.sizes()))
    _report(
        5,
        "odd-order action is transitive with orbit size r^(2g)",
        not failures,
        f"failures: {failures}",
    )


def test_criterion_6_genus_one_census():
    failures = []
    for r in range(1, 25):
        ctx = solve_raymond_vasquez(genus_one_signature(r), r)
        partition = partition_orbits(ctx)
        divs = list(divisors(r))
        if sorted(rec.label.d for rec in partition.orbits) != divs:
            failures.append((r, "labels"))
            continue
        if sum(partition.sizes()) != r * r:
            failures.append((r, "total"))
            continue
        for d in divs:
            orbit = {t.coords for t in orbit_of(RootTuple(r, (0, d % r)))}
            ideal_class = {
                (s, t) for s in range(r) for t in range(r) if gcd(s, t, r) == d
            }
            if orbit != ideal_class:
                failures.append((r, d))
    _report(
        6,
        "genus-1 orbits biject with divisors and equal ideal classes",
        not failures,
        f"orders 1..24; failures: {failures}",
    )


def test_criterion_7_witness_soundness():
    result = check_witnesses(range(4), range(1, 7), 10_000, 20260810)
    _report(
        7,
        "witness words replay to canonical tuples; canonical form is orbit-constant",
        result.passed and result.detail == "240000 random roots",
        result.detail,
    )


def test_criterion_8_moduli_report_consistency():
    contexts = 0
    failures = []
    for sig in GRID:
        for r in admissible_root_orders(sig):
            if r ** (2 * sig.genus) > MODULI_STATE_BOUND:
                continue
            ctx = solve_raymond_vasquez(sig, r)
            report = moduli_report(ctx, state_cap=None)  # the closed form alone
            partition = partition_orbits(ctx, cap=MODULI_STATE_BOUND)
            expected = {label: n for label, n in report.components}
            observed = {rec.label: rec.size for rec in partition.orbits}
            if expected != observed:
                failures.append((sig.to_json(), r))
            contexts += 1
    genus_zero = 0
    for sig in GRID:
        if sig.genus != 0:
            continue
        for r in admissible_root_orders(sig):
            report = moduli_report(solve_raymond_vasquez(sig, r))
            if [n for _, n in report.components] != [1]:
                failures.append((sig.to_json(), r, "genus-0"))
            genus_zero += 1
    _report(
        8,
        "census reports equal brute-force partitions; genus 0 is one sheet",
        not failures,
        f"{contexts} contexts under 2^20 states, {genus_zero} genus-0 reports",
    )


def test_criterion_9_round_trip_recognition(solved):
    result = check_round_trip(solved, ACCEPTANCE)
    worked = recognize_fibre_index(SeifertInvariants(2, 1, ((3, 1),)))
    _report(
        9,
        "fibre-index recognition inverts the relation solver",
        result.passed and result.detail == "1536 solved contexts" and worked.order == 2,
        f"{result.detail} plus the worked example (order {worked.order})",
    )
