import re
import sys
from collections import Counter

import pytest

import orbispin.moduli
import orbispin.verification
from orbispin import (
    OrbifoldSignature, RootContext, RootTuple, TwistGenerator, apply_word, partition_orbits,
    solve_raymond_vasquez,
)
from orbispin.cli import main
from orbispin.verification import (
    WITNESS_SAMPLES, GridBounds, _solve_grid, check_round_trip, check_witnesses, run_suite,
)
from helpers import _twist, bfs_partition, context_for

ROWS = (
    "existence", "round-trip", "a-invariance", "orbit-census",
    "genus-1-census", "witness-replay", "moduli-census",
)

# the (g, r) the census and a-invariance rows must keep covering on the
# default grid: genus 2 at small r, genus 3 at r = 2 and 4, genus 1 up to
# r = 24, and the grid contexts with r^{2g} <= 2^16 (genus-1 signatures with
# two cones reach r = 31 and 49)
DEFAULT_COVERAGE = (
    {(1, r) for r in [*range(1, 25), 31, 49]}
    | {(2, r) for r in [*range(1, 12), 13, 14]}
    | {(3, 2), (3, 4)}
)


def _partitions_per_gr(monkeypatch):
    calls = Counter()
    real = orbispin.moduli.partition_orbits

    def counting(ctx, *args, **kwargs):
        calls[ctx.genus, ctx.order] += 1
        return real(ctx, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("orbispin") and getattr(module, "partition_orbits", None) is real:
            monkeypatch.setattr(module, "partition_orbits", counting)
    return calls


def test_default_grid_partitions_each_gr_once(monkeypatch):
    calls = _partitions_per_gr(monkeypatch)
    results = run_suite(GridBounds())
    assert [res.name for res in results] == list(ROWS)
    assert all(res.passed for res in results), results
    assert max(calls.values()) == 1
    assert sum(calls.values()) == 41
    assert set(calls) >= DEFAULT_COVERAGE


def test_census_rows_honour_the_cap(monkeypatch):
    calls = _partitions_per_gr(monkeypatch)
    results = {res.name: res for res in run_suite(GridBounds(max_genus=1), state_cap=100)}
    assert calls and all(r ** (2 * g) <= 100 for g, r in calls)
    assert results["genus-1-census"].detail == "orders 1..10"
    assert results["orbit-census"].detail == "checked [(2, 2), (2, 3)]"
    assert results["a-invariance"].detail == "labels constant on every orbit of [(2, 2), (3, 2)]"


def _verify_rows(capsys, grid):
    code = main(["verify", grid])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1].rstrip(":") for line in lines] == list(ROWS)
    return code, {line.split()[1].rstrip(":") for line in lines if line.startswith("FAIL")}


def _swap_parities(real):
    def broken(genus, r):
        counts = real(genus, r)
        return counts[::-1] if isinstance(counts, tuple) else counts
    return broken


def _one_extra_sheet(real):
    return lambda r, d: real(r, d) + (d == r)


@pytest.mark.parametrize(
    "name,breaker,failing",
    [
        # the sheet total stays r^{2g}; the partition tells the classes apart
        ("orbit_count_closed_form", _swap_parities, {"orbit-census", "moduli-census"}),
        # the sheet total moves off r^2, which the report itself refuses
        ("genus_one_orbit_size", _one_extra_sheet, {"genus-1-census", "moduli-census"}),
    ],
)
def test_a_broken_closed_form_fails_the_rows_that_cover_it(
    monkeypatch, capsys, name, breaker, failing
):
    # grid contexts of genus 1 and of genus 2 at r = 2 reach the moduli row
    grid = "g=2,n=1,alpha=3,r=4"
    assert _verify_rows(capsys, grid) == (0, set())
    monkeypatch.setattr(orbispin.moduli, name, breaker(getattr(orbispin.moduli, name)))
    assert _verify_rows(capsys, grid) == (1, failing)


# the row compares both with a direct search of the relations, so it fails
# even when the solver shares the wrong test
@pytest.mark.parametrize("modules", [("verification",), ("verification", "seifert")])
def test_a_wrong_admissibility_test_fails_the_existence_row(monkeypatch, capsys, modules):
    grid = "g=1,n=1,alpha=3,r=4"
    assert _verify_rows(capsys, grid) == (0, set())
    real = orbispin.verification.root_order_admissible
    flipped = (OrbifoldSignature(1, (3,)), 1)
    for name in modules:
        monkeypatch.setattr(
            sys.modules[f"orbispin.{name}"], "root_order_admissible",
            lambda sig, r: real(sig, r) != ((sig, r) == flipped),
        )
    assert _verify_rows(capsys, grid) == (1, {"existence"})


def _reading_one_one_as_zero(real):
    """``real`` with a genus-1 root at (1, 1) read as the zero root."""
    def moved(root, *rest):
        return real(RootTuple(root.order, (0, 0)) if root.coords == (1, 1) else root, *rest)
    return moved


@pytest.mark.parametrize(
    "name,failure",
    [
        # the witness of (1, 1) replayed from (0, 0) stays at (0, 0)
        ("apply_word", r"replay failed for \(1, 1\), r=6"),
        # a scramble landing on (1, 1) reads the form of (0, 0): d = 6, not d = 1
        ("canonical_form", r"canonical form moved for \(\d+, \d+\), r=6"),
    ],
)
def test_a_moved_root_fails_the_witness_row(monkeypatch, name, failure):
    assert check_witnesses([1], [6], WITNESS_SAMPLES, 0).passed
    monkeypatch.setattr(
        orbispin.verification, name, _reading_one_one_as_zero(getattr(orbispin.verification, name))
    )
    result = check_witnesses([1], [6], WITNESS_SAMPLES, 0)
    assert result.name == "witness-replay" and not result.passed
    assert re.fullmatch(failure, result.detail)


def test_another_context_fails_the_round_trip_row(monkeypatch):
    bounds = GridBounds(max_genus=1, max_cones=1, max_multiplicity=3, max_order=4)
    solved = _solve_grid(bounds, 0)
    assert check_round_trip(solved, bounds).passed
    target = solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 2)
    real = orbispin.verification.recognize_fibre_index
    monkeypatch.setattr(
        orbispin.verification, "recognize_fibre_index",
        lambda inv: RootContext(target.signature, 1) if inv == target.invariants else real(inv),
    )
    result = check_round_trip(solved, bounds)
    assert result.name == "round-trip" and not result.passed
    assert result.detail == f"recovery differs at {target.signature.to_json()}, r=2"


def test_the_one_twist_formula_feeds_every_consumer(monkeypatch):
    real = orbispin.twists._twist

    def broken(digits, r, family, i, m):
        if family == "U":  # t_i <- t_i - m (s_i + 1): moves the parity when s_i is even
            return ((2 * i + 1, digits[2 * i + 1] + (r - m) * (digits[2 * i] + 1)),)
        return real(digits, r, family, i, m)

    patched = [
        name for name, module in list(sys.modules.items())
        if name.startswith("orbispin") and getattr(module, "_twist", None) is real
    ]
    assert {"orbispin.twists", "orbispin.orbits"} <= set(patched)
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "_twist", broken)
    # at r = 1 every other row still passes: all its tuples are zero
    results = {res.name: res for res in run_suite(GridBounds(max_genus=0, max_order=1))}
    assert [name for name, res in results.items() if not res.passed] == ["a-invariance"]
    assert re.fullmatch(
        r"\(g=[23], r=[24]\): the orbit of \(\d+(, \d+){3,5}\) mixes canonical forms",
        results["a-invariance"].detail,
    )
    u1 = TwistGenerator("U", 1)
    assert apply_word(RootTuple(5, (2, 3)), [u1]).coords != _twist((2, 3), 5, "U", 0, 1)
    standard = [("U", 1, 1), ("V", 1, 1), ("U", 2, 1), ("V", 2, 1), ("W", 1, 1)]
    try:
        orbits = partition_orbits(context_for(2, 4)).orbits
        found = [(rec.representative.coords, rec.size) for rec in orbits]
    except RuntimeError:  # an orbit mixing parities
        found = None
    assert found != bfs_partition(4, 2, standard)


def _one_sheet_moved_at_genus_3(real):
    def broken(genus, r):
        counts = real(genus, r)
        return (counts[0] + 1, counts[1] - 1) if genus == 3 and isinstance(counts, tuple) else counts
    return broken


def test_a_failure_no_covering_row_reports_fails_orbit_census(monkeypatch):
    # on the default grid (g = 2) only the a-invariance row covers genus 3, and it
    # reports mixed orbits alone; the sheet total stays r^{2g}, so the report's
    # comparison with the partition fails at (3, 2) and (3, 4)
    real = orbispin.moduli.orbit_count_closed_form
    monkeypatch.setattr(orbispin.moduli, "orbit_count_closed_form", _one_sheet_moved_at_genus_3(real))
    results = {res.name: res for res in run_suite(GridBounds())}
    assert [name for name, res in results.items() if not res.passed] == ["orbit-census"]
    assert results["orbit-census"].detail.startswith("(g=3, r=2): census disagrees with brute-force orbits")


def test_failed_census_names_its_gr(monkeypatch):
    monkeypatch.setattr(orbispin.moduli, "genus_one_orbit_size", lambda r, d: 1)
    results = {res.name: res for res in run_suite(GridBounds(max_genus=1, max_order=3))}
    assert results["genus-1-census"].detail.startswith("(g=1, r=2): sheet counts sum to 2")


@pytest.mark.parametrize(
    "field,value",
    [("max_genus", -1), ("max_cones", -3), ("max_multiplicity", 1), ("max_order", 0),
     ("max_order", 2.0), ("max_genus", True), ("max_cones", None)],
)
def test_grid_bounds_refuse_vacuous_or_coerced_values(field, value):
    with pytest.raises(ValueError):
        GridBounds(**{field: value})


@pytest.mark.parametrize(
    "grid", ["g=-1,n=0,alpha=6,r=24", "g=2,n=2,alpha=6,r=0", "g=2,n=-3,alpha=6,r=24",
             "g=2,n=2,alpha=1,r=24"],
)
def test_verify_rejects_a_bad_grid(capsys, grid):
    assert main(["verify", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("UsageError:")
