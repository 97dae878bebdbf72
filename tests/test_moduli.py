from itertools import islice

import pytest

from orbispin import moduli, orbits
from orbispin import (
    BASE_NOTE,
    ModuliReport,
    OrbifoldSignature,
    StandardForm,
    admissible_root_orders,
    divisors,
    moduli_report,
    partition_orbits,
    solve_raymond_vasquez,
)
from orbispin.verification import GridBounds, hyperbolic_signatures
from helpers import context_for, contexts_at, genus_one_signature


def test_genus_zero_report_is_a_single_sheet():
    ctx = solve_raymond_vasquez(OrbifoldSignature(0, (2, 3, 7)), 1)
    report = moduli_report(ctx)
    assert len(report.components) == 1
    label, sheets = report.components[0]
    assert label.kind == "genus0" and sheets == 1


def test_genus_one_report_components_follow_divisors():
    ctx = solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 2)
    report = moduli_report(ctx)
    assert [(label.d, n) for label, n in report.components] == [(1, 3), (2, 1)]

    for r in (6, 12):
        ctx = solve_raymond_vasquez(genus_one_signature(r), r)
        report = moduli_report(ctx)
        assert [label.d for label, _ in report.components] == list(divisors(r))
        assert report.total_sheets() == r * r


def test_genus_two_even_order_report():
    ctx = solve_raymond_vasquez(OrbifoldSignature(2), 2)
    report = moduli_report(ctx)
    by_kind = {label.kind: n for label, n in report.components}
    assert by_kind == {"all_zero": 10, "last_one": 6}


def test_genus_two_odd_order_report_is_connected():
    ctx = solve_raymond_vasquez(OrbifoldSignature(2, (2, 2)), 3)
    report = moduli_report(ctx)
    assert len(report.components) == 1
    assert report.components[0][1] == 81


def test_sheet_totals_across_grid():
    for sig in hyperbolic_signatures(GridBounds(max_genus=2, max_cones=2, max_multiplicity=5)):
        for r in admissible_root_orders(sig):
            if r ** (2 * sig.genus) > 1 << 14:
                continue
            report = moduli_report(ctx := solve_raymond_vasquez(sig, r))
            assert report.total_sheets() == r ** (2 * sig.genus)
            assert report.context is ctx
            assert report.base_note == BASE_NOTE


def test_report_skips_cross_check_above_cap():
    ctx = solve_raymond_vasquez(OrbifoldSignature(2), 2)
    report = moduli_report(ctx, state_cap=1)  # too small to enumerate, no check
    assert report.total_sheets() == 16
    assert orbits._partition.cache_info().currsize == 0


def _refuse(*args):
    raise AssertionError("a kept census was made again")


@pytest.mark.parametrize("genus, r", [(1, 6), (2, 2), (3, 3), (3, 2)])
def test_each_gr_is_censused_once(monkeypatch, genus, r):
    # the genus-1 sizes, the even-r counts and the odd-r census, each checked by
    # brute force: a second report at (g, r), through another signature, makes
    # neither the closed form nor the comparison again
    first, other = islice(contexts_at(genus, r), 2)
    assert first.signature != other.signature
    report = moduli_report(first)
    for name in ("genus_one_orbit_size", "orbit_count_closed_form", "_self_check"):
        monkeypatch.setattr(moduli, name, _refuse)
    again = moduli_report(other)
    assert again.context is other and again.components == report.components


@pytest.mark.parametrize(
    "genus, r, name, broken, failure",
    [
        (1, 2, "genus_one_orbit_size", lambda r, d: 1, "sheet counts sum to"),
        (2, 2, "orbit_count_closed_form", lambda g, r: (10, 5), "sheet counts sum to"),
        # the census itself holds and is kept; its comparison with (1, 3)'s orbits fails
        (1, 2, "partition_orbits", lambda ctx, cap: partition_orbits(context_for(1, 3)), "census disagrees"),
    ],
)
def test_a_failed_census_is_not_kept(monkeypatch, genus, r, name, broken, failure):
    ctx = next(contexts_at(genus, r))
    with monkeypatch.context() as patch:
        patch.setattr(moduli, name, broken)
        for _ in range(2):
            with pytest.raises((ValueError, RuntimeError), match=failure):
                moduli_report(ctx)
    assert moduli_report(ctx).total_sheets() == r ** (2 * genus)


def test_a_kept_census_still_reads_the_cap():
    ctx = solve_raymond_vasquez(OrbifoldSignature(2), 2)
    report = moduli_report(ctx, state_cap=1)  # kept, but not checked
    assert orbits._partition.cache_info().currsize == 0
    assert moduli_report(ctx) == report  # this call's cap admits the check
    assert orbits._partition.cache_info().currsize == 1
    for cap in (0, -1, 2.5, True):  # and the check is kept, but the cap still read
        with pytest.raises(ValueError, match="state cap"):
            moduli_report(ctx, state_cap=cap)


def test_report_validation():
    ctx = solve_raymond_vasquez(OrbifoldSignature(2), 2)
    with pytest.raises(ValueError):
        ModuliReport(ctx, ((StandardForm("all_zero", 2, 2), 10),))  # sheets missing
    with pytest.raises(ValueError):
        ModuliReport(
            ctx,
            (
                (StandardForm("all_zero", 2, 2), 10),
                (StandardForm("all_zero", 2, 2), 6),
            ),
        )
    forms = (StandardForm("all_zero", 2, 2), StandardForm("last_one", 2, 2))
    for sheets in ((10.0, 6.0), (True, 15)):  # each sums to 16
        with pytest.raises(ValueError, match="sheet count must be an integer"):
            ModuliReport(ctx, tuple(zip(forms, sheets)))
    for labels in (  # each a label of another (g, r), or none
        (StandardForm("genus1", 16, 1, 1),),
        (StandardForm("all_zero", 4, 2), StandardForm("last_one", 4, 2)),
        (StandardForm("all_zero", 2, 3), StandardForm("last_one", 2, 3)),
        ("all_zero", "last_one"),
    ):
        with pytest.raises(ValueError, match="component label .* is not a StandardForm of order 2 and genus 2"):
            ModuliReport(ctx, tuple(zip(labels, (16,) if len(labels) == 1 else (10, 6))))


def test_report_json_and_text():
    report = moduli_report(solve_raymond_vasquez(OrbifoldSignature(1, (3,)), 2))
    data = report.to_json()
    assert data["components"] == [
        {"label": {"kind": "genus1", "d": 1}, "sheets": 3},
        {"label": {"kind": "genus1", "d": 2}, "sheets": 1},
    ]
    assert data["base_note"] == BASE_NOTE
    text = report.render_text()
    assert "component [genus1 d=1]: 3 sheets" in text
    assert "total sheets: 4" in text
