import pytest

from orbispin import (
    BASE_NOTE,
    ModuliReport,
    OrbifoldSignature,
    StandardForm,
    admissible_root_orders,
    divisors,
    moduli_report,
    solve_raymond_vasquez,
)
from orbispin.verification import GridBounds, hyperbolic_signatures
from helpers import genus_one_signature


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
