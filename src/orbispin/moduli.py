"""Component/sheet census for the moduli space of taut contact circles.

For a Seifert manifold that is an order-r covering of the unit tangent
bundle of a hyperbolic orbifold, the moduli space of taut contact circles is
a (possibly branched) covering of the moduli space of hyperbolic metrics on
the base.  Its connected components correspond to twist orbits of root
tuples and the sheet count of each component is the orbit length, so the
census is purely combinatorial:

    genus 0:            one component, one sheet;
    genus 1:            one component per divisor d of r, with as many
                        sheets as there are pairs generating the ideal (d);
    genus >= 2, r odd:  one component with r^{2g} sheets;
    genus >= 2, r even: two components with r^{2g} (2^g +- 1) / 2^{g+1}
                        sheets.

For genus >= 1, whenever the state space fits under the cap, the report is
verified against the brute-force orbit partition; a mismatch fails loudly.
That self-check reads the process's one partition of (g, r), made by the
first call at that (g, r), so every signature sharing it is checked
against the same partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .orbifold import _trusted, divisors
from .orbits import genus_one_orbit_size, orbit_count_closed_form, partition_orbits
from .roots import DEFAULT_STATE_CAP, _state_cap
from .seifert import RootContext
from .twists import (
    KIND_ALL_ZERO,
    KIND_GENUS0,
    KIND_GENUS1,
    KIND_LAST_ONE,
    StandardForm,
)

BASE_NOTE = (
    "possibly branched covering of the moduli space of hyperbolic metrics "
    "on the base orbifold"
)


@dataclass(frozen=True)
class ModuliReport:
    """Census of connected components and sheet counts for one covering."""

    context: RootContext
    components: tuple[tuple[StandardForm, int], ...]
    base_note = BASE_NOTE

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        total = self.context.order ** (2 * self.context.genus)
        sheets = sum(n for _, n in self.components)
        if sheets != total:
            raise ValueError(f"sheet counts sum to {sheets}, expected r^(2g) = {total}")
        labels = [label for label, _ in self.components]
        if len(set(labels)) != len(labels):
            raise ValueError("component labels must be pairwise distinct")
        for _, n in self.components:
            if n < 1:
                raise ValueError("sheet counts must be positive")

    def total_sheets(self) -> int:
        return sum(n for _, n in self.components)

    def to_json(self) -> dict[str, Any]:
        return {
            "context": self.context.to_json(),
            "components": [
                {"label": label.to_json(), "sheets": n} for label, n in self.components
            ],
            "base_note": self.base_note,
        }

    def render_text(self) -> str:
        sig = self.context.signature
        lines = [
            f"moduli census for signature {sig.to_json()} at fibre index r = {self.context.order}:"
        ]
        for label, n in self.components:
            lines.append(f"  component [{label.render_text()}]: {n} sheet{'s' if n != 1 else ''}")
        lines.append(f"  total sheets: {self.total_sheets()} = r^(2g)")
        lines.append(f"  base: {self.base_note}")
        return "\n".join(lines)


def moduli_report(ctx: RootContext, state_cap: int | None = DEFAULT_STATE_CAP) -> ModuliReport:
    """Assemble the component/sheet census for a covering datum.

    When g >= 1 and r^{2g} does not exceed ``state_cap`` the census is checked
    against the brute-force orbit partition; a mismatch raises RuntimeError.
    ``state_cap=None`` gives the closed form alone, with no self-check.
    """
    r, g = ctx.order, ctx.genus
    total = r ** (2 * g)
    components: list[tuple[StandardForm, int]]
    if g == 0:
        components = [(_trusted(StandardForm, kind=KIND_GENUS0, order=r, genus=0, d=None), 1)]
    elif g == 1:
        components = [
            (_trusted(StandardForm, kind=KIND_GENUS1, order=r, genus=1, d=d), genus_one_orbit_size(r, d))
            for d in divisors(r)
        ]
    elif r % 2 == 1:
        components = [(_trusted(StandardForm, kind=KIND_ALL_ZERO, order=r, genus=g, d=None), total)]
    else:
        counts = orbit_count_closed_form(g, r)  # indexed by parity: (even, odd)
        forms = [_trusted(StandardForm, kind=k, order=r, genus=g, d=None)
                 for k in (KIND_ALL_ZERO, KIND_LAST_ONE)]
        components = [(form, counts[form.invariant]) for form in forms]
    report = ModuliReport(ctx, tuple(components))
    # the cap is read at genus 0 too, where one state needs no search
    if state_cap is not None and total <= _state_cap(state_cap) and g:
        partition = partition_orbits(ctx, cap=state_cap)
        expected = {label: n for label, n in report.components}
        observed = {rec.label: rec.size for rec in partition.orbits}
        if expected != observed:
            raise RuntimeError(
                f"census disagrees with brute-force orbits: {expected} vs {observed}"
            )
    return report
