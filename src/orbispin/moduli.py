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
Like the partition, the census depends only on (g, r), never on the cone
data, so it is made at most once per (g, r) and process, keyed on (r, g)
alone: the closed form with its checks on the first report at (g, r), and
the self-check, against the process's one partition of (g, r), on the
first report there whose cap admits r^{2g} states.  Every call still reads
its own cap, so whether a report is checked stays a fact of that call.  A
census or self-check that raises keeps nothing, so the next call at its
(g, r) raises again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Any

from .orbifold import _trusted, divisors
from .orbits import (
    Components, _components, genus_one_orbit_size, orbit_count_closed_form, partition_orbits,
)
from .roots import DEFAULT_STATE_CAP, _within_cap
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
    components: Components
    base_note = BASE_NOTE

    def __post_init__(self) -> None:
        components = _components(
            self.components, self.context.order, self.context.genus, "component", "sheet count"
        )
        object.__setattr__(self, "components", components)

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


@cache
def _census(r: int, g: int) -> Components:
    """The closed-form census of Z_r^{2g}, checked by ``_components``; made
    once per (g, r) and process, and a census that raises keeps nothing."""
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
    return _components(components, r, g, "component", "sheet count")


def _self_check(ctx: RootContext, components: Components, cap: int) -> None:
    """RuntimeError unless ``components`` match the orbits of the brute-force
    partition at ctx's (g, r)."""
    expected = dict(components)
    observed = {rec.label: rec.size for rec in partition_orbits(ctx, cap=cap).orbits}
    if expected != observed:
        raise RuntimeError(
            f"census disagrees with brute-force orbits: {expected} vs {observed}"
        )


# the (r, g) whose census passed its self-check in this process
_CHECKED: set[tuple[int, int]] = set()


def moduli_report(ctx: RootContext, state_cap: int | None = DEFAULT_STATE_CAP) -> ModuliReport:
    """Assemble the component/sheet census for a covering datum.

    When g >= 1 and r^{2g} does not exceed ``state_cap`` the census is checked
    against the brute-force orbit partition; a mismatch raises RuntimeError.
    ``state_cap=None`` gives the closed form alone, with no self-check.
    """
    r, g = ctx.order, ctx.genus
    components = _census(r, g)
    # the cap is read on every call, at genus 0 too, where one state needs no search
    if state_cap is not None and _within_cap(r, g, state_cap) and g and (r, g) not in _CHECKED:
        _self_check(ctx, components, state_cap)
        _CHECKED.add((r, g))
    return _trusted(ModuliReport, context=ctx, components=components)
