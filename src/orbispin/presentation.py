"""Structured presentations of the three fundamental groups of a covering.

For a base orbifold of signature (g; alpha_1, ..., alpha_n) the relevant
groups are:

* the orbifold group, on u_i, v_i, q_j with the surface relation
  [u_1,v_1]...[u_g,v_g] q_1...q_n = 1 and torsion q_j^{alpha_j} = 1;
* the fundamental group of the unit tangent bundle, with an extra central
  fibre generator h, surface relation ... = h^{2g-2} and torsion
  q_j^{alpha_j} h^{alpha_j - 1} = 1;
* the fundamental group of an order-r covering determined by a root tuple:
  generated by the decorated elements u_i h^{-s_i}, v_i h^{-t_i},
  q_j h^{-k_j} and h^r, with surface relation ... = (h^r)^b and torsion
  q~_j^{alpha_j} (h^r)^{beta_j} = 1.

Presentations are structured data (generator records carrying the
decoration integers, relation words as exponent sequences); rendering to
UTF-8 text is a separate step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .roots import RootTuple, determined_values
from .seifert import RootContext, unit_tangent_bundle

MODE_ORBIFOLD = "orbifold"
MODE_UNIT_TANGENT = "unit_tangent"
MODE_ROOT = "root"

Word = tuple[tuple[str, int], ...]

_TILDE_NAMES = {"u": "ũ", "v": "ṽ", "q": "q̃", "h": "h̃"}


@dataclass(frozen=True)
class PresentationGenerator:
    """A named generator; ``shift`` is the h-power decoration of the
    covering-group generators (s_i, t_i, k_j, and r for the fibre class),
    None for undecorated generators."""

    name: str
    shift: int | None = None

    def to_json(self) -> dict[str, Any]:
        return {"name": self.name, "shift": self.shift}


@dataclass(frozen=True)
class PresentationRelation:
    """An equation lhs = rhs between words in the generators; the empty
    word is the identity."""

    lhs: Word
    rhs: Word = ()

    def to_json(self) -> dict[str, Any]:
        return {"lhs": [list(f) for f in self.lhs], "rhs": [list(f) for f in self.rhs]}


@dataclass(frozen=True)
class Presentation:
    kind: str
    generators: tuple[PresentationGenerator, ...]
    relations: tuple[PresentationRelation, ...]
    central: tuple[str, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "generators": [g.to_json() for g in self.generators],
            "relations": [rel.to_json() for rel in self.relations],
            "central": list(self.central),
        }

    def render_text(self) -> str:
        decorated = self.kind == MODE_ROOT
        names = ", ".join(_display(g.name, decorated) for g in self.generators)
        lines = [f"generators: {names}"]
        if decorated:
            for g in self.generators:
                if g.name == "h":
                    lines.append(f"  {_display(g.name, True)} := h^{g.shift}")
                elif g.shift:
                    lines.append(f"  {_display(g.name, True)} := {g.name} h^{-g.shift}")
                else:
                    lines.append(f"  {_display(g.name, True)} := {g.name}")
        lines.append("relations:")
        for rel in self.relations:
            lines.append(f"  {_render_word(rel.lhs, decorated)} = {_render_word(rel.rhs, decorated)}")
        for name in self.central:
            lines.append(f"  {_display(name, decorated)} central")
        return "\n".join(lines)


def _display(name: str, decorated: bool) -> str:
    if not decorated:
        return name
    head, tail = name[0], name[1:]
    return _TILDE_NAMES.get(head, head) + tail


def _render_word(word: Word, decorated: bool) -> str:
    if not word:
        return "1"
    parts = []
    for name, exponent in word:
        shown = _display(name, decorated)
        parts.append(shown if exponent == 1 else f"{shown}^{exponent}")
    return " ".join(parts)


def _surface_lhs(genus: int, num_cones: int) -> Word:
    word: list[tuple[str, int]] = []
    for i in range(1, genus + 1):
        word += [(f"u{i}", 1), (f"v{i}", 1), (f"u{i}", -1), (f"v{i}", -1)]
    for j in range(1, num_cones + 1):
        word.append((f"q{j}", 1))
    return tuple(word)


def root_group_presentation(
    ctx: RootContext, root: RootTuple | None = None, mode: str = MODE_ROOT
) -> Presentation:
    """Presentation of the covering group for (ctx, root), or of the base
    orbifold group / unit tangent bundle group via the mode flag."""
    if mode not in (MODE_ORBIFOLD, MODE_UNIT_TANGENT, MODE_ROOT):
        raise ValueError(f"unknown presentation mode {mode!r}")
    sig = ctx.signature
    g, n = sig.genus, sig.num_cone_points
    alphas = sig.cone_multiplicities
    surface = _surface_lhs(g, n)
    q_names = [f"q{j}" for j in range(1, n + 1)]

    names = [f"{x}{i}" for i in range(1, g + 1) for x in "uv"] + q_names
    if mode == MODE_ORBIFOLD:
        gens = [PresentationGenerator(nm) for nm in names]
        rels = [PresentationRelation(surface)]
        rels += [PresentationRelation(((q, a),)) for q, a in zip(q_names, alphas)]
        return Presentation(MODE_ORBIFOLD, tuple(gens), tuple(rels))

    names.append("h")
    if mode == MODE_UNIT_TANGENT:
        covering, shifts = unit_tangent_bundle(sig), [None] * len(names)
    else:
        if root is None:
            raise ValueError("a root tuple is required for the covering-group presentation")
        if root.order != ctx.order or root.genus != g:
            raise ValueError(
                f"root tuple of order {root.order}, genus {root.genus} does not match "
                f"context of order {ctx.order}, genus {g}"
            )
        # s_1, t_1, ..., s_g, t_g decorate u_1, v_1, ..., u_g, v_g in order
        covering, shifts = ctx, [*root.coords, *determined_values(ctx)[1], ctx.order]
    gens = [PresentationGenerator(nm, shift) for nm, shift in zip(names, shifts)]
    b, fibres = covering.invariants.obstruction, covering.invariants.multiple_fibres
    rels = [PresentationRelation(surface, (("h", b),) if b else ())]
    rels += [
        PresentationRelation(((q, a), ("h", beta)))
        for q, (a, beta) in zip(q_names, fibres)
    ]
    return Presentation(mode, tuple(gens), tuple(rels), central=("h",))
