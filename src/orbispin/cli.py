"""Command-line front end.

Subcommands mirror the library: exact Euler characteristics, admissible
covering orders, solved covering data, fibre-index recognition, root
enumeration, the twist action with canonical forms and self-verifying
witnesses, orbit partitions, the component/sheet census, group
presentations, and a cross-check suite.

Signatures and other structured inputs are JSON, inline or via @file;
root tuples are comma-separated residues ("-" or "" for genus 0).  Output
is text by default, JSON with --json.  Exit codes: 0 success, 1 domain
errors, 2 usage errors, 3 state-cap overflows, 4 a failed internal
invariant (a census or witness mismatch, which is a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any, NoReturn

from .errors import CountOverflow, OrbispinError
from .moduli import moduli_report
from .orbifold import OrbifoldSignature, admissible_root_orders, chi_orb
from .orbits import partition_orbits
from .presentation import (
    MODE_ORBIFOLD,
    MODE_ROOT,
    MODE_UNIT_TANGENT,
    root_group_presentation,
)
from .roots import DEFAULT_STATE_CAP, RootTuple, enumerate_roots
from .seifert import (
    RootContext,
    SeifertInvariants,
    recognize_fibre_index,
    solve_raymond_vasquez,
)
from .twists import TwistWord, apply_word, reduce_with_witness
from .verification import GridBounds, run_suite


def _load_text(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as fh:
            return fh.read()
    return arg


def _load_json(arg: str) -> Any:
    """Nesting too deep to parse is a usage error, not json's RecursionError (a RuntimeError)."""
    text = _load_text(arg)
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _integer(text: str) -> int:
    """ASCII digits, an optional sign and spaces; int() also reads "1_0" and other scripts' digits."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _parse_signature(arg: str) -> OrbifoldSignature:
    return OrbifoldSignature.from_json(_load_json(arg))


def _parse_root(arg: str, ctx: RootContext) -> RootTuple:
    text = _load_text(arg).strip()
    coords = () if text in ("", "-") else tuple(_integer(p) for p in text.split(","))
    if len(coords) != 2 * ctx.genus:
        raise ValueError(
            f"expected {2 * ctx.genus} comma-separated residues, got {len(coords)}"
        )
    return RootTuple(ctx.order, coords)


def _parse_word(arg: str) -> TwistWord:
    return TwistWord.from_json(_load_json(arg))


def _emit(args: argparse.Namespace, payload: Any, text: str) -> None:
    if args.json:
        print(json.dumps(payload, ensure_ascii=False))
    else:
        print(text)


def _context(args: argparse.Namespace) -> RootContext:
    sig = _parse_signature(args.signature)
    return solve_raymond_vasquez(sig, _integer(args.order))


def _cmd_chi(args: argparse.Namespace) -> int:
    value = chi_orb(_parse_signature(args.signature))
    _emit(args, {"chi": str(value)}, str(value))
    return 0


def _cmd_roots(args: argparse.Namespace) -> int:
    orders = admissible_root_orders(_parse_signature(args.signature))
    _emit(args, {"admissible_orders": list(orders)}, " ".join(map(str, orders)))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    ctx = _context(args)
    _emit(args, ctx.to_json(), json.dumps(ctx.to_json(), ensure_ascii=False, indent=2))
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    inv = SeifertInvariants.from_json(_load_json(args.invariants))
    ctx = recognize_fibre_index(inv)
    _emit(args, ctx.to_json(), json.dumps(ctx.to_json(), ensure_ascii=False, indent=2))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    ctx = _context(args)
    for root in enumerate_roots(ctx, cap=args.cap):
        if args.json:
            print(json.dumps(root.to_json()))
        else:
            print(",".join(map(str, root.coords)) or "-")
    return 0


def _cmd_twist(args: argparse.Namespace) -> int:
    ctx = _context(args)
    root = _parse_root(args.tuple, ctx)
    moved = apply_word(root, _parse_word(args.word))
    _emit(args, moved.to_json(), ",".join(map(str, moved.coords)))
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    ctx = _context(args)
    root = _parse_root(args.tuple, ctx)
    form, witness = reduce_with_witness(root)
    if apply_word(root, witness) != form.canonical_root():
        raise RuntimeError("witness does not reach the canonical tuple")
    payload = {
        "form": form.to_json(),
        "canonical": list(form.canonical_coords()),
        "witness": witness.to_json(),
        "verified": True,
    }
    tag = form.kind if form.d is None else f"{form.kind} d={form.d}"
    text = "\n".join(
        [
            f"form: {tag}",
            f"canonical: {','.join(map(str, form.canonical_coords())) or '-'}",
            f"witness: {json.dumps(witness.to_json())}",
            "verified: replay reaches the canonical tuple",
        ]
    )
    _emit(args, payload, text)
    return 0


def _cmd_orbits(args: argparse.Namespace) -> int:
    partition = partition_orbits(_context(args), cap=args.cap)
    data = partition.to_json()
    _emit(args, data, json.dumps(data, ensure_ascii=False, indent=2))
    return 0


def _cmd_moduli(args: argparse.Namespace) -> int:
    report = moduli_report(_context(args), state_cap=args.cap)
    _emit(args, report.to_json(), report.render_text())
    return 0


_PRESENT_MODES = {
    "orbifold": MODE_ORBIFOLD,
    "unit-tangent": MODE_UNIT_TANGENT,
    "root": MODE_ROOT,
}


def _cmd_present(args: argparse.Namespace) -> int:
    ctx = _context(args)
    root = _parse_root(args.tuple, ctx)
    modes = list(_PRESENT_MODES.values()) if args.mode == "all" else [_PRESENT_MODES[args.mode]]
    presentations = [root_group_presentation(ctx, root, mode=m) for m in modes]
    if args.json:
        print(json.dumps([p.to_json() for p in presentations], ensure_ascii=False))
    else:
        blocks = [f"[{p.kind}]\n{p.render_text()}" for p in presentations]
        print("\n\n".join(blocks))
    return 0


def _parse_bounds(arg: str) -> GridBounds:
    keys = {"g": "max_genus", "n": "max_cones", "alpha": "max_multiplicity", "r": "max_order"}
    values: dict[str, int] = {}
    for item in arg.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        if key not in keys or not value or keys[key] in values:
            raise ValueError(
                f"bad grid component {item!r}; expected each of g=..,n=..,alpha=..,r=.. at most once"
            )
        values[keys[key]] = _integer(value)
    return GridBounds(**values)


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(_parse_bounds(args.grid), seed=args.seed, state_cap=args.cap)
    if args.json:
        print(json.dumps([r.__dict__ for r in results], ensure_ascii=False))
    else:
        for res in results:
            print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Argument errors reach ``main`` as ValueError: one UsageError line, exit 2."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text")
    common.add_argument(
        "--cap",
        type=int,
        help="positive state cap for enumerations, orbit searches and the moduli self-check, "
        f"which also bounds their memory (default: $ORBISPIN_STATE_CAP, else {DEFAULT_STATE_CAP})",
    )

    parser = _Parser(
        prog="orbispin",
        description="Roots of unit tangent bundles of hyperbolic 2-orbifolds: "
        "existence, enumeration, canonical forms, and the moduli census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.register("type", int, _integer)  # reads --cap and --seed; errors still say "int"
        p.set_defaults(func=func)
        return p

    p = add("chi", _cmd_chi, "orbifold Euler characteristic of a signature")
    p.add_argument("signature")

    p = add("roots", _cmd_roots, "all covering orders admitting a root")
    p.add_argument("signature")

    p = add("solve", _cmd_solve, "Seifert data of the order-r covering")
    p.add_argument("signature")
    p.add_argument("order")

    p = add("recognize", _cmd_recognize, "recover the fibre index from Seifert invariants")
    p.add_argument("invariants")

    p = add("enumerate", _cmd_enumerate, "stream all root tuples in lexicographic order")
    p.add_argument("signature")
    p.add_argument("order")

    p = add("twist", _cmd_twist, "apply a twist word to a root tuple")
    p.add_argument("signature")
    p.add_argument("order")
    p.add_argument("tuple")
    p.add_argument("word")

    p = add("reduce", _cmd_reduce, "canonical form plus a replay-verified witness word")
    p.add_argument("signature")
    p.add_argument("order")
    p.add_argument("tuple")

    p = add("orbits", _cmd_orbits, "brute-force orbit partition of all root tuples")
    p.add_argument("signature")
    p.add_argument("order")

    p = add("moduli", _cmd_moduli, "component/sheet census of the moduli space")
    p.add_argument("signature")
    p.add_argument("order")

    p = add("present", _cmd_present, "group presentations for a root")
    p.add_argument("signature")
    p.add_argument("order")
    p.add_argument("tuple")
    p.add_argument(
        "--mode", choices=["orbifold", "unit-tangent", "root", "all"], default="all"
    )

    p = add("verify", _cmd_verify, "closed-form vs brute-force cross-check table")
    p.add_argument("grid", help="bounds like g=2,n=2,alpha=6,r=24")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized witness check")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.cap is None:
            args.cap = _integer(os.environ.get("ORBISPIN_STATE_CAP", str(DEFAULT_STATE_CAP)))
        if args.cap < 1:
            raise ValueError(f"the state cap must be positive, got {args.cap}")
        return args.func(args)
    except CountOverflow as err:
        print(f"CountOverflow: {err}", file=sys.stderr)
        return 3
    except OrbispinError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        print(f"UsageError: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"InvariantError: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
