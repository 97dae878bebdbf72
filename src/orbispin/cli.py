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
import re
import reprlib
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
        try:
            with open(arg[1:], encoding="utf-8") as fh:
                return fh.read()
        except OSError as err:  # its message quotes the whole path
            raise ValueError(str(err).replace(repr(err.filename), reprlib.repr(err.filename))) from None
    return arg


def _load_json(arg: str) -> Any:
    """Nesting too deep to parse is a usage error, not json's RecursionError (a RuntimeError)."""
    text = _load_text(arg)
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _integer(text: str) -> int:
    """ASCII digits, an optional sign and spaces; int() also reads "1_0" and other scripts' digits.

    Errors are ArgumentTypeError, whose message argparse keeps for --cap and --seed."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", text, re.ASCII):
        raise argparse.ArgumentTypeError(f"invalid int value: {reprlib.repr(text)}")
    try:
        return int(text)
    except ValueError as err:  # more digits than sys.get_int_max_str_digits()
        raise argparse.ArgumentTypeError(str(err)) from None


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


def _root_text(root: RootTuple) -> str:
    """Residues joined by commas, "-" for genus 0, as ``_parse_root`` reads them."""
    return ",".join(map(str, root.coords)) or "-"


def _parse_word(arg: str) -> TwistWord:
    return TwistWord.from_json(_load_json(arg))


def _emit(args: argparse.Namespace, payload: Any, text: str | None = None) -> None:
    """One JSON line under --json, else ``text``, else the payload as indented JSON."""
    if args.json:
        print(json.dumps(payload, ensure_ascii=False))
    elif text is None:
        print(json.dumps(payload, ensure_ascii=False, indent=2))
    else:
        print(text)


def _context(args: argparse.Namespace) -> RootContext:
    sig = _parse_signature(args.signature)
    return solve_raymond_vasquez(sig, _integer(args.order))


def _cmd_chi(args: argparse.Namespace) -> None:
    value = chi_orb(_parse_signature(args.signature))
    _emit(args, {"chi": str(value)}, str(value))


def _cmd_roots(args: argparse.Namespace) -> None:
    orders = admissible_root_orders(_parse_signature(args.signature))
    _emit(args, {"admissible_orders": list(orders)}, " ".join(map(str, orders)))


def _cmd_solve(args: argparse.Namespace) -> None:
    ctx = _context(args)
    _emit(args, ctx.to_json())


def _cmd_recognize(args: argparse.Namespace) -> None:
    inv = SeifertInvariants.from_json(_load_json(args.invariants))
    ctx = recognize_fibre_index(inv)
    _emit(args, ctx.to_json())


def _cmd_enumerate(args: argparse.Namespace) -> None:
    ctx = _context(args)
    for root in enumerate_roots(ctx, cap=args.cap):
        _emit(args, root.to_json(), _root_text(root))


def _cmd_twist(args: argparse.Namespace) -> None:
    ctx = _context(args)
    root = _parse_root(args.tuple, ctx)
    moved = apply_word(root, _parse_word(args.word))
    _emit(args, moved.to_json(), _root_text(moved))


def _cmd_reduce(args: argparse.Namespace) -> None:
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
    text = "\n".join(
        [
            f"form: {form.render_text()}",
            f"canonical: {_root_text(form.canonical_root())}",
            f"witness: {json.dumps(witness.to_json())}",
            "verified: replay reaches the canonical tuple",
        ]
    )
    _emit(args, payload, text)


def _cmd_orbits(args: argparse.Namespace) -> None:
    partition = partition_orbits(_context(args), cap=args.cap)
    _emit(args, partition.to_json())


def _cmd_moduli(args: argparse.Namespace) -> None:
    report = moduli_report(_context(args), state_cap=args.cap)
    _emit(args, report.to_json(), report.render_text())


_PRESENT_MODES = {
    "orbifold": MODE_ORBIFOLD,
    "unit-tangent": MODE_UNIT_TANGENT,
    "root": MODE_ROOT,
}


def _cmd_present(args: argparse.Namespace) -> None:
    ctx = _context(args)
    root = _parse_root(args.tuple, ctx)
    modes = list(_PRESENT_MODES.values()) if args.mode == "all" else [_PRESENT_MODES[args.mode]]
    presentations = [root_group_presentation(ctx, root, mode=m) for m in modes]
    blocks = [f"[{p.kind}]\n{p.render_text()}" for p in presentations]
    _emit(args, [p.to_json() for p in presentations], "\n\n".join(blocks))


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
                f"bad grid component {reprlib.repr(item)}; expected each of g=..,n=..,alpha=..,r=.. at most once"
            )
        values[keys[key]] = _integer(value)
    return GridBounds(**values)


def _cmd_verify(args: argparse.Namespace) -> int | None:
    results = run_suite(_parse_bounds(args.grid), seed=args.seed, state_cap=args.cap)
    lines = [f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}" for res in results]
    _emit(args, [r.__dict__ for r in results], "\n".join(lines))
    if not all(r.passed for r in results):
        return 1


# name: (handler, help, positional arguments), in the order --help lists them;
# every subcommand takes --json, and the ones in _CAPPED also take --cap
_COMMANDS = {
    "chi": (_cmd_chi, "orbifold Euler characteristic of a signature", "signature"),
    "roots": (_cmd_roots, "all covering orders admitting a root", "signature"),
    "solve": (_cmd_solve, "Seifert data of the order-r covering", "signature order"),
    "recognize": (_cmd_recognize, "recover the fibre index from Seifert invariants", "invariants"),
    "enumerate": (_cmd_enumerate, "stream all root tuples in lexicographic order", "signature order"),
    "twist": (_cmd_twist, "apply a twist word to a root tuple", "signature order tuple word"),
    "reduce": (_cmd_reduce, "canonical form plus a replay-verified witness word", "signature order tuple"),
    "orbits": (_cmd_orbits, "brute-force orbit partition of all root tuples", "signature order"),
    "moduli": (_cmd_moduli, "component/sheet census of the moduli space", "signature order"),
    "present": (_cmd_present, "group presentations for a root", "signature order tuple"),
    "verify": (_cmd_verify, "closed-form vs brute-force cross-check table", "grid"),
}

# the subcommands that read the state cap: they enumerate, search or self-check
_CAPPED = ("enumerate", "orbits", "moduli", "verify")


# what argparse quotes whole of outside input: unrecognised arguments and an
# ambiguous option bare, other values as repr() quotes a str
_OUTSIDE = re.compile(r"(?<=^unrecognized arguments: ).+|(?<=^ambiguous option: ).+(?= could match )"
                      r"|'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"", re.S)


def _cut(text: str, head: int = 13, tail: int = 14) -> str:
    """``text``, unprintable characters escaped as by repr, cut as reprlib.repr cuts a repr to 30 characters."""
    if not text.isprintable():
        text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)
    return text if len(text) <= head + 3 + tail else f"{text[:head]}...{text[-tail:]}"


class _Parser(argparse.ArgumentParser):
    """Argument errors reach ``main`` as ValueError: one UsageError line, exit 2,
    with each outside value escaped and a long one cut short."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(_OUTSIDE.sub(lambda value: _cut(value[0]), message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbispin",
        description="Roots of unit tangent bundles of hyperbolic 2-orbifolds: "
        "existence, enumeration, canonical forms, and the moduli census.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.register("type", int, _integer)  # reads --cap and --seed; errors still say "int"
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if name in _CAPPED:
            p.add_argument(
                "--cap",
                type=int,
                default=DEFAULT_STATE_CAP,
                help="positive state cap for enumerations, orbit searches and the moduli self-check, "
                f"which also bounds their memory (default: {DEFAULT_STATE_CAP})",
            )
        for arg in positionals.split():
            p.add_argument(arg, help="bounds like g=2,n=2,alpha=6,r=24" if arg == "grid" else None)

    sub.choices["present"].add_argument("--mode", choices=[*_PRESENT_MODES, "all"], default="all")
    sub.choices["verify"].add_argument(
        "--seed", type=int, default=0, help="seed for the randomized witness check"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "cap" in args and args.cap < 1:  # the _CAPPED subcommands alone take a state cap
            raise ValueError(f"the state cap must be positive, got {args.cap}")
        return args.func(args) or 0  # a handler returns nothing on success
    except CountOverflow as err:
        print(f"CountOverflow: {err}", file=sys.stderr)
        return 3
    except OrbispinError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1
    except (ValueError, argparse.ArgumentTypeError, OSError) as err:
        print(f"UsageError: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"InvariantError: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
