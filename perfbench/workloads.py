"""The four workloads: their inputs, warm-up, one operation, and its check.

Each workload is a closed loop with one caller.  ``setup(seed)`` builds the
inputs from the seed and checks them against ``oracles``; ``warm_up()``
touches only inputs that are not in the timed pass, so a per-(g, r) cache
can gain only from (g, r) values that repeat within the pass; ``run(item)``
is one timed operation; ``check(item, output)`` returns None when the
output is correct, a description when it is wrong, and raises
:class:`OpFailed` when the operation failed.

The library is reached through ``osp.<name>`` at call time, so that spans
installed on the package's attributes see every call, and is imported
inside the functions, so the ``cli`` worker, which only starts children,
never imports it.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from typing import Any, Callable

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# census: the tier-1 grid g <= 3, n <= 3, alpha <= 9, every admissible r
# with r^{2g} <= 2^14 (1,266 contexts over 135 distinct (g, r))
CENSUS_GRID = (3, 3, 9)
CENSUS_STATE_BOUND = 1 << 14

# orbits: one context per (g, r), 10^5 to 10^6 states, even and odd r;
# (2, 31) is the largest and sets peak RSS
ORBIT_ORDERS = ((1, 401), (1, 720), (2, 18), (2, 21), (2, 31), (3, 7), (3, 8))

# witness: every (g, r) slot gets fresh random roots; odd g >= 3 with odd r
# gives witnesses of about 2.5*r letters, genus 2 and 4 stay short
WITNESS_GENERA = (1, 2, 3, 4)
WITNESS_ORDERS = (2, 3, 12, 101, 256, 1001, 4096, 9999, 10000)
WITNESS_ROOTS_PER_SLOT = 15

CLI_SMALL_STATES = 4096
CLI_VERIFY_GRID = "g=1,n=1,alpha=4,r=4"


class OpFailed(Exception):
    """The call did not give the documented result (a CLI exit code)."""


def hyperbolic_signatures(max_genus: int, max_cones: int, max_alpha: int) -> list[tuple[int, tuple[int, ...]]]:
    return [
        (g, alphas)
        for g in range(max_genus + 1)
        for n in range(max_cones + 1)
        for alphas in combinations_with_replacement(range(2, max_alpha + 1), n)
        if oracles.chi(g, alphas) < 0
    ]


def json_label_key(data: dict) -> tuple:
    """A standard form's JSON as an oracle label."""
    return (data["kind"], data["d"]) if data["kind"] == "genus1" else (data["kind"],)


def label_key(form: Any) -> tuple:
    return json_label_key(form.to_json())


def sig_json(genus: int, alphas: tuple[int, ...]) -> str:
    return json.dumps({"genus": genus, "cone_points": list(alphas)})


@dataclass
class Workload:
    setup: Callable[[int], list]
    warm_up: Callable[[], None]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    in_process: bool = True
    describe: Callable[[list], str] = field(default=lambda items: f"{len(items)} operations")


# ---------------------------------------------------------------- census

@dataclass
class CensusItem:
    sig: Any
    r: int
    expected: dict
    sheets: dict


def census_setup(seed: int) -> list[CensusItem]:
    import orbispin as osp

    items = []
    for g, alphas in hyperbolic_signatures(*CENSUS_GRID):
        sig = osp.OrbifoldSignature(g, alphas)
        orders = list(osp.admissible_root_orders(sig))
        if orders != oracles.admissible_orders(g, alphas):
            raise RuntimeError(f"admissible orders of {(g, alphas)} disagree with the search")
        for r in orders:
            if r ** (2 * g) <= CENSUS_STATE_BOUND:
                items.append(CensusItem(sig, r, oracles.covering_data(g, alphas, r), oracles.sheet_counts(g, r)))
    random.Random(seed).shuffle(items)
    return items


def census_warm_up() -> None:
    # (g, r) values outside the grid: genus 4, and genus 1 at r = 129
    import orbispin as osp

    for g, alphas, r in ((4, (), 1), (4, (), 2), (1, (130,), 129)):
        census_run(CensusItem(osp.OrbifoldSignature(g, alphas), r, {}, {}))


def census_run(item: CensusItem):
    import orbispin as osp

    ctx = osp.solve_raymond_vasquez(item.sig, item.r)
    back = osp.recognize_fibre_index(ctx.invariants)
    return ctx, back, osp.moduli_report(ctx)


def census_check(item: CensusItem, out) -> str | None:
    ctx, back, report = out
    if ctx.to_json() != item.expected:
        return f"solve {ctx.to_json()} != {item.expected}"
    if back != ctx:
        return f"recognize gave r={back.order} for r={item.r}"
    sheets = {label_key(label): n for label, n in report.components}
    if len(sheets) != len(report.components):
        return "component labels repeat"
    if sheets != item.sheets:
        return f"sheets {sheets} != {item.sheets}"
    if sum(sheets.values()) != item.r ** (2 * item.sig.genus):
        return "sheet counts do not sum to r^(2g)"
    return None


def census_describe(items: list[CensusItem]) -> str:
    distinct = {(it.sig.genus, it.r) for it in items}
    repeats = 1 - len(distinct) / len(items)
    return (f"{len(items)} contexts over {len(distinct)} distinct (g, r); "
            f"{100 * repeats:.1f}% of contexts repeat an earlier (g, r)")


# ---------------------------------------------------------------- orbits

@dataclass
class OrbitItem:
    ctx: Any
    sheets: dict


def orbit_signatures(g: int, r: int) -> list[tuple[int, ...]]:
    """Cone data admitting order r at genus g; the twist action ignores it."""
    if g == 1:
        return [(k * r + 1,) for k in range(1, 7)]
    return [
        alphas
        for n in range(3)
        for alphas in combinations_with_replacement(range(2, 41), n)
        if oracles.covering_data(g, alphas, r) is not None
    ][:24]


def orbits_setup(seed: int) -> list[OrbitItem]:
    import orbispin as osp

    rng = random.Random(seed)
    items = []
    for g, r in ORBIT_ORDERS:
        alphas = rng.choice(orbit_signatures(g, r))
        ctx = osp.solve_raymond_vasquez(osp.OrbifoldSignature(g, alphas), r)
        if ctx.to_json() != oracles.covering_data(g, alphas, r):
            raise RuntimeError(f"covering data of {(g, alphas, r)} disagrees with the search")
        items.append(OrbitItem(ctx, oracles.sheet_counts(g, r)))
    # ascending state counts, the same in every seed: the heap left by one
    # partition shapes the peak RSS of the next
    return sorted(items, key=lambda it: it.ctx.order ** (2 * it.ctx.genus))


def orbits_warm_up() -> None:
    import orbispin as osp

    for g, alphas, r in ((1, (6,), 5), (2, (), 2), (3, (), 2)):
        osp.partition_orbits(osp.solve_raymond_vasquez(osp.OrbifoldSignature(g, alphas), r))


def orbits_run(item: OrbitItem):
    import orbispin as osp

    return osp.partition_orbits(item.ctx)


def orbits_check(item: OrbitItem, partition) -> str | None:
    r, g = item.ctx.order, item.ctx.genus
    sizes = {label_key(rec.label): rec.size for rec in partition.orbits}
    if len(sizes) != len(partition.orbits):
        return "orbit labels repeat"
    if sum(sizes.values()) != r ** (2 * g):
        return "orbit sizes do not sum to r^(2g)"
    if sizes != item.sheets:
        return f"orbit sizes {sizes} != {item.sheets}"
    for rec in partition.orbits:
        if oracles.orbit_label(rec.representative.coords, r) != label_key(rec.label):
            return f"representative {rec.representative.coords} is not in class {rec.label}"
    return None


# ---------------------------------------------------------------- witness

@dataclass
class WitnessItem:
    root: Any
    label: tuple


def witness_setup(seed: int) -> list[WitnessItem]:
    import orbispin as osp

    rng = random.Random(seed)
    items = []
    for g in WITNESS_GENERA:
        for r in WITNESS_ORDERS:
            for _ in range(WITNESS_ROOTS_PER_SLOT):
                coords = tuple(rng.randrange(r) for _ in range(2 * g))
                items.append(WitnessItem(osp.RootTuple(r, coords), oracles.orbit_label(coords, r)))
    rng.shuffle(items)
    return items


def witness_warm_up() -> None:
    import orbispin as osp

    rng = random.Random(0)
    for g in WITNESS_GENERA:
        for r in (5, 7, 20):
            witness_run(WitnessItem(osp.RootTuple(r, tuple(rng.randrange(r) for _ in range(2 * g))), ()))


def witness_run(item: WitnessItem):
    import orbispin as osp

    form, word = osp.reduce_with_witness(item.root)
    return form, word, osp.apply_word(item.root, word)


def witness_check(item: WitnessItem, out) -> str | None:
    form, word, replayed = out
    r, coords = item.root.order, item.root.coords
    if label_key(form) != item.label:
        return f"form {form} != oracle class {item.label} for {coords} mod {r}"
    target = oracles.canonical_coords(item.label, r, len(coords) // 2)
    letters = [(gen.family, gen.index, gen.power) for gen in word.word]
    if oracles.replay(coords, r, letters) != target:
        return f"witness of {coords} mod {r} does not replay to {target}"
    if replayed.coords != target:
        return f"apply_word gave {replayed.coords}, expected {target}"
    return None


# ---------------------------------------------------------------- cli

@dataclass
class CliItem:
    subcommand: str
    argv: list[str]
    expected_exit: int
    check: Callable[[str, str], str | None]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ORBISPIN_STATE_CAP"}
    env["PYTHONPATH"] = "src"
    return env


def cli_process(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "orbispin.cli", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _expect(actual, expected, what: str) -> str | None:
    return None if actual == expected else f"{what}: {actual!r} != {expected!r}"


def _check_partition(data: dict, g: int, r: int) -> str | None:
    sizes = {json_label_key(o["label"]): o["size"] for o in data["orbits"]}
    if len(sizes) != len(data["orbits"]) or (data["r"], data["g"]) != (r, g):
        return "orbit labels repeat or (r, g) is wrong"
    for o in data["orbits"]:
        if oracles.orbit_label(tuple(o["rep"]), r) != json_label_key(o["label"]):
            return f"representative {o['rep']} is not in class {o['label']}"
    return _expect(sizes, oracles.sheet_counts(g, r), "orbit sizes")


_COMPONENT = re.compile(r"component \[(\w+)(?: d=(\d+))?\]: (\d+) sheets?$")


def _moduli_text(out: str) -> dict:
    sheets = {}
    for line in out.splitlines():
        m = _COMPONENT.search(line)
        if m:
            key = (m.group(1), int(m.group(2))) if m.group(2) else (m.group(1),)
            sheets[key] = int(m.group(3))
    return sheets


def _reduce_check(out: dict, g: int, r: int, coords: tuple[int, ...]) -> str | None:
    label = oracles.orbit_label(coords, r)
    target = oracles.canonical_coords(label, r, g)
    letters = [(x["family"], x["index"], x["power"]) for x in out["witness"]]
    return (_expect(json_label_key(out["form"]), label, "form")
            or _expect(tuple(out["canonical"]), target, "canonical tuple")
            or _expect(oracles.replay(coords, r, letters), target, "oracle replay of the witness")
            or _expect(out["verified"], True, "verified"))


def _reduce_text(out: str) -> dict:
    lines = dict(line.split(": ", 1) for line in out.strip().splitlines())
    kind, _, d = lines["form"].partition(" d=")
    canonical = lines["canonical"]
    return {
        "form": {"kind": kind, "d": int(d)} if d else {"kind": kind},
        "canonical": [] if canonical == "-" else [int(x) for x in canonical.split(",")],
        "witness": json.loads(lines["witness"]),
        "verified": lines["verified"] == "replay reaches the canonical tuple",
    }


def cli_setup(seed: int) -> list[CliItem]:
    """The fixed script: every subcommand in JSON and text, two documented
    error paths, and two invocations that fail today (kept as failed)."""
    rng = random.Random(seed)
    pool = hyperbolic_signatures(2, 3, 9)
    small = [
        (g, alphas, r)
        for g, alphas in pool
        for r in oracles.admissible_orders(g, alphas)
        if r ** (2 * g) <= CLI_SMALL_STATES
    ]
    handles = [c for c in small if c[0] >= 1]

    def tuple_arg(coords):
        return ",".join(map(str, coords)) or "-"

    def both(sub, argv, check_json, check_text):
        return [
            CliItem(sub, argv + ["--json"], 0, lambda out, err: check_json(out)),
            CliItem(sub, argv, 0, lambda out, err: check_text(out)),
        ]

    items: list[CliItem] = []

    g, alphas = rng.choice(pool)
    chi = str(oracles.chi(g, alphas))
    items += both("chi", ["chi", sig_json(g, alphas)],
                  lambda out: _expect(json.loads(out), {"chi": chi}, "chi"),
                  lambda out: _expect(out.strip(), chi, "chi"))

    g, alphas = rng.choice(pool)
    orders = oracles.admissible_orders(g, alphas)
    items += both("roots", ["roots", sig_json(g, alphas)],
                  lambda out: _expect(json.loads(out), {"admissible_orders": orders}, "orders"),
                  lambda out: _expect(out.strip(), " ".join(map(str, orders)), "orders"))

    g, alphas, r = rng.choice(small)
    solved = oracles.covering_data(g, alphas, r)
    items += both("solve", ["solve", sig_json(g, alphas), str(r)],
                  lambda out: _expect(json.loads(out), solved, "covering data"),
                  lambda out: _expect(json.loads(out), solved, "covering data"))

    g, alphas, r = rng.choice(small)
    recognized = oracles.covering_data(g, alphas, r)
    invariants = json.dumps({"genus": g, "b": recognized["b"], "pairs": recognized["pairs"]})
    items += both("recognize", ["recognize", invariants],
                  lambda out: _expect(json.loads(out), recognized, "recognized context"),
                  lambda out: _expect(json.loads(out), recognized, "recognized context"))

    g, alphas, r = rng.choice([c for c in handles if 4 <= c[2] ** (2 * c[0]) <= 256])
    tuples = list(product(range(r), repeat=2 * g))
    items += both("enumerate", ["enumerate", sig_json(g, alphas), str(r)],
                  lambda out: _expect([tuple(json.loads(x)["coords"]) for x in out.splitlines()], tuples, "tuples"),
                  lambda out: _expect(out.splitlines(), [",".join(map(str, t)) for t in tuples], "tuples"))

    g, alphas, r = rng.choice(handles)
    coords = tuple(rng.randrange(r) for _ in range(2 * g))
    letters = [(fam, rng.randint(1, g - 1 if fam == "W" else g), rng.choice((-3, -2, -1, 1, 2, 3)))
               for fam in rng.choices("UVW" if g >= 2 else "UV", k=6)]
    word = json.dumps([{"family": f, "index": i, "power": p} for f, i, p in letters])
    moved = {"r": r, "coords": list(oracles.replay(coords, r, letters))}
    items += both("twist", ["twist", sig_json(g, alphas), str(r), tuple_arg(coords), word],
                  lambda out: _expect(json.loads(out), moved, "twisted tuple"),
                  lambda out: _expect(out.strip(), ",".join(map(str, moved["coords"])), "twisted tuple"))

    g, alphas, r = rng.choice(handles)
    rcoords = tuple(rng.randrange(r) for _ in range(2 * g))
    items += both("reduce", ["reduce", sig_json(g, alphas), str(r), tuple_arg(rcoords)],
                  lambda out, g=g, r=r: _reduce_check(json.loads(out), g, r, rcoords),
                  lambda out, g=g, r=r: _reduce_check(_reduce_text(out), g, r, rcoords))

    g, alphas, r = rng.choice(small)
    items += both("orbits", ["orbits", sig_json(g, alphas), str(r)],
                  lambda out, g=g, r=r: _check_partition(json.loads(out), g, r),
                  lambda out, g=g, r=r: _check_partition(json.loads(out), g, r))

    g, alphas, r = rng.choice(small)
    census = {"context": oracles.covering_data(g, alphas, r), "sheets": oracles.sheet_counts(g, r)}
    items += both(
        "moduli", ["moduli", sig_json(g, alphas), str(r)],
        lambda out: (_expect(json.loads(out)["context"], census["context"], "context")
                     or _expect({json_label_key(c["label"]): c["sheets"] for c in json.loads(out)["components"]},
                                census["sheets"], "sheets")),
        lambda out: _expect(_moduli_text(out), census["sheets"], "sheets"))

    g, alphas, r = rng.choice(small)
    pcoords = tuple(rng.randrange(r) for _ in range(2 * g))
    expected = oracles.presentations(oracles.covering_data(g, alphas, r), pcoords)
    items += both("present", ["present", sig_json(g, alphas), str(r), tuple_arg(pcoords)],
                  lambda out: _expect(json.loads(out), expected, "presentations"),
                  lambda out: _expect([b.split("\n", 1)[0] for b in out.strip().split("\n\n")],
                                      ["[orbifold]", "[unit_tangent]", "[root]"], "presentation blocks"))

    items += both("verify", ["verify", CLI_VERIFY_GRID],
                  lambda out: _expect([r["passed"] for r in json.loads(out)], [True] * 7, "verify results"),
                  lambda out: _expect([line.split()[0] for line in out.splitlines()], ["PASS"] * 7, "verify lines"))

    g, alphas = rng.choice([s for s in pool if any(oracles.covering_data(*s, r) is None for r in range(2, 21))])
    bad = next(r for r in range(2, 21) if oracles.covering_data(g, alphas, r) is None)
    items.append(CliItem("solve", ["solve", sig_json(g, alphas), str(bad)], 1,
                         lambda out, err: _expect(err.split(":", 1)[0], "InadmissibleOrder", "error type")))
    g, alphas, r = rng.choice(handles)
    items.append(CliItem("reduce", ["reduce", sig_json(g, alphas), str(r), ",".join(["0"] * (2 * g + 1))], 2,
                         lambda out, err: _expect(err.split(":", 1)[0], "UsageError", "error type")))

    # documented as usage errors (exit 2); these fail today
    for cones in ("[3.9]", "[null]"):
        items.append(CliItem("chi", ["chi", '{"genus":1,"cone_points":%s}' % cones], 2,
                             lambda out, err: _expect(err.split(":", 1)[0], "UsageError", "error type")))
    return items


def cli_warm_up() -> None:
    cli_process(["chi", sig_json(5, ())])


def cli_run(item: CliItem):
    return cli_process(item.argv)


def cli_check(item: CliItem, out) -> str | None:
    code, stdout, stderr = out
    if code != item.expected_exit:
        raise OpFailed(f"{item.argv} exited {code}, expected {item.expected_exit}")
    return item.check(stdout, stderr)


WORKLOADS = {
    "census": Workload(census_setup, census_warm_up, census_run, census_check, describe=census_describe),
    "orbits": Workload(orbits_setup, orbits_warm_up, orbits_run, orbits_check),
    "witness": Workload(witness_setup, witness_warm_up, witness_run, witness_check),
    "cli": Workload(cli_setup, cli_warm_up, cli_run, cli_check, in_process=False),
}

CLI_SUBCOMMANDS = ("chi", "roots", "solve", "recognize", "enumerate", "twist", "reduce",
                   "orbits", "moduli", "present", "verify")
