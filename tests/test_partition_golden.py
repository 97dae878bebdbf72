"""Golden orbit partitions: one digest per (g, r, generator set).

For every (g, r) with r^{2g} <= 2^16 (genus 0 up to r = 64; 355 pairs), and
for the seven spaces of the benchmark's ``orbits`` workload ((1, 401),
(1, 720), (2, 18), (2, 21), (2, 31), (3, 7), (3, 8): 1.0e5 to 9.2e5
states, the genus-1 ones partitioned by the breadth-first search), the
sha256 of the partition's ``to_json()``, serialised with sorted keys, is
stored in ``partition_golden.json`` under the unit twists ("unit", from
``partition_orbits``) and under the powers {2, -3} of every unit twist
("powers", from the engines directly, since ``partition_orbits`` acts by
the unit twists alone).  Both sets generate the same group, so each
"powers" digest equals its "unit" digest.  The file also stores the cone
multiplicities of one signature admitting each order, so the test solves
its contexts without a search; a partition reads only (g, r).  A change
that alters a partition on purpose regenerates the file with

    PYTHONPATH=src python tests/test_partition_golden.py

and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from orbispin import OrbifoldSignature, OrbitPartition, TwistGenerator, partition_orbits, solve_raymond_vasquez
from orbispin import orbits
from helpers import _moves, context_for

GOLDEN = Path(__file__).with_name("partition_golden.json")

PAIRS = [(g, r) for g in range(9) for r in range(1, 257) if r ** (2 * g) <= 1 << 16 and (g or r <= 64)]
WORKLOAD_PAIRS = [(1, 401), (1, 720), (2, 18), (2, 21), (2, 31), (3, 7), (3, 8)]


def powers_partition(ctx):
    """The partition under the powers {2, -3} of every unit twist, by the
    engines that take any move set, split as ``partition_orbits`` splits
    genus 1: the tables up to ``_TABLE_CELLS`` cells, else the breadth-first
    search.  (``partition_orbits`` sends genus >= 2 above ``_HANDLE_CELLS``
    handle by handle, an engine that acts by the unit twists alone.)"""
    r, genus = ctx.order, ctx.genus
    moves = _moves([TwistGenerator(g.family, g.index, m)
                    for g in orbits.standard_generators(genus) for m in (2, -3)], r)
    engine = orbits._orbits_by_tables if r ** (2 * genus) * len(moves) <= orbits._TABLE_CELLS else orbits._orbits_by_levels
    return OrbitPartition(r, genus, tuple(engine(r, genus, moves)))


def digests(ctx):
    out = {}
    for name, partition in (("unit", partition_orbits(ctx)), ("powers", powers_partition(ctx))):
        out[name] = hashlib.sha256(json.dumps(partition.to_json(), sort_keys=True).encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["pairs"]


def test_golden_file_covers_exactly_the_pairs(golden):
    assert len(PAIRS) == 355
    assert list(golden) == [f"{g},{r}" for g, r in PAIRS + WORKLOAD_PAIRS]


def test_partitions_match_golden(golden):
    mismatched = []
    for key, entry in golden.items():
        g, r = map(int, key.split(","))
        ctx = solve_raymond_vasquez(OrbifoldSignature(g, tuple(entry["cones"])), r)
        if digests(ctx) != {name: entry[name] for name in ("unit", "powers")}:
            mismatched.append(key)
    assert not mismatched


if __name__ == "__main__":
    pairs = {}
    for g, r in PAIRS + WORKLOAD_PAIRS:
        ctx = context_for(g, r)
        pairs[f"{g},{r}"] = {"cones": list(ctx.signature.cone_multiplicities), **digests(ctx)}
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(entry)}" for key, entry in pairs.items())
    command = json.dumps("PYTHONPATH=src python tests/test_partition_golden.py")
    GOLDEN.write_text(f'{{\n "regenerate": {command},\n "pairs": {{\n{rows}\n }}\n}}\n', encoding="utf-8")
