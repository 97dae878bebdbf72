"""Golden CLI outputs: exit code, stdout digest and stderr per call.

Each call runs ``orbispin.cli.main`` in process and is compared with the
record stored in ``cli_golden.json``: the exit code, the sha256 of stdout,
the text of stderr before its first colon (the error type, or "" when
stderr is empty) and the sha256 of the whole of stderr.  The calls cover
every subcommand in text and --json, the exit 1, 2 and 3 paths, argparse's
own errors, and the benchmark's ``cli`` script for three seeds, so any
change to what the CLI prints shows up here.  A change that alters the
output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and says why.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from orbispin.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SIG_237 = '{"genus":0,"cone_points":[2,3,7]}'
SIG_G1C3 = '{"genus":1,"cone_points":[3]}'
SIG_G2 = '{"genus":2,"cone_points":[]}'
SIG_G2C3 = '{"genus":2,"cone_points":[3]}'
WORD = '[{"family":"U","index":1,"power":2},{"family":"W","index":1,"power":-3},{"family":"V","index":2,"power":1}]'

CALLS = {
    "chi": ["chi", SIG_237],
    "chi-json": ["chi", SIG_G2, "--json"],
    "chi-float-cone": ["chi", '{"genus":1,"cone_points":[3.9]}'],
    "chi-null-cone": ["chi", '{"genus":1,"cone_points":[null]}'],
    "roots": ["roots", SIG_G2C3],
    "roots-json": ["roots", SIG_G2, "--json"],
    "roots-not-hyperbolic": ["roots", '{"genus":1,"cone_points":[]}'],
    "solve": ["solve", SIG_G1C3, "2"],
    "solve-json": ["solve", SIG_G2C3, "4", "--json"],
    "solve-inadmissible": ["solve", SIG_G1C3, "5"],
    "recognize": ["recognize", '{"genus":2,"b":0,"pairs":[[3,2]]}'],
    "recognize-json": ["recognize", '{"genus":1,"b":0,"pairs":[[3,1]]}', "--json"],
    "recognize-fibre-fails": ["recognize", '{"genus":1,"b":-1,"pairs":[[2,1],[6,4]]}'],
    "recognize-ratio-fails": ["recognize", '{"genus":2,"b":1,"pairs":[[3,2]]}'],
    "recognize-bad-pairs": ["recognize", '{"genus":1,"b":0,"pairs":[5]}'],
    "enumerate": ["enumerate", SIG_G1C3, "2"],
    "enumerate-json": ["enumerate", SIG_G2, "2", "--json"],
    "enumerate-over-cap": ["enumerate", SIG_G2, "2", "--cap", "15"],
    "twist": ["twist", SIG_G2C3, "4", "1,2,3,0", WORD],
    "twist-json": ["twist", SIG_G2C3, "8", "5,2,7,1", WORD, "--json"],
    "reduce": ["reduce", SIG_G2C3, "8", "3,5,6,1"],
    "reduce-json": ["reduce", SIG_G1C3, "2", "1,1", "--json"],
    "reduce-wrong-length": ["reduce", SIG_G2, "2", "0,0,0,0,0"],
    "orbits": ["orbits", SIG_G2, "2"],
    "orbits-json": ["orbits", '{"genus":1,"cone_points":[7]}', "6", "--json"],
    "orbits-over-cap": ["orbits", SIG_G2C3, "4", "--cap", "255"],
    "orbits-zero-cap": ["orbits", SIG_G2, "2", "--cap", "0"],
    "moduli": ["moduli", SIG_G2C3, "4"],
    "moduli-json": ["moduli", '{"genus":1,"cone_points":[7]}', "6", "--json"],
    "present": ["present", SIG_G2C3, "4", "1,2,3,0"],
    "present-json": ["present", SIG_G1C3, "2", "1,0", "--json"],
    "present-unit-tangent-json": ["present", SIG_G2C3, "8", "0,0,0,1", "--mode", "unit-tangent", "--json"],
    "verify": ["verify", "g=1,n=1,alpha=4,r=4"],
    "verify-json": ["verify", "g=1,n=1,alpha=4,r=4", "--json"],
    "verify-bad-grid": ["verify", "g=1,x=2"],
    "verify-wide": ["verify", "g=2,n=2,alpha=6,r=24"],
    "verify-wide-json": ["verify", "g=2,n=2,alpha=6,r=24", "--json"],
    "solve-zero-order": ["solve", SIG_G1C3, "0"],
    "chi-missing-argument": ["chi"],
    "unknown-command": ["bogus"],
    "cap-not-an-integer": ["orbits", SIG_G2, "2", "--cap", "1e3"],
    "chi-unknown-key": ["chi", '{"genus":2,"cone_points":[3],"extra":1}'],
    "twist-unknown-letter-key": ["twist", SIG_G2C3, "4", "1,2,3,0", '[{"family":"U","index":1,"power":2,"x":0}]'],
    "recognize-unknown-key": ["recognize", '{"genus":2,"b":0,"pairs":[[3,2]],"junk":1}'],
    "enumerate-genus-zero": ["enumerate", SIG_237, "1"],
    "enumerate-genus-zero-json": ["enumerate", SIG_237, "1", "--json"],
    "solve-arabic-indic-order": ["solve", SIG_G2, "٢"],
    "solve-underscore-order": ["solve", '{"genus":1,"cone_points":[11]}', "1_0"],
    "reduce-underscore-entry": ["reduce", SIG_G1C3, "2", "1_1,+1"],
    "cap-underscore": ["orbits", SIG_G2, "2", "--cap", "1_0"],
    "verify-underscore-order": ["verify", "g=1,n=1,alpha=4,r=1_2"],
    "verify-underscore-seed": ["verify", "g=1,n=1,alpha=4,r=4", "--seed", "1_0"],
}


def _benchmark_calls(seeds=(1, 7, 12)) -> dict[str, list[str]]:
    """The argv of every call in the benchmark's ``cli`` script for ``seeds``."""
    sys.path.insert(0, str(PERFBENCH))  # workloads imports its sibling oracles
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return {
        f"cli-seed{seed}-{i:02d}-{item.subcommand}": item.argv
        for seed in seeds
        for i, item in enumerate(workloads.cli_setup(seed))
    }


CALLS.update(_benchmark_calls())


def record(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_type": err.getvalue().split(":", 1)[0],
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CALLS)
def test_cli_call_matches_golden(name, golden):
    assert record(CALLS[name]) == golden[name]


def test_golden_file_covers_exactly_the_calls(golden):
    assert set(golden) == set(CALLS)


if __name__ == "__main__":
    records = {name: record(argv) for name, argv in CALLS.items()}
    GOLDEN.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
