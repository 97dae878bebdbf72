import argparse
import json
import os
import re
import reprlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import orbispin
from orbispin import RootContext, RootTuple, TwistWord
from orbispin.cli import build_parser, main

SIG_237 = '{"genus":0,"cone_points":[2,3,7]}'
SIG_G1C3 = '{"genus":1,"cone_points":[3]}'
SIG_G2 = '{"genus":2,"cone_points":[]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_text_output(capsys):
    code, out, _ = run(capsys, "chi", SIG_237)
    assert code == 0
    assert out.strip() == "-1/42"


def test_chi_json_output(capsys):
    code, out, _ = run(capsys, "chi", SIG_G2, "--json")
    assert code == 0
    assert json.loads(out) == {"chi": "-2"}


def test_roots_listing(capsys):
    code, out, _ = run(capsys, "roots", SIG_G2)
    assert code == 0
    assert out.split() == ["1", "2"]


def test_solve_inadmissible_order_exits_one(capsys):
    code, out, err = run(capsys, "solve", SIG_G1C3, "5")
    assert code == 1
    assert err.startswith("InadmissibleOrder:")
    assert out == ""


def test_not_hyperbolic_exits_one(capsys):
    code, _, err = run(capsys, "chi", SIG_237)  # chi itself never fails
    assert code == 0
    code, _, err = run(capsys, "roots", '{"genus":1,"cone_points":[]}')
    assert code == 1
    assert err.startswith("NotHyperbolic:")


def test_solve_outputs_context_json(capsys):
    code, out, _ = run(capsys, "solve", SIG_G1C3, "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["b"] == 0 and data["pairs"] == [[3, 1]] and data["k"] == [0]
    assert data["euler_number"] == "-1/3"


def test_recognize_round_trip(capsys):
    code, out, _ = run(capsys, "recognize", '{"genus":2,"b":1,"pairs":[[3,1]]}', "--json")
    assert code == 0
    assert json.loads(out)["r"] == 2

    code, _, err = run(capsys, "recognize", '{"genus":2,"b":0,"pairs":[]}')
    assert code == 1
    assert err.startswith("NotSL2Quotient:")


def test_recognize_failed_fibre_relation_exits_one(capsys):
    # chi/e = 8, and fibre (2, 1) fails its covering relation at r = 8
    code, out, err = run(capsys, "recognize", '{"genus":1,"b":-1,"pairs":[[2,1],[6,4]]}')
    assert code == 1
    assert err.startswith("NotSL2Quotient:")
    assert out == ""


def test_enumerate_streams_tuples(capsys):
    code, out, _ = run(capsys, "enumerate", SIG_G1C3, "2")
    assert code == 0
    assert out.splitlines() == ["0,0", "0,1", "1,0", "1,1"]


def test_enumerate_prints_the_genus_zero_tuple_as_a_dash(capsys):
    # the empty tuple is written "-", as reduce prints it and the tuple parser reads it
    code, out, _ = run(capsys, "enumerate", SIG_237, "1")
    assert (code, out) == (0, "-\n")
    code, out, _ = run(capsys, "reduce", SIG_237, "1", out.strip())
    assert code == 0 and "canonical: -" in out


def test_twist_prints_the_genus_zero_tuple_as_a_dash(capsys):
    code, out, _ = run(capsys, "twist", SIG_237, "1", "-", "[]")
    assert (code, out) == (0, "-\n")


@pytest.mark.parametrize("argv, unknown", [
    (["chi", '{"genus":2,"cone_points":[3],"extra":1}'], "'extra'"),
    (["twist", '{"genus":2,"cone_points":[3]}', "4", "1,2,3,0", '[{"family":"U","index":1,"power":2,"x":0}]'], "'x'"),
    (["recognize", '{"genus":2,"b":0,"pairs":[[3,2]],"junk":1}'], "'junk'"),
])
def test_unknown_json_keys_are_usage_errors(capsys, argv, unknown):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("UsageError:") and err.strip().endswith(f"unknown keys: {unknown}")


def test_enumerate_overflow_exits_three(capsys):
    code, _, err = run(capsys, "enumerate", SIG_G2, "2", "--cap", "5")
    assert code == 3
    assert err.startswith("CountOverflow:")


def test_twist_applies_word(capsys):
    word = '[{"family":"V","index":1,"power":1}]'
    code, out, _ = run(capsys, "twist", SIG_G1C3, "2", "0,1", word)
    assert code == 0
    assert out.strip() == "1,1"


def test_reduce_is_self_verifying(capsys):
    code, out, _ = run(capsys, "reduce", '{"genus":1,"cone_points":[7]}', "6", "4,2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["form"] == {"kind": "genus1", "d": 2}
    assert data["canonical"] == [0, 2]
    assert data["verified"] is True
    assert isinstance(data["witness"], list)


def test_orbits_partition_json(capsys):
    code, out, _ = run(capsys, "orbits", SIG_G2, "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(o["size"] for o in data["orbits"]) == [6, 10]


def test_moduli_report(capsys):
    code, out, _ = run(capsys, "moduli", SIG_G2, "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert [c["sheets"] for c in data["components"]] == [10, 6]

    code, out, _ = run(capsys, "moduli", SIG_G1C3, "2")
    assert code == 0
    assert "total sheets: 4" in out


def test_present_all_modes(capsys):
    code, out, _ = run(capsys, "present", SIG_G1C3, "2", "0,0")
    assert code == 0
    assert "[orbifold]" in out and "[unit_tangent]" in out and "[root]" in out

    code, out, _ = run(capsys, "present", SIG_G1C3, "2", "0,0", "--mode", "root", "--json")
    assert code == 0
    (pres,) = json.loads(out)
    assert pres["kind"] == "root"


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "chi", "not json")
    assert code == 2
    assert err.startswith("UsageError:")

    code, _, err = run(capsys, "twist", SIG_G1C3, "2", "0,1,2", "[]")
    assert code == 2  # tuple has the wrong arity

    code, out, err = run(capsys, "no-such-command")
    assert code == 2 and out == ""
    assert err.startswith("UsageError:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("chi", '{"genus":1,"cone_points":[3.9]}'),
        ("chi", '{"genus":true,"cone_points":[3]}'),
        ("chi", '{"genus":1,"cone_points":[null]}'),
        ("recognize", '{"genus":1,"b":0,"pairs":[[3.7,1]]}'),
        ("recognize", '{"genus":1,"b":0,"pairs":[5]}'),
        ("twist", SIG_G1C3, "2", "0,1", '[{"family":"V","index":1,"power":1.5}]'),
        ("moduli", SIG_G2, "2", "--cap", "0"),
        ("moduli", SIG_G2, "2", "--cap", "-4"),
    ],
)
def test_non_integers_and_bad_caps_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("UsageError:")


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv", [
    ("chi", DEEP),
    ("recognize", DEEP),
    ("twist", SIG_G1C3, "2", "0,1", DEEP),
], ids=["signature", "invariants", "word"])
def test_deeply_nested_json_is_a_usage_error(capsys, argv):
    # json raises RecursionError, a RuntimeError, which would exit 4 as a bug
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "UsageError: JSON input is nested too deeply\n"


# the subcommands that take no --cap
_UNCAPPED = [
    ("chi", SIG_G2), ("roots", SIG_G2), ("solve", SIG_G1C3, "2"),
    ("recognize", '{"genus":2,"b":1,"pairs":[[3,1]]}'),
    ("twist", SIG_G1C3, "2", "0,1", '[{"family":"V","index":1,"power":1}]'),
    ("reduce", SIG_G1C3, "2", "1,1"), ("present", SIG_G1C3, "2", "0,0"),
]


@pytest.mark.parametrize("argv", _UNCAPPED, ids=lambda argv: argv[0])
def test_only_the_capped_subcommands_read_the_state_cap(capsys, argv):
    code, out, err = run(capsys, *argv, "--cap", "5")
    assert (code, out, err) == (2, "", "UsageError: unrecognized arguments: --cap 5\n")
    assert run(capsys, *argv)[0] == 0


def test_the_settable_options_are_counted():
    # --json on all 11 subcommands, --cap on the 4 that read a state cap, --mode
    # and --seed: a change that adds or removes one edits this count
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = Counter(
        action.option_strings[-1] for parser in sub.choices.values() for action in parser._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )
    assert options == {"--json": 11, "--cap": 4, "--mode": 1, "--seed": 1}
    assert sum(options.values()) == 17
    # and no setting comes from the environment
    src = Path(orbispin.__file__).parent
    assert not [path.name for path in src.glob("*.py") if re.search(r"\b(environ|getenv)\b", path.read_text())]


def test_integers_may_carry_a_sign_and_spaces(capsys):
    # ASCII digits only (tests/cli_golden.json pins the refusals), but a
    # sign and surrounding spaces are still read, as int() reads them
    code, out, _ = run(capsys, "reduce", SIG_G1C3, " 2 ", "+1, -1 ")
    assert code == 0
    assert out.startswith("form: genus1 d=1\ncanonical: 0,1\n")
    code, _, err = run(capsys, "enumerate", SIG_G1C3, "2", "--cap", " +3 ")  # 4 states over a cap of 3
    assert code == 3 and err.startswith("CountOverflow:")
    code, _, _ = run(capsys, "verify", "g=1,n=1,alpha=4,r= 4", "--seed", "-3", "--cap", " 64")
    assert code == 0


_LONG = "x" * 10**5


@pytest.mark.parametrize("argv", [
    ("chi", json.dumps({"genus": [0] * 10**5, "cone_points": []})),
    ("chi", json.dumps({"genus": 2, "cone_points": [], **{f"k{i}": 0 for i in range(20_000)}})),
    ("solve", SIG_G1C3, _LONG),
    ("orbits", SIG_G2, "2", "--cap", "9" * 10**5),
    ("verify", f"g=1,{_LONG}"),
    ("twist", SIG_G1C3, "2", "0,1", json.dumps([{"family": _LONG, "index": 1, "power": 1}])),
], ids=["genus", "unknown-keys", "order", "cap", "grid", "family"])
def test_error_lines_quote_long_inputs_short(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("UsageError:") and err.count("\n") == 1 and len(err) < 200


_COMMANDS = "'chi', 'roots', 'solve', 'recognize', 'enumerate', 'twist', 'reduce', 'orbits', 'moduli', 'present', 'verify'"


@pytest.mark.parametrize("argv, line", [
    ((f"chi{_LONG}",), f"argument command: invalid choice: {reprlib.repr('chi' + _LONG)} (choose from {_COMMANDS})"),
    (("chi", SIG_G2, _LONG), f"unrecognized arguments: {_LONG[:13]}...{_LONG[-14:]}"),
    (("present", SIG_G1C3, "2", "0,1", "--mode", _LONG),
     f"argument --mode: invalid choice: {reprlib.repr(_LONG)} (choose from 'orbifold', 'unit-tangent', 'root', 'all')"),
    (("chi", SIG_G2, f"--={_LONG}"), f"ambiguous option: --={_LONG[:10]}...{_LONG[-14:]} could match --help, --json"),
], ids=["command", "extra-argument", "mode", "ambiguous-option"])
def test_argparse_errors_quote_long_inputs_short(capsys, argv, line):
    # argparse formats these itself; a short value stays whole, as in "unknown-command",
    # and a long one is cut to reprlib's 30 characters, quotes included
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"UsageError: {line}\n" and len(err) <= 200 + 1


@pytest.mark.parametrize("argv, line", [
    (("chi", SIG_G2, "a\nb"), r"unrecognized arguments: a\nb"),
    (("chi", SIG_G2, "a\r\x00\tb\u2028"), r"unrecognized arguments: a\r\x00\tb\u2028"),
    (("chi", SIG_G2, "--=a\nb"), r"ambiguous option: --=a\nb could match --help, --json"),
    (("chi", SIG_G2, "\n" * 40), r"unrecognized arguments: \n\n\n\n\n\n\...\n\n\n\n\n\n\n"),
], ids=["newline", "controls", "ambiguous-option", "long"])
def test_argparse_errors_escape_unprintable_inputs(capsys, argv, line):
    # argparse reports these values bare; each unprintable character is escaped as
    # repr escapes it, before a long value is cut, so the error stays one line
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"UsageError: {line}\n"


def test_unreadable_file_argument_quotes_its_path_short(capsys, monkeypatch, tmp_path):
    code, out, err = run(capsys, "chi", f"@{_LONG}")
    assert (code, out) == (2, "")
    assert err == f"UsageError: [Errno 36] File name too long: {reprlib.repr(_LONG)}\n"
    monkeypatch.chdir(tmp_path)  # a short path is quoted whole, as the OSError quotes it
    code, _, err = run(capsys, "chi", "@missing.json")
    assert (code, err) == (2, "UsageError: [Errno 2] No such file or directory: 'missing.json'\n")


def test_failed_invariant_exits_four(monkeypatch, capsys):
    import orbispin.cli as cli

    def mismatch(ctx, state_cap):
        raise RuntimeError("census disagrees with brute-force orbits")

    monkeypatch.setattr(cli, "moduli_report", mismatch)
    code, _, err = run(capsys, "moduli", SIG_G2, "2")
    assert code == 4
    assert err.startswith("InvariantError: census disagrees")

    monkeypatch.setattr(cli, "apply_word", lambda root, word: root)
    code, _, err = run(capsys, "reduce", '{"genus":1,"cone_points":[7]}', "6", "4,2")
    assert code == 4
    assert err.startswith("InvariantError: witness")


def test_verify_small_grid(capsys):
    code, out, _ = run(capsys, "verify", "g=1,n=1,alpha=4,r=4", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_exits_one_when_a_row_fails(monkeypatch, capsys):
    import orbispin.cli as cli
    from orbispin.verification import CheckResult

    rows = [CheckResult("existence", True, "ok"), CheckResult("moduli-census", False, "(g=2, r=2): 3 != 2")]
    monkeypatch.setattr(cli, "run_suite", lambda bounds, seed, state_cap: rows)
    code, out, _ = run(capsys, "verify", "g=1,n=1,alpha=4,r=4")
    assert (code, out) == (1, "PASS  existence: ok\nFAIL  moduli-census: (g=2, r=2): 3 != 2\n")
    code, out, _ = run(capsys, "verify", "g=1,n=1,alpha=4,r=4", "--json")
    assert code == 1 and [row["passed"] for row in json.loads(out)] == [True, False]


@pytest.mark.parametrize("grid", ["g=1,n=1,alpha=4,r=4,r=5", "g=1,n=1,alpha=4,r=4,g=1"])
def test_verify_rejects_a_repeated_grid_key(capsys, grid):
    # the last value used to win silently
    code, out, err = run(capsys, "verify", grid)
    assert code == 2
    assert out == ""
    assert err.startswith("UsageError: bad grid component")


def test_only_verify_takes_a_seed(capsys):
    code, _, err = run(capsys, "chi", SIG_G2, "--seed", "5")
    assert code == 2
    assert err.startswith("UsageError:") and "--seed" in err
    code, out, _ = run(capsys, "verify", "g=1,n=1,alpha=4,r=4", "--seed", "5")
    assert code == 0 and out.count("PASS") == 7


def test_signature_from_file(tmp_path, capsys):
    path = tmp_path / "sig.json"
    path.write_text(SIG_237, encoding="utf-8")
    code, out, _ = run(capsys, "chi", f"@{path}")
    assert code == 0
    assert out.strip() == "-1/42"


def test_json_outputs_round_trip_through_their_schemas(capsys):
    _, out, _ = run(capsys, "solve", SIG_G1C3, "2", "--json")
    ctx = RootContext.from_json(json.loads(out))
    assert ctx.order == 2

    _, out, _ = run(capsys, "recognize", '{"genus":2,"b":1,"pairs":[[3,1]]}', "--json")
    assert RootContext.from_json(json.loads(out)).order == 2

    _, out, _ = run(capsys, "enumerate", SIG_G1C3, "2", "--json")
    tuples = [RootTuple.from_json(json.loads(line)) for line in out.splitlines()]
    assert len(tuples) == 4

    _, out, _ = run(capsys, "reduce", '{"genus":1,"cone_points":[7]}', "6", "4,2", "--json")
    data = json.loads(out)
    witness = TwistWord.from_json(data["witness"])
    root = RootTuple(6, (4, 2))
    from orbispin import apply_word

    assert apply_word(root, witness).coords == tuple(data["canonical"])

    _, out, _ = run(capsys, "moduli", SIG_G2, "2", "--json")
    data = json.loads(out)
    assert RootContext.from_json(data["context"]).order == 2


# every call here is answered by closed forms, the census of a one-state
# space included; the last one searches
_IMPORT_PROBE = """
import contextlib, io, json, sys
import orbispin, orbispin.cli
calls = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [orbispin.cli.main(argv) for argv in calls[:-1]]
    loaded = "numpy" in sys.modules
    codes.append(orbispin.cli.main(calls[-1]))
print(json.dumps([codes, loaded, "numpy" in sys.modules]))
"""


def test_only_a_search_loads_numpy():
    # a fresh interpreter: other tests import numpy into this process
    word = '[{"family":"V","index":1,"power":1}]'
    calls = [
        ["chi", SIG_237], ["roots", SIG_G2], ["solve", SIG_G1C3, "2", "--json"],
        ["recognize", '{"genus":2,"b":1,"pairs":[[3,1]]}'], ["enumerate", SIG_G1C3, "2"],
        ["twist", SIG_G1C3, "2", "0,1", word], ["reduce", SIG_G2, "2", "1,1,0,1"],
        ["present", SIG_G1C3, "2", "0,0"], ["moduli", SIG_237, "1"], ["moduli", SIG_G2, "1"],
        ["moduli", SIG_G2, "2", "--cap", "15"], ["orbits", SIG_G2, "2"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(orbispin.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(calls)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(proc.stdout) == [[0] * len(calls), False, True]
