import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latmod import gen_zn_self_module, gen_zn_square_module, serialize_instance
from latmod import cli
from latmod.classify import FLAG_NAMES, classify_all
from latmod.cli import _json_dumps, main
from latmod.harness import Fault, default_instances, make_instance, run_suite
from latmod.module import module_violations


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_validate_round_trip(tmp_path, capsys):
    path = tmp_path / "l12.mlat"
    code, out, err = run_cli(capsys, "gen", "zn-ideals", "12", "-o", str(path))
    assert code == 0
    assert path.read_text(encoding="utf-8").startswith("mlat 1\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "valid" in out


def test_gen_module_file(tmp_path, capsys):
    path = tmp_path / "m8.mlat"
    code, _, _ = run_cli(capsys, "gen", "zn-square", "8", "-o", str(path))
    assert code == 0
    text = path.read_text(encoding="utf-8")
    assert "module" in text and "act 0 0" in text


def test_gen_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "zn-ideals", "1")
    assert code == 0 and out.startswith("mlat 1\n")


def test_validate_axiom_failure(tmp_path, capsys):
    path = tmp_path / "bad.mlat"
    path.write_text(
        "mlat 1\nlattice\nelements 2\nleq 0 1\n"
        "mul 0 0 0\nmul 0 1 0\nmul 1 0 0\nmul 1 1 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "mul-identity" in err and "witness" in err


def test_validate_reject_report_is_one_write(tmp_path, monkeypatch):
    # a zn-square-4 act mutant lists ten violations, one line each
    M = gen_zn_square_module(4)
    act = M.act_table.copy()
    act[1, 5] = (act[1, 5] + 1) % M.element_count
    text = serialize_instance(M.lattice, M).replace(
        f"act 1 5 {M.act_table[1, 5]}\n", f"act 1 5 {act[1, 5]}\n")
    path = tmp_path / "mutant.mlat"
    path.write_text(text, encoding="utf-8")
    writes = []
    monkeypatch.setattr(sys, "stderr", argparse.Namespace(write=writes.append))
    assert main(["validate", str(path)]) == 1
    violations = module_violations(M.lattice, M.leq, act)
    assert len(violations) == 10
    assert writes == ["".join([f"{path}: invalid instance\n"] + [
        f"  [{v.axiom}] witness {v.witness}: {v.message}\n" for v in violations])]


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "trunc.mlat"
    path.write_text("mlat 1\nlattice\nelements 2\nleq 0 1\nmul 0 0 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "non-total" in err


def test_validate_huge_element_count(tmp_path, capsys):
    path = tmp_path / "huge.mlat"
    path.write_text("mlat 1\nlattice\nelements 1000000000\nmul 0 0 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == f"{path}: non-total mul table: missing entry for (0, 1) (line 2)\n"


def test_classify_label(tmp_path, capsys):
    path = tmp_path / "m8.mlat"
    run_cli(capsys, "gen", "zn-square", "8", "-o", str(path))
    code, out, _ = run_cli(capsys, "classify", str(path), "--label", "4Zx2Z")
    assert code == 0
    assert "primary=T" in out and "pseudo_primary=F" in out
    assert "witness pseudo_primary" in out


def test_classify_all_json(tmp_path, capsys):
    path = tmp_path / "l12self.mlat"
    run_cli(capsys, "gen", "zn-self", "12", "-o", str(path))
    code, out, _ = run_cli(capsys, "classify", str(path), "--all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "latmod-report 1"
    primes = [e["label"] for e in payload["elements"] if e["flags"]["prime"]]
    assert primes == ["(2)", "(3)"]


def test_classify_top_rejected(tmp_path, capsys):
    path = tmp_path / "l12self.mlat"
    run_cli(capsys, "gen", "zn-self", "12", "-o", str(path))
    code, _, err = run_cli(capsys, "classify", str(path), "--label", "(1)")
    assert code == 2
    assert "top element" in err


def test_classify_unknown_element(tmp_path, capsys):
    path = tmp_path / "l12self.mlat"
    run_cli(capsys, "gen", "zn-self", "12", "-o", str(path))
    code, _, err = run_cli(capsys, "classify", str(path), "--label", "(7)")
    assert code == 2 and "unknown element" in err


def test_classify_unknown_id(tmp_path, capsys):
    path = tmp_path / "l12self.mlat"
    run_cli(capsys, "gen", "zn-self", "12", "-o", str(path))
    assert run_cli(capsys, "classify", str(path), "--id", "999") == (
        2, "", "error: unknown element id 999\n")


def test_validate_a_directory(tmp_path, capsys):
    code, out, err = run_cli(capsys, "validate", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


def test_classify_requires_module(tmp_path, capsys):
    path = tmp_path / "l12.mlat"
    run_cli(capsys, "gen", "zn-ideals", "12", "-o", str(path))
    code, _, err = run_cli(capsys, "classify", str(path), "--all")
    assert code == 2 and "module" in err


def test_verify_family(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "zn-self", "--max-n", "12")
    assert code == 0
    assert "summary:" in out and " 0 fail" in out


def test_verify_file_single_check(tmp_path, capsys):
    path = tmp_path / "m8.mlat"
    run_cli(capsys, "gen", "zn-square", "8", "-o", str(path))
    code, out, _ = run_cli(capsys, "verify", str(path), "--checks", "fig1-implications")
    assert code == 0
    assert "PASS m8 fig1-implications" in out


@pytest.mark.parametrize("filename, name", [
    ("inst.mlat", "inst"), ("dir\\inst.mlat", "inst"), ("inst.txt", "inst.txt")])
def test_file_instance_is_named_by_its_file(tmp_path, capsys, filename, name):
    # the last path component without ".mlat", "\\" read as a separator
    M = gen_zn_self_module(6)
    path = tmp_path / filename
    path.write_text(serialize_instance(M.lattice, M), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path), "--all", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["instance"] == {
        "name": name, "fingerprint": make_instance("zn-self-6", M).fingerprint,
        "lattice_elements": 4, "module_elements": 4}


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "thm-rad-eq" in out and "equiv-pseudo-primary-4way" in out
    assert "fig1-maximal-implies-prime [dashed]" in out


def test_verify_unknown_check(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", "--family", "zn-self", "--max-n", "4",
                             "--checks", "bogus")
    assert (code, out, err) == (2, "", "error: unknown check id 'bogus'\n")
    # a file error is reported before a check-id error
    missing = tmp_path / "missing.mlat"
    code, out, err = run_cli(capsys, "verify", str(missing), "--checks", "bogus")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(missing) in err and "unknown check" not in err


def test_verify_repeated_check(tmp_path, capsys):
    # a check named twice would run and be counted twice
    path = tmp_path / "zn-self-2.mlat"
    run_cli(capsys, "gen", "zn-self", "2", "-o", str(path))
    code, out, err = run_cli(capsys, "verify", str(path), "--checks",
                             "lem-rad-meet,fig1-implications,lem-rad-meet")
    assert (code, out) == (2, "")
    assert err == "error: check id 'lem-rad-meet' is named more than once\n"


def test_verify_nothing_selected(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2 and "nothing to verify" in err


@pytest.mark.parametrize("family, top", [("zn-self", "1"), ("zn-square", "0")])
def test_verify_empty_family_range_named(capsys, family, top):
    code, out, err = run_cli(capsys, "verify", "--family", family, "--max-n", top)
    assert (code, out) == (2, "")
    assert err == f"error: --family {family} --max-n {top} gives no instance: n runs from 2\n"


def test_verify_empty_family_range_named_beside_files(capsys):
    # a file given as well must not hide that the range asked for is empty
    code, out, err = run_cli(capsys, "verify", "--family", "zn-self", "--max-n", "1",
                             str(FIXTURES / "v02_two_chain_module.mlat"))
    assert (code, out) == (2, "")
    assert err == "error: --family zn-self --max-n 1 gives no instance: n runs from 2\n"


def test_verify_json_deterministic(tmp_path, capsys):
    path = tmp_path / "m4.mlat"
    run_cli(capsys, "gen", "zn-square", "4", "-o", str(path))
    code_a, out_a, _ = run_cli(capsys, "verify", str(path), "--format", "json", "--seed", "3")
    code_b, out_b, _ = run_cli(capsys, "verify", str(path), "--format", "json", "--seed", "3")
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-identical machine-readable reports
    payload = json.loads(out_a)
    assert payload["summary"]["fail"] == 0
    assert "seconds" not in json.dumps(payload)


def test_mlat_cap_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MLAT_CAP", "4")
    code, _, err = run_cli(capsys, "gen", "zn-square", "8", "-o", str(tmp_path / "x.mlat"))
    assert code == 2 and "cap" in err
    monkeypatch.setenv("MLAT_CAP", "20")
    code, _, _ = run_cli(capsys, "gen", "zn-square", "8", "-o", str(tmp_path / "y.mlat"))
    assert code == 0


def test_mlat_cap_read_only_for_a_family(capsys, monkeypatch):
    # verifying files generates nothing, and zn-self takes no cap, so a
    # malformed cap does not matter to either
    monkeypatch.setenv("MLAT_CAP", "x")
    code, out, err = run_cli(capsys, "verify", str(FIXTURES / "v02_two_chain_module.mlat"))
    assert (code, err) == (0, "") and "0 fail" in out
    code, out, err = run_cli(capsys, "verify", "--family", "zn-self", "--max-n", "3")
    assert (code, err) == (0, "") and "0 fail" in out
    code, out, err = run_cli(capsys, "gen", "zn-self", "3")
    assert (code, err) == (0, "") and out.startswith("mlat 1\n")
    # zn-square takes the cap, and so does the default family, which holds it
    for argv in (("gen", "zn-square", "3"), ("verify", "--family", "zn-square", "--max-n", "3"),
                 ("verify", "--family", "default")):
        assert run_cli(capsys, *argv) == (2, "", "error: MLAT_CAP must be an integer, got 'x'\n")


@pytest.mark.parametrize("family, top", [("zn-self", 30), ("zn-square", 8)])
def test_verify_family_default_top(capsys, family, top):
    code, out, _ = run_cli(capsys, "verify", "--family", family,
                           "--checks", "fig1-implications", "--format", "json")
    assert code == 0
    assert set(json.loads(out)["instances"]) == {f"{family}-{n}" for n in range(2, top + 1)}


def test_mlat_cap_bounds_the_default_family(capsys, monkeypatch):
    monkeypatch.setenv("MLAT_CAP", "4")
    code, out, err = run_cli(capsys, "verify", "--family", "default")
    assert (code, out, err) == (2, "", "error: zn-square modulus 8 exceeds the cap 4\n")
    with pytest.raises(ValueError, match="zn-square modulus 8 exceeds the cap 4"):
        default_instances(square_cap=4)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "zn-cubes", "3"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [("validate",), ("classify", "--all"), ("verify",)],
                         ids=lambda argv: argv[0])
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "latin1.mlat"
    path.write_bytes(b"mlat 1\nlattice\nelements 1\nlabel 0 caf\xe9\n")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"{path}: not valid UTF-8 (invalid continuation byte at byte 37)" in err


FIXTURES = Path(__file__).parent / "fixtures"


def test_leading_byte_order_mark_is_skipped(tmp_path, capsys):
    # an editor may save UTF-8 with a leading U+FEFF; under the same file
    # name, which the reports carry, the file reads as it does without one
    commands = [("validate",), ("classify", "--all", "--format", "json"),
                ("verify", "--format", "json")]
    for fixture in ("v01_two_chain.mlat", "v02_two_chain_module.mlat"):
        path = tmp_path / fixture
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + (FIXTURES / fixture).read_bytes())
            outputs.append([run_cli(capsys, argv[0], str(path), *argv[1:]) for argv in commands])
        assert outputs[0] == outputs[1]
        assert outputs[1][0][0] == 0
    assert [code for code, _, _ in outputs[1]] == [0, 0, 0]    # v02 has a module block
    # a decoding error's offset still counts the mark's three bytes
    path.write_bytes(b"\xef\xbb\xbfmlat 1\nlattice\nelements 1\nlabel 0 caf\xe9\n")
    assert run_cli(capsys, "validate", str(path))[2] == \
        f"{path}: not valid UTF-8 (invalid continuation byte at byte 40)\n"


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_load_errors_name_the_file(capsys, command):
    good = str(FIXTURES / "v02_two_chain_module.mlat")
    bad_header = str(FIXTURES / "e01_bad_header.mlat")
    invalid = str(FIXTURES / "e13_axiom_identity.mlat")

    def run(path):
        # verify loads a good file first, so only the path tells which file failed
        argv = ["classify", path, "--all"] if command == "classify" else ["verify", good, path]
        return run_cli(capsys, *argv)

    code, out, err = run(bad_header)
    assert code == 2 and out == ""
    assert err == f"error: {bad_header}: expected version header 'mlat 1' (line 1, column 1)\n"

    code, out, err = run(invalid)
    assert code == 1 and out == ""
    assert err.startswith(f"{invalid}: invalid instance: 1 axiom violation(s): ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("gen", "zn-self", "6"),
    ("classify", str(FIXTURES / "v02_two_chain_module.mlat"), "--all"),
    ("verify", str(FIXTURES / "v02_two_chain_module.mlat"), "--checks", "fig1-implications"),
], ids=lambda argv: argv[0])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out"
    code, out, err = run_cli(capsys, *argv, "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("checks", [",", " , "])
def test_verify_empty_check_selection(capsys, checks):
    code, out, err = run_cli(capsys, "verify", "--family", "zn-self", "--max-n", "3",
                             "--checks", checks)
    assert code == 2 and out == ""
    assert err == f"error: --checks {checks!r} names no check\n"


@pytest.mark.parametrize("selection", [
    ("--family", "default"),
    (str(FIXTURES / "v02_two_chain_module.mlat"),),
], ids=["default-family", "no-family"])
def test_verify_max_n_needs_generated_family(capsys, selection):
    code, out, err = run_cli(capsys, "verify", *selection, "--max-n", "3")
    assert code == 2 and out == ""
    assert err == "error: --max-n applies only to --family zn-self or zn-square\n"


def test_verify_rejects_two_instances_with_one_name(tmp_path, capsys):
    fixture = (FIXTURES / "v02_two_chain_module.mlat").read_text()
    a, b = tmp_path / "a" / "x.mlat", tmp_path / "b" / "x.mlat"
    for path in (a, b):
        path.parent.mkdir()
        path.write_text(fixture)
    code, out, err = run_cli(capsys, "verify", str(a), str(b), "--format", "json")
    assert code == 2 and out == ""
    assert err == f"error: {a} and {b} both give an instance named 'x'\n"

    clash = tmp_path / "zn-self-3.mlat"
    run_cli(capsys, "gen", "zn-self", "3", "-o", str(clash))
    code, out, err = run_cli(capsys, "verify", "--family", "zn-self", "--max-n", "3", str(clash))
    assert code == 2 and out == ""
    assert err == f"error: --family zn-self and {clash} both give an instance named 'zn-self-3'\n"


def _stdlib_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_outcome(dumps, payload):
    try:
        return dumps(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_STRINGS = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "},\n  {", "},\n    {", "\x00\x1f\x7f", "caf\xe9 \u2603 \U0001d11e", "\u2028"])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS
            | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0]))
_EMPTY = st.sampled_from([{}, [], ()])
_KEYS = _STRINGS | st.integers() | st.floats() | st.booleans() | st.none()
# non-empty dicts whose members are scalars or empty containers, as in a report's results
_FLAT_DICTS = st.dictionaries(_STRINGS, _SCALARS | _EMPTY, min_size=1, max_size=4)
_PAYLOADS = st.recursive(
    _SCALARS | _EMPTY | st.lists(_FLAT_DICTS, min_size=1, max_size=3)
    | st.lists(_FLAT_DICTS | st.just({}), min_size=2, max_size=3),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=16)


@pytest.mark.parametrize("payload", [
    [{"a": 1}, {}], [{}, {"a": 1}], ({"a": 1}, {"b": (2,)}), [{"a": {}}, {"b": ()}],
    {"x": [{"s": "},\n    {", "t": "},\n  {"}, {"s": '}", "t": "\\'}]}, {"k": [[{"a": 1}]]},
], ids=["empty-last", "empty-first", "tuples", "empty-members", "boundary-text", "deep"])
def test_json_dumps_edge_cases(payload):
    assert _json_dumps(payload) == _stdlib_json(payload)


@given(_PAYLOADS)
def test_json_dumps_matches_stdlib(payload):
    # mixed key types cannot be sorted: both must then raise the same error
    assert _json_outcome(_json_dumps, payload) == _json_outcome(_stdlib_json, payload)


@pytest.mark.parametrize("payload", [
    np.int64(3), [1, {"a": np.int64(3)}], {"a": [{"b": np.int64(3)}]}, {np.int64(3): 1},
    {np.int64(3): [1, [2]]}, {(1, 2): 1}, {"a": 1, 2: 1},
], ids=["scalar", "flat", "flat-dicts", "key", "key-nested", "tuple-key", "mixed-keys"])
def test_json_dumps_errors_match_stdlib(payload):
    outcome = _json_outcome(_json_dumps, payload)
    assert outcome[0] is TypeError
    assert outcome == _json_outcome(_stdlib_json, payload)


def _real_reports():
    instances = default_instances()
    for seed in range(4):
        yield f"default-seed-{seed}", run_suite(instances, seed=seed).as_dict()
    zn_self_12 = make_instance("zn-self-12", gen_zn_self_module(12))
    for flag in FLAG_NAMES:
        yield f"faulted-{flag}", run_suite([zn_self_12], fault=Fault(flag)).as_dict()
    for name, M in (("zn-square-10", gen_zn_square_module(10)),
                    ("zn-self-12", zn_self_12.module)):
        classes = classify_all(M)
        yield f"classify-{name}", {"elements": [classes[i].as_dict() for i in sorted(classes)]}


def test_json_dumps_matches_stdlib_on_reports():
    for name, payload in _real_reports():
        assert _json_dumps(payload) == _stdlib_json(payload), name


def _added_subparsers(monkeypatch, *argvs) -> list[list[str]]:
    """The subparsers that each of ``argvs`` adds, run in turn through
    ``main`` in one process, starting from an empty parser memo."""
    cli.build_parser.cache_clear()
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added[-1].append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    for argv in argvs:
        added.append([])
        with pytest.raises(SystemExit):
            main(argv)
    return added


FIRST_ARGVS = {"gen": ["gen", "-h"], "validate": ["validate", "-h"],
               "classify": ["classify", "-h"], "verify": ["verify", "-h"],
               "no-command": ["-h"], "unknown": ["bogus"], "empty": []}


@pytest.mark.parametrize("argv", [["-h"], ["bogus"], []], ids=["help", "unknown", "empty"])
def test_every_subparser_is_built_without_a_command(monkeypatch, capsys, argv):
    assert _added_subparsers(monkeypatch, argv) == [["gen", "validate", "classify", "verify"]]


@pytest.mark.parametrize("first", FIRST_ARGVS)
def test_a_second_call_builds_no_subparser(monkeypatch, capsys, first):
    # one parser per process: whatever the first call asks, it adds every
    # command once, in help order, and a later call with any other argv adds none
    later = [argv for name, argv in FIRST_ARGVS.items() if name != first]
    added = _added_subparsers(monkeypatch, FIRST_ARGVS[first], *later)
    assert added == [["gen", "validate", "classify", "verify"]] + [[]] * len(later)


def _outcome(capsys, argv) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["gen", "zn-self", "3", "--bogus"], ["validate", "x.mlat", "--bogus"],
    ["classify", "f", "--all", "--bogus"], ["verify", "--bogus"],
], ids=lambda argv: argv[0])
def test_unrecognized_arguments_print_the_top_usage(capsys, argv):
    # argparse reports an argument that no command takes from the top parser,
    # so each command's error lists every command, on a cold and a warm parser
    cli.build_parser.cache_clear()
    expected = (2, "", "usage: latmod [-h] [--version] {gen,validate,classify,verify} ...\n"
                       "latmod: error: unrecognized arguments: --bogus\n")
    assert [_outcome(capsys, argv) for _ in range(2)] == [expected] * 2


def test_warm_parser_answers_as_a_cold_one(monkeypatch, capsys):
    # every step runs twice on parsers that earlier steps used, and each
    # answer must equal that of a parser built for it alone; classify and
    # verify run with --format json because their text reports print wall times
    path = str(FIXTURES / "v02_two_chain_module.mlat")
    steps = [
        ({}, ["classify", path, "--id", "0", "--format", "json"]),
        ({}, ["classify", path, "--all", "--format", "json"]),
        ({}, ["classify", path]),
        ({}, ["verify", path, "--format", "json"]),
        ({}, ["verify"]),
        ({}, ["--version"]),
        ({"COLUMNS": "40"}, ["verify", "-h"]),
        ({"COLUMNS": "200"}, ["verify", "-h"]),
        ({}, ["--", "verify", path, "--format", "json"]),
    ]

    def run(env, argv):
        with monkeypatch.context() as m:
            for name, value in env.items():
                m.setenv(name, value)
            return _outcome(capsys, argv)

    cli.build_parser.cache_clear()
    warm = [run(env, argv) for env, argv in steps * 2]
    cold = []
    for env, argv in steps:
        cli.build_parser.cache_clear()
        cold.append(run(env, argv))
    assert warm == cold * 2
    assert [code for code, _, _ in cold] == [0, 0, 2, 0, 2, 0, 0, 0, 0]
    assert cold[6][1] != cold[7][1]  # help wraps to COLUMNS


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["verify", str(FIXTURES / "v02_two_chain_module.mlat"), "--format", "json"],
], ids=["version", "verify-json"])
def test_module_entry_point_matches_main(capsys, argv):
    # main(argv=None) reads sys.argv, as the latmod console script does
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-m", "latmod.cli", *argv],
                          capture_output=True, env=env, check=False)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert proc.returncode == code == 0
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode() == b""


def test_leading_separator_before_a_command_is_dropped(capsys):
    argv = ["verify", str(FIXTURES / "v02_two_chain_module.mlat"), "--format", "json"]
    code, out, err = run_cli(capsys, "--", *argv)
    assert (code, err) == (0, "") and out
    assert run_cli(capsys, *argv) == (code, out, err)
    with pytest.raises(SystemExit) as err:
        main(["--", "bogus"])
    assert err.value.code == 2
    assert "invalid choice: '--'" in capsys.readouterr().err


# Runs each argv through cli.main in one process and prints, per command,
# its exit status and whether latmod.harness has been imported by then.
_LOAD_PATH_SCRIPT = """
import contextlib, io, json, sys
from latmod import cli
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    seen.append([code, "latmod.harness" in sys.modules])
print(json.dumps(seen))
"""


def test_only_verify_loads_the_harness():
    # gen, validate and classify never import the theorem registry, so a
    # process that runs them does not compile or keep it
    good, reject = (str(FIXTURES / name) for name in ("v02_two_chain_module.mlat",
                                                       "e15_module_axiom4.mlat"))
    steps = [["--version"], ["gen", "zn-self", "6"], ["validate", good], ["validate", reject],
             ["classify", good, "--all", "--format", "json"], ["verify", good]]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _LOAD_PATH_SCRIPT, json.dumps(steps)],
                          capture_output=True, env=env, check=True, text=True)
    assert json.loads(proc.stdout) == [[0, False], [0, False], [0, False], [1, False],
                                       [0, False], [0, True]]


def test_harness_reexports_the_instance_names():
    import latmod.harness
    import latmod.instances

    assert latmod.harness.make_instance is latmod.instances.make_instance
    assert latmod.harness.Instance is latmod.instances.Instance
