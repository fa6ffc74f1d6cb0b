import json
from pathlib import Path

import pytest

from latmod.cli import main


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


def test_verify_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--list")
    assert code == 0
    assert "thm-rad-eq" in out and "equiv-pseudo-primary-4way" in out
    assert "fig1-maximal-implies-prime [dashed]" in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--family", "zn-self", "--max-n", "4",
                           "--checks", "bogus")
    assert code == 2 and "unknown check" in err


def test_verify_nothing_selected(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2 and "nothing to verify" in err


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
