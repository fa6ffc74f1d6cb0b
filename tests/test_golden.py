"""Byte-level pins on the reports, so a refactor of the harness or the CLI
cannot change a registry entry, a clean report or a violation dict unnoticed.

The digests were recorded at commit 2db39dc; a change meant to alter a
report re-records them.  A clean report has empty violation lists, so the
faulted zn-self-12 suites are what pin the violation builders: across the
nine faults they produce violations in 50 of the 64 checks, of 11 kinds.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from latmod import (
    ParseError,
    ValidationError,
    gen_zn_ideal_lattice,
    gen_zn_self_module,
    gen_zn_square_module,
    parse_instance,
    serialize_instance,
)
from latmod import lattice
from latmod.classify import FLAG_NAMES, classify_all
from latmod.cli import main
from latmod.harness import Ctx, Fault, make_instance, run_suite
from latmod.lattice import lattice_flags, lattice_violations
from latmod.module import module_violations, prime_elements

LIST_SHA256 = "84d348c8721b9c84bb5a2eca27e2121ff36d2924cbfd944db06202579fc2a5ee"
DEFAULT_JSON_SHA256 = "0bead606753b2d0cc5f37d027e243509ce5ce7504785a30bf813c50817f0b645"
FAULTED_SHA256 = {
    "prime": "46ca4b999386833c91ad523b427e2ae339ade09cf0894428cae0df2f6f2cec32",
    "primary": "f0dea70b8624d4868a8cdecc036333d39d264662e5254236c9bf3060a7658a06",
    "maximal": "bddeb758f32a7c34bd4ef85c5b303e5cb7cf27863621019cc1ec7d143a41eff5",
    "semiprime": "39e7d626206b95a60dcb2250fde6bd0bd389c992ab2810decda83fd2f340b9c7",
    "radical_element": "7a04dbac59d8ea27e028ece0428c42345107c10d8d9a838ce9bed72a9cdf703c",
    "classical_prime": "7361eaf36d3230e4ab4fa15cbf6e6d0ce7ed4f83eef8b6752f54986bdfffc8ae",
    "two_absorbing": "89dccf12b385129631def71b4bdc26a558632542c77fd5c3c092038e2834f6f9",
    "pseudo_primary": "c94d1967136ba8fb72134d1c41322ac923086f0a6dc296479f4b6c58f862aa59",
    "pseudo_classical_primary":
        "7269956470378fac63736d9b54bf5eaefc79ed02b37b56e6aaadd7a7a8aa3c87",
}
# Recorded at a6ab2a8: one digest over every flag, each inverted on every
# other proper element, pinning the faulted reports and classifications.
TARGETED_FAULT_SHA256 = "d8d32c9aaa59f501bd0bc7744762b141664264caab4df5a4cc65d5e17455c976"
# Recorded at 8e88f1d: one digest over the violation lists of a single-cell
# mutation sweep, pinning the validators' violations, witnesses and order.
VALIDATOR_SHA256 = "a8b15bb40983c5663c3b8807b31f84f821691fec388f972ed4e3f4fba99c9ca2"
# Recorded at 8c5931e: the same digest over every third ``act`` cell of
# zn-square-10 (4 / 40 elements) moved to the next id, a shape whose subset
# spot checks the sweep above never draws.
SQUARE_10_VALIDATOR_SHA256 = "f60589eff3bf5ab5e00390605f8565917edaef5dcf4b340493033d7119683756"
# Recorded at ccd8cfe: one digest over the reports of the checks whose
# residual sides are numpy reductions, on zn-square-6, zn-square-9 and
# zn-self-60, clean and then under each classifier fault in FLAG_NAMES order.
REDUCTION_CHECKS = (
    "thm-classical-prime-residual-shift",
    "equiv-classical-prime-cg",
    "thm-join-meet-condition-classical-prime",
    "equiv-classical-prime-residual-product",
    "equiv-pseudo-primary-cg",
    "lem-rad-meet",
    "lem-saturation-below-rad",
    "thm-saturation-prime-rad-prime",
    "equiv-pseudo-classical-primary-cg",
)
REDUCTION_SHA256 = "9f843ec68118f8d5491ff52c51e37b8369f6650e3d27527d51d355006bd2941d"
# Recorded at a6ac9bd: one digest over the classifications, witnesses
# included, and prime elements of zn-square 2-16 and zn-self 60/360/720, then
# the lattice flags of zn-ideals 1-120.
CLASSIFICATIONS_SHA256 = "62e20d5bac75fbec0a0f5bf14b707fc42b9e97487e24c3b7da350074ec7fd983"
# Recorded at 557e21e: one digest over the reports of the checks that draw
# from ``Ctx.rng``, for seeds 0-3, clean and then with each chain flag
# inverted.  A clean chain report depends on the draws only through its
# ``evaluated`` count of distinct chains, which the inverted flags make vary
# with the seed; the ``lem-rad-meet`` families show only in a violation.
SEEDED_CHECKS = (
    "chain-classical-prime",
    "chain-pseudo-primary",
    "chain-pseudo-classical-primary",
    "lem-rad-meet",
)
SEEDED_SHA256 = "426317a75ef5085839d5ba7c2205e120cf784e76fc80506c6a884dc3c5b4241a"
# Recorded at 1c518d2: one digest over the outcome of parsing each fixture and
# each single-line edit in ``_parse_corpus`` (the exception type, text, line
# and column of a ParseError, the violations of a ValidationError, or
# "valid"), pinning every parse error message and location.  The corpus has
# no line break other than "\n".  Re-recorded at 2ffa94f, parser unchanged,
# when a valid outcome gained its serialized instance, so that what a valid
# parse read is pinned too; re-recorded at cd666c4, parser unchanged, when the
# corpus gained each edited line with trailing whitespace.
PARSE_SHA256 = "b162cc8dc23e840768c9db6a320f6c97b511bd2dcef8cff4ab117ea7d4ee78f5"
PARSE_CORPUS_SIZE = 2314
# Recorded at 7b59fc4: one digest over the exit code, stdout and stderr of each
# argv in CLI_ARGVS, at an 80-column terminal, pinning the help, usage and
# argparse error texts.  The "unrecognized arguments" cases print the top
# parser's usage, which lists every command, after a command was named.
# Re-recorded for the ("--", "verify") case only: a leading "--" before a
# command is now dropped, so it reports that nothing was given to verify.
CLI_ARGVS = (
    (), ("-h",), ("--version",), ("bogus",), ("--", "verify"),
    ("gen", "-h"), ("validate", "-h"), ("classify", "-h"), ("verify", "-h"),
    ("validate",), ("classify", "f"), ("classify", "f", "--id", "1", "--all"),
    ("verify", "--format", "xml"), ("verify", "--seed", "x"), ("verify", "--max-n", "3"),
    ("gen", "zn-cubes", "3"), ("verify", "--bogus"), ("validate", "a", "b"),
)
CLI_SHA256 = "56eaa201d4514c2080f6bbd512a8d9482908e79860594ed72471fe1de1e9b1ad"
# Recorded at fd81c42: one digest over the argv, MLAT_CAP (None = unset), exit
# code, stdout and stderr of each case in FAMILY_CASES, run from the repository
# root, pinning the generated families through ``gen`` and ``verify --family``
# and the cap's errors.  Re-recorded after a1e78a3 for the last two cases only:
# an empty --max-n range is now named, and verifying files reads no MLAT_CAP.
# Re-recorded again for the ("gen", "zn-self", "3") case under MLAT_CAP=x
# only: a family that takes no cap no longer reads MLAT_CAP, so it exits 0.
# Re-recorded once more with each text report's per-check wall time (the
# trailing " [0.000s]") replaced by a fixed token, so a stalled host cannot
# fail the digest; every other byte stays pinned.
FAMILY_CASES = (
    (("gen", "zn-ideals", "12"), None), (("gen", "zn-self", "12"), None),
    (("gen", "zn-square", "8"), None), (("gen", "zn-square", "17"), None),
    (("gen", "zn-self", "0"), None), (("gen", "zn-self", "3"), "x"),
    (("gen", "zn-square", "8"), "4"),
    (("verify", "--family", "zn-self", "--max-n", "4", "--format", "json"), None),
    (("verify", "--family", "zn-square", "--max-n", "3", "--format", "json"), None),
    (("verify", "--family", "zn-square", "--max-n", "17"), None),
    (("verify", "--family", "zn-square"), "4"),
    (("verify", "--family", "zn-self", "--max-n", "1"), None),
    (("verify", "tests/fixtures/v02_two_chain_module.mlat"), "x"),
)
FAMILY_SHA256 = "80b16ebe9d7824573dff0330210f6948e0822df5cbfae3589134297519900258"
FIXTURES = Path(__file__).parent / "fixtures"
TIMING = re.compile(r" \[\d+\.\d{3}s\]$", re.MULTILINE)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_stdout(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def test_cli_front_end_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    digest = hashlib.sha256()
    for argv in CLI_ARGVS:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        digest.update(json.dumps([argv, code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == CLI_SHA256


def test_family_cli_pinned(capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent.parent)
    digest = hashlib.sha256()
    for argv, cap in FAMILY_CASES:
        if cap is None:
            monkeypatch.delenv("MLAT_CAP", raising=False)
        else:
            monkeypatch.setenv("MLAT_CAP", cap)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = TIMING.sub(" [timing]", captured.out)
        digest.update(json.dumps([argv, cap, code, out, captured.err]).encode())
    assert digest.hexdigest() == FAMILY_SHA256


def test_verify_list_pinned():
    assert _sha256(_cli_stdout("verify", "--list")) == LIST_SHA256


def test_verify_default_json_pinned():
    out = _cli_stdout("verify", "--family", "default", "--format", "json")
    assert _sha256(out) == DEFAULT_JSON_SHA256


@pytest.fixture(scope="module")
def default_json_seed_0():
    return _cli_stdout("verify", "--family", "default", "--format", "json")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_default_json_seed_free(default_json_seed_0, seed):
    # the benchmark pins these reports for seeds 0-3; only "seed" may differ
    base = default_json_seed_0
    out = _cli_stdout("verify", "--family", "default", "--format", "json", "--seed", str(seed))
    assert base.count('"seed": 0,') == 1
    assert out == base.replace('"seed": 0,', f'"seed": {seed},')


@pytest.fixture(scope="module")
def zn_self_12():
    return make_instance("zn-self-12", gen_zn_self_module(12))


def test_faults_cover_every_flag():
    assert set(FAULTED_SHA256) == set(FLAG_NAMES)


@pytest.mark.parametrize("flag", FLAG_NAMES)
def test_faulted_suite_pinned(zn_self_12, flag):
    report = run_suite([zn_self_12], fault=Fault(flag)).as_dict()
    # insertion order, not sort_keys: the key order of every violation is pinned too
    assert _sha256(json.dumps(report)) == FAULTED_SHA256[flag]


def test_targeted_faults_pinned(zn_self_12):
    M = zn_self_12.module
    digest = hashlib.sha256()
    for flag in FLAG_NAMES:
        fault = Fault(flag, elements=list(M.proper_elements())[::2])
        digest.update(json.dumps(run_suite([zn_self_12], fault=fault).as_dict()).encode())
        cls = Ctx(zn_self_12, fault=fault).cls
        digest.update(json.dumps([c.as_dict() for c in cls.values()]).encode())
    assert digest.hexdigest() == TARGETED_FAULT_SHA256


def test_reduction_checks_pinned():
    instances = [make_instance("zn-square-6", gen_zn_square_module(6)),
                 make_instance("zn-square-9", gen_zn_square_module(9)),
                 make_instance("zn-self-60", gen_zn_self_module(60))]
    digest = hashlib.sha256()
    digest.update(json.dumps(run_suite(instances, checks=REDUCTION_CHECKS).as_dict()).encode())
    for flag in FLAG_NAMES:
        report = run_suite(instances, checks=REDUCTION_CHECKS, fault=Fault(flag))
        digest.update(json.dumps(report.as_dict()).encode())
    assert digest.hexdigest() == REDUCTION_SHA256


def test_seeded_checks_pinned():
    instances = [make_instance(f"zn-square-{n}", gen_zn_square_module(n)) for n in (9, 10, 16)]
    instances += [make_instance(f"zn-self-{n}", gen_zn_self_module(n)) for n in (60, 360, 720)]
    digest = hashlib.sha256()
    for seed in range(4):
        for fault in (None, "classical_prime", "pseudo_primary", "pseudo_classical_primary"):
            report = run_suite(instances, checks=SEEDED_CHECKS, seed=seed,
                               fault=Fault(fault) if fault else None)
            digest.update(json.dumps(report.as_dict()).encode())
    assert digest.hexdigest() == SEEDED_SHA256


def test_classifications_pinned():
    modules = [gen_zn_square_module(n) for n in range(2, 17)]
    modules += [gen_zn_self_module(n) for n in (60, 360, 720)]
    digest = hashlib.sha256()
    for M in modules:
        digest.update(json.dumps([c.as_dict() for c in classify_all(M).values()]).encode())
        digest.update(json.dumps(prime_elements(M)).encode())
    for n in range(1, 121):
        flags = lattice_flags(gen_zn_ideal_lattice(n))
        digest.update(json.dumps([dataclasses.astuple(f) for f in flags]).encode())
    assert digest.hexdigest() == CLASSIFICATIONS_SHA256


def test_classifications_pinned_in_one_element_blocks(monkeypatch):
    # every blocked pass, lattice._first_witnesses for L and M and
    # classify_all's own, at its other extreme: one element per block
    monkeypatch.setattr(lattice, "_BLOCK_CELLS", 1)
    test_classifications_pinned()


def _single_cell_mutants(table, wrong_values):
    for idx in np.ndindex(table.shape):
        for value in wrong_values(table[idx]):
            mutant = table.copy()
            mutant[idx] = value
            yield mutant


def _validator_sweep():
    """Violation lists of single-cell mutations: each ``act`` cell moved to the
    next id and each module ``leq`` cell flipped (zn-self-12, zn-square-3/4);
    each ``mul`` cell set to every other id and each ``leq`` cell flipped (zn-ideals-12)."""
    for M in (gen_zn_self_module(12), gen_zn_square_module(3), gen_zn_square_module(4)):
        m = M.element_count
        for act in _single_cell_mutants(M.act_table, lambda v: [(v + 1) % m]):
            yield module_violations(M.lattice, M.leq, act)
        for leq in _single_cell_mutants(M.leq, lambda v: [not v]):
            yield module_violations(M.lattice, leq, M.act_table)
    L = gen_zn_ideal_lattice(12)
    n = L.element_count
    for mul in _single_cell_mutants(L.mul_table, lambda v: [w for w in range(n) if w != v]):
        yield lattice_violations(L.leq, mul)
    for leq in _single_cell_mutants(L.leq, lambda v: [not v]):
        yield lattice_violations(leq, L.mul_table)


def test_validator_outputs_pinned():
    digest = hashlib.sha256()
    for violations in _validator_sweep():
        digest.update(json.dumps([v.as_dict() for v in violations]).encode())
    assert digest.hexdigest() == VALIDATOR_SHA256


def test_square_10_validator_outputs_pinned():
    M = gen_zn_square_module(10)
    m = M.element_count
    mutants = _single_cell_mutants(M.act_table, lambda v: [(v + 1) % m])
    digest = hashlib.sha256()
    for act in itertools.islice(mutants, 0, None, 3):
        digest.update(json.dumps([v.as_dict() for v in module_violations(M.lattice, M.leq, act)]).encode())
    assert digest.hexdigest() == SQUARE_10_VALIDATOR_SHA256


@pytest.mark.parametrize("pinned", [test_validator_outputs_pinned,
                                    test_square_10_validator_outputs_pinned,
                                    test_reduction_checks_pinned, test_classifications_pinned],
                         ids=lambda test: test.__name__)
@pytest.mark.parametrize("cutoff", [0, 1 << 62], ids=["float32", "bool"])
def test_pins_hold_on_each_matmul_path(monkeypatch, cutoff, pinned):
    # the pinned tests above run the shipped cutoff, where a sweep mixes both
    # paths; here every boolean product runs in float32 (cutoff 0), or in
    # numpy's boolean matmul (a cutoff above every product), against the same digests
    monkeypatch.setattr(lattice, "_BLAS_MIN_PRODUCTS", cutoff)
    pinned()


def _line_edits(line: str):
    """``line`` with one token replaced by each of x, -1, 99 and 1.5, with
    its last token dropped, with a token appended, and duplicated."""
    spans = [m.span() for m in re.finditer(r"\S+", line)]
    for start, end in spans:
        for token in ("x", "-1", "99", "1.5"):
            yield line[:start] + token + line[end:]
    if spans:
        yield line[:spans[-1][0]].rstrip()
    yield line + " 0"
    yield line + "\n" + line


def _parse_corpus():
    """The fixtures, then every single-line edit of v01-v06 and of the first
    40 lines of serialized zn-square-4, and each such line with trailing
    whitespace, which a label read must strip.  That last edit is made here,
    not in ``_line_edits``, which the table-statement corpus shares."""
    fixtures = sorted(FIXTURES.glob("*.mlat"))
    yield from (path.read_text(encoding="utf-8") for path in fixtures)
    M = gen_zn_square_module(4)
    bases = [path.read_text(encoding="utf-8") for path in fixtures if path.name.startswith("v")]
    bases.append(serialize_instance(M.lattice, M))
    for base, edited in zip(bases, [None] * (len(bases) - 1) + [40]):
        lines = base.split("\n")
        for k, line in enumerate(lines[:edited]):
            for edit in itertools.chain(_line_edits(line), [line + " \t"]):
                yield "\n".join(lines[:k] + [edit] + lines[k + 1:])


def _parse_outcome(text: str) -> list:
    """The error of parsing ``text``, or "valid" with the serialized instance,
    which pins what was read: tables, order and labels."""
    try:
        parsed = parse_instance(text)
    except ParseError as exc:
        return ["ParseError", str(exc), exc.line, exc.column]
    except ValidationError as exc:
        return ["ValidationError", [v.as_dict() for v in exc.violations]]
    return ["valid", serialize_instance(*parsed)]


def test_parse_errors_pinned():
    digest = hashlib.sha256()
    count = 0
    for text in _parse_corpus():
        digest.update(json.dumps(_parse_outcome(text)).encode())
        count += 1
    assert count == PARSE_CORPUS_SIZE
    assert digest.hexdigest() == PARSE_SHA256


# Recorded at a1149f9: one digest over ``_parse_outcome`` of each edit in
# ``_table_statement_corpus``, with the serialized instance of each valid
# one, pinning the parse of the statements a block repeats (mul, act, leq,
# label) beyond the first 40 lines that ``_parse_corpus`` edits.
TABLE_STATEMENT_SHA256 = "1330a628f7285e18b672dd3a0bab3a012ccedf6d6d477bf087612633fd1cdf15"
TABLE_STATEMENT_CORPUS_SIZE = 4097
TABLE_WORDS = ("mul", "act", "leq", "label")
# Spellings of an id that ``int()`` accepts or rejects beyond those of
# ``_line_edits``: a sign, a leading zero, a digit separator, an Arabic-Indic
# three, a superscript two (a digit to ``str.isdigit`` but not to ``int``)
# and a negative zero.
ID_SPELLINGS = ("+1", "01", "1_0", "٣", "²", "-0")


def _table_statement_corpus():
    """Edits of serialized zn-square-4 at its mul, act, leq and label lines:
    each ``_line_edits`` edit; each id respelled by ID_SPELLINGS, set to its
    bound or one below, or set off by a tab; a table line's first id out of
    range and its last not an integer; a repeated act line with a
    conflicting value; a trailing comment; act lines moved above the
    module's elements line; mul and act lines moved between the blocks; an
    elements line dropped or moved to the end; and an empty lattice block."""
    M = gen_zn_square_module(4)
    m = M.element_count
    lines = serialize_instance(M.lattice, M).split("\n")

    def replaced(k, *edits):
        return "\n".join(lines[:k] + list(edits) + lines[k + 1:])

    words = [line.split()[0] if line.split() else "" for line in lines]
    module = lines.index("module")
    lattice_count = M.lattice.element_count
    for k, line in enumerate(lines):
        if words[k] not in TABLE_WORDS:
            continue
        for edit in _line_edits(line):
            yield replaced(k, edit)
        spans = [mt.span() for mt in re.finditer(r"\S+", line)]
        ids = spans[1:2] if words[k] == "label" else spans[1:]
        bounds = [m if k > module else lattice_count] * len(ids)
        if words[k] == "act":
            bounds[0] = lattice_count
        for (start, end), bound in zip(ids, bounds):
            for token in (*ID_SPELLINGS, str(bound - 1), str(bound)):
                yield replaced(k, line[:start] + token + line[end:])
            yield replaced(k, line[:start - 1] + "\t" + line[start:])
        yield replaced(k, line + " # comment")
        yield replaced(k, line + "#")
        if words[k] in ("mul", "act"):
            i, j, v = line.split()[1:]
            yield replaced(k, f"{words[k]} 99 {j} x")
            yield replaced(k, line, f"{words[k]} {i} {j} {(int(v) + 1) % m}")

    mod_elements = next(k for k in range(module, len(lines)) if words[k] == "elements")
    lat_elements = words.index("elements")
    acts = [k for k, word in enumerate(words) if word == "act"]
    muls = [k for k, word in enumerate(words) if word == "mul"]

    def moved(k, to):
        rest = lines[:k] + lines[k + 1:]
        to = to if to < k else to - 1
        return "\n".join(rest[:to] + [lines[k]] + rest[to:])

    for k in (acts[0], acts[len(acts) // 2], acts[-1]):
        yield moved(k, mod_elements)        # above the module's elements line
        yield moved(k, module)              # into the lattice block
        yield moved(k, lat_elements)        # above the lattice's elements line
    for k in (muls[0], muls[-1]):
        yield moved(k, mod_elements + 1)    # into the module block
        yield moved(k, lat_elements)        # above the lattice's elements line
    swapped = list(lines)
    swapped[muls[0]], swapped[acts[0]] = lines[acts[0]], lines[muls[0]]
    yield "\n".join(swapped)
    for k in (lat_elements, mod_elements):
        yield replaced(k, "")               # no elements declaration
        yield moved(k, len(lines))          # declared after the block's table
    yield "\n".join(lines[:lat_elements] + lines[module:])    # an empty lattice block


def test_table_statement_parse_pinned():
    digest = hashlib.sha256()
    count = 0
    for text in _table_statement_corpus():
        digest.update(json.dumps(_parse_outcome(text)).encode())
        count += 1
    assert count == TABLE_STATEMENT_CORPUS_SIZE
    assert digest.hexdigest() == TABLE_STATEMENT_SHA256
