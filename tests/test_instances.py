import contextlib
import io
import re
import tracemalloc
from math import gcd, lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latmod import (
    ParseError,
    ValidationError,
    gen_zn_ideal_lattice,
    gen_zn_self_module,
    gen_zn_square_module,
    is_faithful,
    is_multiplication_module,
    is_pg_lattice,
    is_pg_module,
    is_principal_l,
    l_element_flags,
    parse_instance,
    serialize_instance,
    sqrt,
    validate_lattice,
    validate_module,
)
from latmod.cli import main
from latmod.instances import FAMILIES, InstanceSpec, divisors

from conftest import label_index

FIXTURES = Path(__file__).parent / "fixtures"

# every hand-written fixture with its expected outcome: None = parses and
# validates; otherwise the exception class and a fragment of its message
FIXTURE_EXPECTATIONS = {
    "v01_two_chain.mlat": None,
    "v02_two_chain_module.mlat": None,
    "v03_comments_blank.mlat": None,
    "v04_diamond.mlat": None,
    "v05_one_element.mlat": None,
    "v06_redundant_leq.mlat": None,
    "e01_bad_header.mlat": (ParseError, "mlat 1"),
    "e02_truncated.mlat": (ParseError, "non-total"),
    "e03_dangling_mul.mlat": (ParseError, "dangling element id 9"),
    "e04_dangling_leq.mlat": (ParseError, "dangling element id 5"),
    "e05_unknown_directive.mlat": (ParseError, "unknown directive"),
    "e06_non_integer.mlat": (ParseError, "expected an integer"),
    "e07_missing_elements.mlat": (ParseError, "before the block's elements"),
    "e08_no_lattice_block.mlat": (ParseError, "requires a preceding lattice block"),
    "e09_duplicate_block.mlat": (ParseError, "duplicate lattice block"),
    "e10_conflicting_mul.mlat": (ParseError, "conflicting mul entry"),
    "e11_order_cycle.mlat": (ValidationError, "order-antisymmetric"),
    "e12_no_lub.mlat": (ValidationError, "order-lub"),
    "e13_axiom_identity.mlat": (ValidationError, "mul-identity"),
    "e14_axiom_distributive.mlat": (ValidationError, "mul-join-distributive"),
    "e15_module_axiom4.mlat": (ValidationError, "axiom-4"),
    "e16_wrong_arity.mlat": (ParseError, "argument"),
}


# ---------------------------------------------------------------------------
# generators


def test_zn12_shape(l12):
    assert l12.element_count == 6
    assert [l12.label(i) for i in range(6)] == ["(1)", "(2)", "(3)", "(4)", "(6)", "(0)"]
    primes = {l12.label(a) for a in l12.elements() if l_element_flags(l12, a).prime}
    assert primes == {"(2)", "(3)"}


def test_zn1_trivial():
    L = gen_zn_ideal_lattice(1)
    assert L.element_count == 1
    M = gen_zn_self_module(1)
    assert M.element_count == 1


def test_zn8_chain(l8):
    idx = label_index(l8)
    assert l8.element_count == 4
    # (1) > (2) > (4) > (0)
    assert l8.le(idx["(0)"], idx["(4)"]) and l8.le(idx["(4)"], idx["(2)"])
    assert l8.label(sqrt(l8, idx["(4)"])) == "(2)"


def test_divisors_match_the_definition():
    for n in range(1, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n
    assert divisors(0) == []


def test_divisors_of_a_large_semiprime():
    # trial division up to n would take hours here; up to sqrt(n), well under a second
    p, q = 1000003, 1000033
    assert divisors(p * q) == [1, p, q, p * q]


def test_zn_ideal_join_meet_are_gcd_lcm():
    # the order alone gives the ideal sum (gcd) as join and the intersection (lcm) as meet
    for n in range(1, 121):
        L = gen_zn_ideal_lattice(n)
        divs = divisors(n)
        index = {d: i for i, d in enumerate(divs)}
        assert L.join_table.tolist() == [[index[gcd(d, e)] for e in divs] for d in divs], n
        assert L.meet_table.tolist() == [[index[lcm(d, e)] for e in divs] for d in divs], n


def test_generators_are_pg_with_principal_elements():
    for n in (2, 6, 12, 16, 30):
        L = gen_zn_ideal_lattice(n)
        assert is_pg_lattice(L)
        assert all(is_principal_l(L, e) for e in L.elements())


def test_self_module_flags():
    for n in (8, 12):
        M = gen_zn_self_module(n)
        assert is_multiplication_module(M)
        assert is_faithful(M)
        assert is_pg_module(M)


def test_square_subgroup_counts():
    # number of subgroups of Z_n x Z_n: sum of gcd(a, n/b) over divisor pairs
    for n in (2, 3, 4, 8):
        expected = sum(np.gcd(a, n // b) for a in divisors(n) for b in divisors(n))
        M = gen_zn_square_module(n)
        assert M.element_count == expected
    assert gen_zn_square_module(2).element_count == 5


def test_square_cap():
    with pytest.raises(ValueError, match="cap"):
        gen_zn_square_module(17)
    assert gen_zn_square_module(17, cap=17).element_count > 0


def test_square_labels(m8square):
    idx = label_index(m8square)
    assert m8square.bottom == idx["8Zx8Z"]
    assert m8square.top == idx["1Zx1Z"]
    assert "4Zx2Z" in idx and "<(2,1)>" in idx


def test_instance_spec_families():
    for family, (_, top) in FAMILIES.items():
        name, L, M = InstanceSpec(family=family, n=6).build()
        assert name == f"{family}-6" and L.element_count == 4
        assert (M is None) == (top is None)     # verify --family runs the module families
    name, L, M = InstanceSpec(family="zn-self", n=6).build()
    assert M is not None and M.element_count == 4
    with pytest.raises(ValueError):
        InstanceSpec(family="nope", n=6).build()


# ---------------------------------------------------------------------------
# round trips


def structurally_equal(a, b):
    if (a is None) != (b is None):
        return False
    checks = [(a.leq, b.leq), (a.join_table, b.join_table),
              (a.meet_table, b.meet_table)]
    if hasattr(a, "mul_table"):
        checks.append((a.mul_table, b.mul_table))
    else:
        checks.append((a.act_table, b.act_table))
    return (all((x == y).all() for x, y in checks)
            and a.top == b.top and a.bottom == b.bottom and a.labels == b.labels)


@pytest.mark.parametrize("build", [
    lambda: (gen_zn_ideal_lattice(12), None),
    lambda: (gen_zn_self_module(12).lattice, gen_zn_self_module(12)),
    lambda: (gen_zn_square_module(4).lattice, gen_zn_square_module(4)),
    lambda: (gen_zn_square_module(8).lattice, gen_zn_square_module(8)),
])
def test_round_trip_generated(build):
    L, M = build()
    text = serialize_instance(L, M)
    L2, M2 = parse_instance(text)
    assert structurally_equal(L, L2)
    if M is None:
        assert M2 is None
    else:
        assert structurally_equal(M, M2)
    assert serialize_instance(L2, M2) == text


def test_serialization_canonical():
    a = serialize_instance(gen_zn_ideal_lattice(12))
    b = serialize_instance(gen_zn_ideal_lattice(12))
    assert a == b  # identical bytes for structurally identical instances


@pytest.mark.parametrize("name", sorted(FIXTURE_EXPECTATIONS))
def test_fixture(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    expected = FIXTURE_EXPECTATIONS[name]
    if expected is None:
        L, M = parse_instance(text)
        canonical = serialize_instance(L, M)
        L2, M2 = parse_instance(canonical)
        assert structurally_equal(L, L2)
        assert serialize_instance(L2, M2) == canonical
    else:
        exc_type, fragment = expected
        with pytest.raises(exc_type) as err:
            parse_instance(text)
        detail = str(err.value)
        if isinstance(err.value, ValidationError):
            detail += " " + " ".join(v.axiom for v in err.value.violations)
        assert fragment.lower() in detail.lower()


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance((FIXTURES / "e03_dangling_mul.mlat").read_text(encoding="utf-8"))
    assert err.value.line == 6
    with pytest.raises(ParseError) as err:
        parse_instance("mlat 1\nlattice\nelements 2\nleq 0 x\n")
    assert err.value.line == 4 and err.value.column == 7


def test_hand_written_two_chain_semantics():
    L, M = parse_instance((FIXTURES / "v02_two_chain_module.mlat").read_text(encoding="utf-8"))
    assert is_pg_lattice(L)
    assert M is not None and is_multiplication_module(M)


def test_label_with_spaces_preserved():
    L, _ = parse_instance((FIXTURES / "v03_comments_blank.mlat").read_text(encoding="utf-8"))
    assert L.labels == ("the zero element", "the one element")
    assert "label 0 the zero element" in serialize_instance(L)


# labels that the rest of a "label" line cannot carry: each would read back
# as another label ("a", "pad") or not parse at all
UNWRITABLE_LABELS = ["", " pad", "pad ", "\tpad\x0c", "a#b", "two\nlines", "two\rlines"]


@pytest.mark.parametrize("label", UNWRITABLE_LABELS, ids=ascii)
def test_unwritable_label_is_a_labels_violation(label):
    L, M = gen_zn_ideal_lattice(12), gen_zn_square_module(4)
    with pytest.raises(ValidationError) as err:
        validate_lattice(L.leq, L.mul_table, labels=L.labels[:2] + (label,) + L.labels[3:])
    assert [(v.axiom, v.witness) for v in err.value.violations] == [("labels", (2,))]
    assert f"label 2 {label!r}" in str(err.value)
    labels = list(M.labels)
    labels[5] = labels[9] = label
    with pytest.raises(ValidationError) as err:
        validate_module(M.lattice, M.leq, M.act_table, labels=labels)
    assert [(v.axiom, v.witness) for v in err.value.violations] == [("labels", (5,)), ("labels", (9,))]


@given(st.text(max_size=6))
def test_every_validated_label_round_trips(label):
    L = gen_zn_ideal_lattice(2)
    try:
        L = validate_lattice(L.leq, L.mul_table, labels=(label, "one"))
    except ValidationError:
        assert not label or label != label.strip() or any(ch in label for ch in "#\n\r")
        return
    assert parse_instance(serialize_instance(L))[0].labels == (label, "one")


TWO_CHAIN = "lattice\nelements 2\nleq 0 1\nmul 0 0 0\nmul 0 1 0\nmul 1 0 0\nmul 1 1 1\n"


@pytest.mark.parametrize("text, message", [
    ("mlat 1\nlattice\nelements 1000000000\nmul 0 0 0\n",
     "non-total mul table: missing entry for (0, 1) (line 2)"),
    (f"mlat 1\n{TWO_CHAIN}module\nelements 1000000000\nact 0 0 0\n",
     "non-total act table: missing entry for (0, 1) (line 9)"),
], ids=["lattice", "module"])
def test_huge_element_count_rejected_without_allocating(text, message):
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == message
    assert peak < 1 << 20


LATTICE_2 = "lattice\nelements 2\n"


@pytest.mark.parametrize("text, message", [
    (LATTICE_2 + "mul 9 0 x", "expected an integer, got 'x' (line 4, column 9)"),
    (LATTICE_2 + "mul 0 9 -1", "dangling element id 9 (mul) (line 4, column 7)"),
    (LATTICE_2 + "leq 9 x", "dangling element id 9 (leq) (line 4, column 5)"),
    (LATTICE_2 + "leq x 9", "expected an integer, got 'x' (line 4, column 5)"),
    (LATTICE_2 + "leq 0 x", "expected an integer, got 'x' (line 4, column 7)"),
    (LATTICE_2 + "label 9 x", "dangling element id 9 (label) (line 4, column 7)"),
    (LATTICE_2 + "top  9", "dangling element id 9 (top) (line 4, column 6)"),
    (LATTICE_2 + "bot 1.5", "expected an integer, got '1.5' (line 4, column 5)"),
    ("lattice\nmul 0 0 x", "expected an integer, got 'x' (line 3, column 9)"),
    ("lattice\nleq 0 x", "'leq' statement before the block's elements declaration (line 3, column 5)"),
    ("lattice\ntop 0", "'top' statement before the block's elements declaration (line 3, column 5)"),
    (TWO_CHAIN + "module\nact 0 0 9 x", "'act' takes 3 argument(s), got 4 (line 10, column 1)"),
    (TWO_CHAIN + "module\nelements 2\nact 2 0 x", "expected an integer, got 'x' (line 11, column 9)"),
    (TWO_CHAIN + "module\nelements 2\nact 2 0 0", "dangling element id 2 (act) (line 11, column 5)"),
    # an act statement's first id is bounded by the lattice block, whose count is missing here
    ("lattice\nmodule\nelements 2\nact 0 0 0",
     "'act' statement before the lattice block's elements declaration (line 5, column 5)"),
    ("lattice\nmodule\nact 0 0 0",
     "'act' statement before the lattice block's elements declaration (line 4, column 5)"),
    ("lattice\nelements 1\nmul 0 0 0\nmodule\nact 0 0 0",
     "'act' statement before the block's elements declaration (line 6, column 7)"),
], ids=["mul", "mul-bound", "leq", "leq-int", "leq-second", "label", "top", "bot",
        "mul-early", "leq-early", "top-early", "act-arity", "act-int", "act-bound",
        "act-lattice-early", "act-both-early", "act-module-early"])
def test_statement_ids_checked_in_order(text, message):
    # mul/act read all three ids before checking any bound; leq, top, bot and
    # label check each id as they read it
    with pytest.raises(ParseError) as err:
        parse_instance("mlat 1\n" + text + "\n")
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("mlat 1\n", "missing lattice block (line 1)"),
    ("mlat 1\nlattice\n", "lattice block has no elements declaration (line 2)"),
], ids=["no-block", "no-elements"])
def test_incomplete_file_rejected(text, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert str(err.value) == message


# str.splitlines() also breaks at these; MLAT lines end only at \n, \r\n or \r
NON_NEWLINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", NON_NEWLINE_BREAKS, ids=ascii)
def test_non_newline_breaks_stay_inside_a_line(brk):
    v01 = (FIXTURES / "v01_two_chain.mlat").read_text(encoding="utf-8")
    L, _ = parse_instance(f"# pasted note{brk}with a break\n" + v01)
    assert serialize_instance(L) == serialize_instance(parse_instance(v01)[0])
    with pytest.raises(ParseError) as err:   # the dangling id sits on line 6 of e03
        parse_instance(f"# note{brk}more\n" + (FIXTURES / "e03_dangling_mul.mlat").read_text(encoding="utf-8"))
    assert (err.value.line, err.value.column) == (7, 9)
    # inside a line, such a character separates tokens like a space
    L, _ = parse_instance(v01.replace("leq 0 1", f"leq{brk}0 1"))
    assert L.le(0, 1)


@pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=ascii)
def test_crlf_and_cr_line_ends(eol):
    text = (FIXTURES / "e03_dangling_mul.mlat").read_text(encoding="utf-8")
    with pytest.raises(ParseError) as err:
        parse_instance(text.replace("\n", eol))
    assert (err.value.line, err.value.column) == (6, 9)
    v01 = (FIXTURES / "v01_two_chain.mlat").read_text(encoding="utf-8")
    assert serialize_instance(*parse_instance(v01.replace("\n", eol))) == \
        serialize_instance(*parse_instance(v01))


# What a fuzzed line is made of: an MLAT word, then the words again, ids in
# and out of range, spellings that int() accepts or rejects, a comment mark,
# and a tab and a form feed, which separate tokens inside a line
MLAT_WORDS = ("mlat", "lattice", "module", "elements", "leq", "top", "bot", "mul", "act", "label")
FUZZ_TOKENS = MLAT_WORDS + ("0", "1", "3", "-1", "99", "x", "#", "٣", "1_0", "+0", "²", "\t",
                            "\x0c")
FUZZ_BASES = ([path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.mlat"))]
              + [serialize_instance(M.lattice, M)
                 for M in (gen_zn_self_module(4), gen_zn_square_module(2))])


@st.composite
def edited_mlat(draw):
    """A fixture or a serialized instance with 1-4 line edits: a line
    deleted, duplicated, swapped with another, given one new token, or
    inserted: an MLAT word and up to four FUZZ_TOKENS."""
    lines = draw(st.sampled_from(FUZZ_BASES)).split("\n")
    token = st.sampled_from(FUZZ_TOKENS)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert"]))
        if edit == "delete" and len(lines) > 1:
            del lines[k]
        elif edit == "duplicate":
            lines.insert(k, lines[k])
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif edit == "replace" and lines[k].split():
            start, end = draw(st.sampled_from([m.span() for m in re.finditer(r"\S+", lines[k])]))
            lines[k] = lines[k][:start] + draw(token) + lines[k][end:]
        elif edit == "insert":
            words = [draw(st.sampled_from(MLAT_WORDS)), *draw(st.lists(token, max_size=4))]
            lines.insert(k, " ".join(words))
    return "\n".join(lines)


@given(edited_mlat())
def test_edited_input_parses_or_raises_a_located_error(text):
    try:
        parse_instance(text)
    except ParseError as err:
        # MLAT lines end at \n, \r\n or \r only
        assert err.line is not None and 1 <= err.line <= len(re.split(r"\r\n|\r|\n", text))
    except ValidationError:
        pass


@given(edited_mlat())
def test_edited_input_through_the_cli(tmp_path_factory, text):
    # every edit exits 0, 1 or 2 without raising, and a valid file with a
    # module block classifies
    path = tmp_path_factory.getbasetemp() / "edited.mlat"
    path.write_bytes(text.encode("utf-8"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["validate", str(path)])
        assert code in (0, 1, 2)
        if code == 0 and "+module" in out.getvalue():
            assert main(["classify", str(path), "--all", "--format", "json"]) == 0
