import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
)
from latmod.instances import InstanceSpec, divisors

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


def test_instance_spec_families(tmp_path):
    name, L, M = InstanceSpec(family="zn-ideals", n=6).build()
    assert name == "zn-ideals-6" and M is None
    name, L, M = InstanceSpec(family="zn-self", n=6).build()
    assert M is not None and M.element_count == 4
    path = tmp_path / "inst.mlat"
    path.write_text(serialize_instance(L, M), encoding="utf-8")
    name, L2, M2 = InstanceSpec(family="file", path=str(path)).build()
    assert name == "inst" and (M2.act_table == M.act_table).all()
    with pytest.raises(ValueError):
        InstanceSpec(family="nope").build()


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
