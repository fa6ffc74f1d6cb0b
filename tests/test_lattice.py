import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latmod import (
    ValidationError,
    gen_zn_ideal_lattice,
    is_pg_lattice,
    is_principal_l,
    l_element_flags,
    residual_ll,
    sqrt,
    stable_power,
    validate_lattice,
)
from latmod.lattice import _derive_join_meet, lattice_violations, sqrt_table

from conftest import label_index


def two_chain():
    leq = [[True, True], [False, True]]
    mul = [[0, 0], [0, 1]]  # meet; 1 is the top
    return validate_lattice(leq, mul)


# ---------------------------------------------------------------------------
# validation


def test_zn12_revalidates(l12):
    rebuilt = validate_lattice(l12.leq, l12.mul_table,
                               join_table=l12.join_table, meet_table=l12.meet_table,
                               top=l12.top, bottom=l12.bottom, labels=l12.labels)
    assert rebuilt.element_count == 6
    assert (rebuilt.join_table == l12.join_table).all()


def test_one_element_lattice():
    L = validate_lattice([[True]], [[0]])
    assert L.top == L.bottom == 0
    assert is_pg_lattice(L)
    assert list(L.proper_elements()) == []


def test_two_chain_valid_pg():
    L = two_chain()
    assert is_pg_lattice(L)
    assert is_principal_l(L, 0) and is_principal_l(L, 1)


def test_order_violations_reported():
    bad = np.array([[True, True], [True, True]])  # antisymmetry fails
    violations = lattice_violations(bad, [[0, 0], [0, 1]])
    assert any(v.axiom == "order-antisymmetric" for v in violations)

    bad = np.array([[False, True], [False, True]])  # not reflexive at 0
    violations = lattice_violations(bad, [[0, 0], [0, 1]])
    assert violations[0].axiom == "order-reflexive"

    # 0 <= 1 <= 2 without 0 <= 2
    bad = np.eye(3, dtype=bool)
    bad[0, 1] = bad[1, 2] = True
    violations = lattice_violations(bad, np.zeros((3, 3), dtype=int))
    assert any(v.axiom == "order-transitive" for v in violations)


def test_missing_lub_detected():
    # 0 below 1, 2; both 1 and 2 below 3 and 4; (1, 2) has two minimal uppers
    n = 5
    leq = np.eye(n, dtype=bool)
    for i, j in [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)]:
        leq[i, j] = True
    leq[0, 3] = leq[0, 4] = True
    violations = lattice_violations(leq, np.zeros((n, n), dtype=int))
    assert any(v.axiom == "order-lub" for v in violations)


def test_supplied_table_cross_checked(l12):
    wrong = l12.join_table.copy()
    wrong[1, 2] = 5  # join((2), (3)) is (1), id 0, not the bottom
    with pytest.raises(ValidationError) as err:
        validate_lattice(l12.leq, l12.mul_table, join_table=wrong)
    assert any(v.axiom == "join-table" for v in err.value.violations)
    with pytest.raises(ValidationError) as err:
        validate_lattice(l12.leq, l12.mul_table, top=l12.bottom)
    assert any(v.axiom == "top" for v in err.value.violations)


def test_bad_join_reported_with_malformed_meet(l12):
    join = l12.join_table.copy()
    join[1, 2] = 5  # join((2), (3)) is (1), id 0
    violations = lattice_violations(l12.leq, l12.mul_table, join, l12.meet_table[:5])
    assert [v.axiom for v in violations] == ["join-table", "meet-shape"]


@st.composite
def partial_orders(draw):
    """A random order on up to 8 elements: the transitive closure of random
    pairs i < j, half of them with a bottom and a top adjoined (so lattices
    come up often), with the carrier ids shuffled."""
    n = draw(st.integers(1, 8))
    leq = np.eye(n, dtype=bool)
    for i, j in itertools.combinations(range(n), 2):
        leq[i, j] = draw(st.booleans())
    if draw(st.booleans()):
        leq[0, :] = leq[:, n - 1] = True
    for k in range(n):
        leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    perm = draw(st.permutations(range(n)))
    return leq[np.ix_(perm, perm)]


def bound_by_definition(leq, i, j, upper):
    """The lub (upper) or glb of i and j straight from the definition, or None."""
    n = len(leq)
    le = (lambda a, b: leq[a][b]) if upper else (lambda a, b: leq[b][a])
    bounds = [k for k in range(n) if le(i, k) and le(j, k)]
    least = [u for u in bounds if all(le(u, k) for k in bounds)]
    return least[0] if least else None


@given(partial_orders())
def test_lub_glb_against_definition(leq):
    n = len(leq)
    join = np.zeros((n, n), dtype=np.int64)
    meet = np.zeros((n, n), dtype=np.int64)
    missing = []
    for i in range(n):
        for j in range(i, n):
            for axiom, table, upper in (("order-lub", join, True), ("order-glb", meet, False)):
                bound = bound_by_definition(leq, i, j, upper)
                if bound is None:
                    missing.append((axiom, (i, j)))
                else:
                    table[i, j] = table[j, i] = bound
    violations = lattice_violations(leq, np.zeros((n, n), dtype=np.int64), join, meet)
    if missing:
        assert [(v.axiom, v.witness) for v in violations] == missing
    else:
        # the derived tables are cross-checked against the supplied ones
        assert not {"order-lub", "order-glb", "join-table", "meet-table"} & {v.axiom for v in violations}


def test_derive_join_meet_memory_bounded():
    n = 600  # a chain; the j >= i half of a boolean pair tensor would take 108 MB
    leq = np.triu(np.ones((n, n), dtype=bool))
    tracemalloc.start()
    try:
        join, meet, violations = _derive_join_meet(leq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ids = np.arange(n)
    assert not violations
    assert (join == np.maximum.outer(ids, ids)).all()
    assert (meet == np.minimum.outer(ids, ids)).all()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_mutated_mul_cell_detected(l12):
    idx = label_index(l12)
    mutated = l12.mul_table.copy()
    mutated[idx["(2)"], idx["(2)"]] = idx["(2)"]  # (2)*(2) was (4)
    violations = lattice_violations(l12.leq, mutated)
    assert violations
    assert {v.axiom for v in violations} <= {
        "mul-commutative", "mul-associative", "mul-identity", "mul-join-distributive"}


# ---------------------------------------------------------------------------
# residuals, powers, radicals


def test_residual_values(l12):
    idx = label_index(l12)
    assert l12.label(residual_ll(l12, idx["(4)"], idx["(2)"])) == "(2)"
    for a in l12.elements():
        assert residual_ll(l12, a, l12.top) == a       # (a : 1) = a
        assert residual_ll(l12, l12.top, a) == l12.top  # (1 : b) = 1


def test_residual_adjunction(l12, l8):
    for L in (l12, l8):
        for a, b, x in itertools.product(L.elements(), repeat=3):
            assert L.le(L.mul(x, b), a) == L.le(x, residual_ll(L, a, b))


def test_power_stabilization(l12):
    n = l12.element_count
    for a in l12.elements():
        powers = [a]
        for _ in range(n + 1):
            powers.append(l12.mul(powers[-1], a))
        for p, q in zip(powers, powers[1:]):
            assert l12.le(q, p)  # descending
        assert powers[n - 1] == powers[n] == stable_power(l12, a)


def test_sqrt_values(l12):
    idx = label_index(l12)
    assert l12.label(sqrt(l12, idx["(4)"])) == "(2)"
    assert l12.label(sqrt(l12, idx["(0)"])) == "(6)"
    assert sqrt(l12, l12.top) == l12.top


def test_sqrt_oracle_brute_force(l12, l8):
    # independent route: try every exponent up to the carrier size
    for L in (l12, l8):
        n = L.element_count
        for a in L.elements():
            members = []
            for x in L.elements():
                p = x
                hits = False
                for _ in range(n + 1):
                    if L.le(p, a):
                        hits = True
                        break
                    p = L.mul(p, x)
                if hits:
                    members.append(x)
            assert L.join_all(members) == sqrt(L, a)


def test_sqrt_properties(l12):
    L = l12
    for a in L.elements():
        assert L.le(a, sqrt(L, a))
        assert sqrt(L, sqrt(L, a)) == sqrt(L, a)
        for b in L.elements():
            if L.le(a, b):
                assert L.le(sqrt(L, a), sqrt(L, b))
            assert sqrt(L, L.meet(a, b)) == L.meet(sqrt(L, a), sqrt(L, b))


# ---------------------------------------------------------------------------
# element flags


def brute_force_prime(L, p):
    if p == L.top:
        return False
    return all(not L.le(L.mul(a, b), p) or L.le(a, p) or L.le(b, p)
               for a in L.elements() for b in L.elements())


def test_prime_flags_against_oracle(l12, l8):
    for L in (l12, l8):
        for a in L.elements():
            assert l_element_flags(L, a).prime == brute_force_prime(L, a)


def test_flag_values(l12):
    idx = label_index(l12)
    f2 = l_element_flags(l12, idx["(2)"])
    assert f2.prime and f2.primary and f2.maximal and f2.compact
    f0 = l_element_flags(l12, idx["(0)"])
    assert not f0.primary and not f0.prime
    ftop = l_element_flags(l12, l12.top)
    assert not ftop.proper and not ftop.prime
    assert {l12.label(a) for a in l12.elements() if l_element_flags(l12, a).maximal} \
        == {"(2)", "(3)"}
    assert all(not l_element_flags(l12, a).prime or l_element_flags(l12, a).primary
               for a in l12.elements())
    # prime implies fixed under sqrt
    for a in l12.elements():
        if l_element_flags(l12, a).prime:
            assert sqrt(l12, a) == a


def test_pg_and_principal(l12):
    assert is_pg_lattice(l12)
    assert all(is_principal_l(l12, e) for e in l12.elements())
    assert is_pg_lattice(two_chain())


def test_mul_below_meet(l12, l8):
    for L in (l12, l8):
        for a in L.elements():
            for b in L.elements():
                assert L.le(L.mul(a, b), L.meet(a, b))


def test_join_distributivity_over_random_subsets(l12):
    # a * (join S) == join {a*s}; the binary axiom lifts to finite subsets
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randrange(l12.element_count)
        subset = rng.sample(range(l12.element_count), rng.randint(0, l12.element_count))
        lhs = l12.mul(a, l12.join_all(subset))
        rhs = l12.join_all(l12.mul(a, s) for s in subset)
        assert lhs == rhs


def test_sqrt_table_read_only(l12):
    table = sqrt_table(l12)
    with pytest.raises(ValueError):
        table[0] = 1
