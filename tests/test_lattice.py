import itertools
import random
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from latmod import (
    ValidationError,
    gen_zn_ideal_lattice,
    gen_zn_self_module,
    gen_zn_square_module,
    is_pg_lattice,
    is_principal_l,
    l_element_flags,
    parse_instance,
    residual_ll,
    sqrt,
    stable_power,
    validate_lattice,
)
from latmod import lattice
from latmod.lattice import (
    Violation,
    _bool_matmul,
    _derive_join_meet,
    _least_upper_bounds,
    is_join_principal_l,
    is_meet_principal_l,
    is_p_primary_l,
    lattice_violations,
    sqrt_table,
)

from conftest import label_index

FIXTURES = Path(__file__).parent / "fixtures"


CHAIN = [[True, True], [False, True]]     # 0 < 1
CHAIN_MUL = [[0, 0], [0, 1]]              # meet; 1 is the top


def two_chain():
    return validate_lattice(CHAIN, CHAIN_MUL)


# ---------------------------------------------------------------------------
# validation


def test_zn12_revalidates(l12):
    rebuilt = validate_lattice(l12.leq, l12.mul_table,
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
    with pytest.raises(ValidationError) as err:
        validate_lattice(l12.leq, l12.mul_table, top=l12.bottom)
    assert any(v.axiom == "top" for v in err.value.violations)


@pytest.mark.parametrize("leq, mul, declared, expected", [
    ([True, True], CHAIN_MUL, {}, [
        Violation("order-shape", (), "leq must be a square matrix, got (2,)")]),
    ([[True, True]], CHAIN_MUL, {}, [
        Violation("order-shape", (), "leq must be a square matrix, got (1, 2)")]),
    (np.zeros((0, 0), dtype=bool), [], {}, [
        Violation("order-shape", (), "carrier must be nonempty")]),
    (CHAIN, [[0, 0, 0], [0, 1, 1]], {}, [
        Violation("mul-shape", (), "mul table must be 2x2, got (2, 3)")]),
    (CHAIN, [[0, -1], [0, 1]], {}, [
        Violation("mul-range", (0, 1), "mul[0,1] = -1 is not a carrier id")]),
    (CHAIN, [[0, 0], [0, 2]], {}, [
        Violation("mul-range", (1, 1), "mul[1,1] = 2 is not a carrier id")]),
    (CHAIN, CHAIN_MUL, {"top": 0, "bottom": 1}, [
        Violation("top", (0,), "declared top 0, order gives 1"),
        Violation("bottom", (1,), "declared bottom 1, order gives 0")]),
    (CHAIN, [[0, 0]], {"bottom": 1}, [
        Violation("bottom", (1,), "declared bottom 1, order gives 0"),
        Violation("mul-shape", (), "mul table must be 2x2, got (1, 2)")]),
], ids=["1-d", "non-square", "empty", "shape", "negative", "too-large", "top-bottom",
        "bottom-then-shape"])
def test_raw_table_guards(leq, mul, declared, expected):
    assert lattice_violations(leq, mul, **declared) == expected


def test_label_count_checked():
    with pytest.raises(ValidationError) as err:
        validate_lattice(CHAIN, CHAIN_MUL, labels=["0"])
    assert err.value.violations == [Violation("labels", (), "expected 2 labels, got 1")]


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
    join = np.full((n, n), -1, dtype=np.int64)   # -1 where the bound is missing
    meet = np.full((n, n), -1, dtype=np.int64)
    missing = []
    for i in range(n):
        for j in range(i, n):
            for axiom, table, upper in (("order-lub", join, True), ("order-glb", meet, False)):
                bound = bound_by_definition(leq, i, j, upper)
                if bound is None:
                    missing.append((axiom, (i, j)))
                else:
                    table[i, j] = table[j, i] = bound
    derived_join, derived_meet, derived_missing = _derive_join_meet(leq)
    assert derived_join.tolist() == join.tolist()
    assert derived_meet.tolist() == meet.tolist()
    assert [(v.axiom, v.witness) for v in derived_missing] == missing
    if missing:  # validation stops at the missing bounds
        violations = lattice_violations(leq, np.zeros((n, n), dtype=np.int64))
        assert [(v.axiom, v.witness) for v in violations] == missing


@given(partial_orders(), st.data())
def test_least_upper_bounds_match_join_fold(leq, data):
    join, _, missing = _derive_join_meet(leq)
    assume(not missing)
    n = len(leq)
    bottom = int(np.flatnonzero(leq.all(axis=1))[0])
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=6))
    families = np.array([[False] * n] + rows, dtype=bool)  # the empty family first
    folds = []
    for family in families:
        out = bottom
        for x in np.flatnonzero(family):
            out = int(join[out, x])
        folds.append(out)
    assert _least_upper_bounds(leq, families).tolist() == folds


@st.composite
def bool_operands(draw):
    """Boolean a (n x k) and b (k x m) with n, k, m all in 0..20 (n*k*m below
    the default ``lattice._BLAS_MIN_PRODUCTS``) or all in 21..40 (above it).
    Each is a plain array, a transposed view, a strided view, or negated
    fancy-indexed columns like ``~leq[:, xs]``."""
    sizes = st.integers(21, 40) if draw(st.booleans()) else st.integers(0, 20)
    n, k, m = draw(sizes), draw(sizes), draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def operand(rows, cols):
        p = draw(st.sampled_from([0.02, 0.3, 0.9]))
        layout = draw(st.sampled_from(["plain", "T", "strided", "fancy"]))
        if layout == "T":
            return (rng.random((cols, rows)) < p).T
        if layout == "strided":
            return (rng.random((rows, 2 * cols)) < p)[:, ::2]
        if layout == "fancy":
            return ~(rng.random((rows, cols)) < p)[:, rng.permutation(cols)]
        return rng.random((rows, cols)) < p

    return operand(n, k), operand(k, m)


@given(bool_operands(), st.sampled_from([0, lattice._BLAS_MIN_PRODUCTS, 1 << 62]))
def test_bool_matmul_is_any_of_ands(operands, cutoff):
    # cutoff 0 runs every product in float32 and 1 << 62 every one in bool,
    # zero sizes included: an inner size of 0 gives all False either way
    a, b = operands
    with mock.patch.object(lattice, "_BLAS_MIN_PRODUCTS", cutoff):
        got = _bool_matmul(a, b)
    assert got.dtype == bool
    assert got.tolist() == (a[:, :, None] & b[None, :, :]).any(axis=1).tolist()


def least_common_bounds_by_row(above):
    """Reference for ``lattice._least_common_bounds``, one numpy pass per row:
    for each row i, the least member of ``above[i] & above[j]`` for every
    j >= i, or -1.  The first member met by increasing down-set size is the
    least one iff the whole set lies in its own ``above`` row."""
    n = above.shape[0]
    scan = np.argsort(above.sum(axis=0))
    above = above[:, scan]
    for i in range(n):
        common = above[i] & above[i:]
        least = scan[common.argmax(axis=1)]
        found = common.any(axis=1) & ~(common & ~above[least]).any(axis=1)
        yield np.where(found, least, -1)


def derive_join_meet_by_row(leq):
    """Reference for ``_derive_join_meet`` over :func:`least_common_bounds_by_row`."""
    n = leq.shape[0]
    join = np.empty((n, n), dtype=np.int64)
    meet = np.empty((n, n), dtype=np.int64)
    out = []
    rows = zip(least_common_bounds_by_row(leq), least_common_bounds_by_row(leq.T))
    for i, (lubs, glbs) in enumerate(rows):
        join[i, i:] = join[i:, i] = lubs
        meet[i, i:] = meet[i:, i] = glbs
        for j in np.flatnonzero((lubs < 0) | (glbs < 0)) + i:
            if join[i, j] < 0:
                out.append(Violation("order-lub", (i, int(j)), f"elements {i}, {j} have no least upper bound"))
            if meet[i, j] < 0:
                out.append(Violation("order-glb", (i, int(j)), f"elements {i}, {j} have no greatest lower bound"))
    return join, meet, out


def random_closed_order(rng, n=None):
    """The reflexive-transitive closure of random pairs i < j on ``n``
    elements (default: 1 to 16), sometimes with a bottom and a top adjoined,
    ids shuffled."""
    n = rng.randint(1, 16) if n is None else n
    p = rng.random()
    leq = np.eye(n, dtype=bool)
    for i, j in itertools.combinations(range(n), 2):
        leq[i, j] = rng.random() < p
    if rng.random() < 0.5:
        leq[0, :] = leq[:, n - 1] = True
    for k in range(n):
        leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    perm = rng.sample(range(n), n)
    return leq[np.ix_(perm, perm)]


def reference_orders():
    rng = random.Random(11)
    orders = [random_closed_order(rng) for _ in range(40)]
    for n in range(2, 31):
        orders.append(gen_zn_self_module(n).leq)        # also the order of zn-ideals-n
    for n in (2, 3, 4, 8):
        M = gen_zn_square_module(n)
        orders += [M.lattice.leq, M.leq]
    orders.append(gen_zn_square_module(24, cap=24).leq)
    # either side of one and two 64-bit words of packed up-sets: a chain both
    # ways, a random order, and divisor lattices of 63, 64 and 65 elements
    for n in (63, 64, 65, 128, 129):
        chain = np.triu(np.ones((n, n), dtype=bool))
        orders += [chain, chain.T, random_closed_order(rng, n)]
    for n in (14400, 30030, 331776):
        orders.append(gen_zn_ideal_lattice(n).leq)
    return orders


@pytest.mark.parametrize("block_cells", [1, 300, 1 << 20])
def test_blocked_join_meet_match_rows(monkeypatch, block_cells):
    monkeypatch.setattr(lattice, "_BLOCK_CELLS", block_cells)
    orders = reference_orders()
    lattices = 0
    for leq in orders:
        join, meet, missing = _derive_join_meet(leq)
        ref_join, ref_meet, ref_missing = derive_join_meet_by_row(leq)
        assert join.tolist() == ref_join.tolist()
        assert meet.tolist() == ref_meet.tolist()
        assert [v.as_dict() for v in missing] == [v.as_dict() for v in ref_missing]
        lattices += not missing
    assert 30 < lattices < len(orders)    # lattices and non-lattices alike


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
    # join and meet alone take 5.5 MB; the blocks add a bounded amount
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MB"


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


def brute_force_sqrt(L, a):
    # independent route: try every exponent up to the carrier size
    members = []
    for x in L.elements():
        p = x
        for _ in range(L.element_count + 1):
            if L.le(p, a):
                members.append(x)
                break
            p = L.mul(p, x)
    return L.join_all(members)


def test_sqrt_oracle_brute_force(l12, l8):
    for L in (l12, l8):
        for a in L.elements():
            assert brute_force_sqrt(L, a) == sqrt(L, a)


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


def brute_force_primary(L, q):
    def some_power_below(b):
        x = b
        for _ in L.elements():      # b, b^2, ..., b^n: the chain is stable by b^n
            if L.le(x, q):
                return True
            x = L.mul(x, b)
        return False

    if q == L.top:
        return False
    return all(not L.le(L.mul(a, b), q) or L.le(a, q) or some_power_below(b)
               for a in L.elements() for b in L.elements())


def test_prime_flags_against_oracle():
    for n in range(1, 121):
        L = gen_zn_ideal_lattice(n)
        for a in L.elements():
            assert l_element_flags(L, a).prime == brute_force_prime(L, a)
            assert l_element_flags(L, a).primary == brute_force_primary(L, a)


def test_prime_flags_in_one_element_blocks(monkeypatch):
    # lattice._first_witnesses at its other extreme: one element per block
    monkeypatch.setattr(lattice, "_BLOCK_CELLS", 1)
    test_prime_flags_against_oracle()


@pytest.mark.parametrize("shape", [(8, 5), (8, 4, 1), (8, 3, 1, 4), (8, 2, 3, 5), (8, 1, 1, 1)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_first_marked_against_plain_loop(shape):
    rng = np.random.default_rng(sum(shape))
    marks = rng.random(shape) < 0.2
    marks[0] = False                    # a row with no mark
    marks[1] = False
    marks[1].flat[-1] = True            # a mark only in the last cell
    # np.ndindex runs in C order: the lexicographically first index comes first
    assert lattice._first_marked(marks) == [
        next((index for index in np.ndindex(row.shape) if row[index]), None) for row in marks]


def test_p_primary_against_definition():
    # q is p-primary when q is primary, sqrt(q) = p and p is prime
    fixtures = [parse_instance(path.read_text(encoding="utf-8"))[0]
                for path in sorted(FIXTURES.glob("v*.mlat"))]
    for L in [gen_zn_ideal_lattice(n) for n in range(2, 61)] + fixtures:
        primes = [brute_force_prime(L, p) for p in L.elements()]
        for q in L.elements():
            primary, radical = brute_force_primary(L, q), brute_force_sqrt(L, q)
            assert [is_p_primary_l(L, q, p) for p in L.elements()] == [
                primary and radical == p and primes[p] for p in L.elements()]


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


def test_point_queries_reject_out_of_range_ids(l12):
    # -1 would otherwise read the last id, and the carrier size would raise
    # IndexError
    p = next(a for a in l12.elements() if l_element_flags(l12, a).prime)
    for bad in (-1, l12.element_count):
        queries = [lambda: residual_ll(l12, bad, 0), lambda: residual_ll(l12, 0, bad),
                   lambda: is_p_primary_l(l12, bad, p), lambda: is_p_primary_l(l12, p, bad)]
        queries += [partial(query, l12, bad) for query in (
            stable_power, sqrt, l_element_flags, is_meet_principal_l, is_join_principal_l,
            is_principal_l)]
        for query in queries:
            with pytest.raises(ValueError, match=rf"{bad} is not an element id of L \(0\.\.5\)"):
                query()


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
