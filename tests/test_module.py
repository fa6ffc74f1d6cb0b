import itertools
import random

import numpy as np
import pytest

from latmod import (
    ValidationError,
    gen_zn_self_module,
    is_faithful,
    is_multiplication_module,
    is_pg_module,
    is_principal_m,
    l_element_flags,
    lattice_flags,
    prime_elements,
    rad,
    residual_ml,
    residual_mm,
    saturation,
    validate_lattice,
    validate_module,
    variety,
    variety_l,
)
from latmod import lattice
from latmod.harness import default_instances
from latmod.lattice import Violation
from latmod.module import (
    _SUBSET_DRAW_SHAPES,
    _saturations,
    _subset_draws,
    is_join_principal_m,
    is_meet_principal_m,
    module_violations,
)

from conftest import label_index


def test_self_module_revalidates(m8self):
    rebuilt = validate_module(m8self.lattice, m8self.leq, m8self.act_table,
                              top=m8self.top, bottom=m8self.bottom)
    assert rebuilt.element_count == m8self.element_count


def test_act_mutation_axiom4(m8self):
    act = m8self.act_table.copy()
    act[m8self.lattice.top, 1] = 0  # break 1A = A for one A
    violations = module_violations(m8self.lattice, m8self.leq, act)
    assert any(v.axiom == "axiom-4" for v in violations)


def test_act_mutation_axiom5(m8self):
    act = m8self.act_table.copy()
    act[m8self.lattice.bottom, 0] = 1  # break 0A = O_M
    violations = module_violations(m8self.lattice, m8self.leq, act)
    axioms = {v.axiom for v in violations}
    assert "axiom-5" in axioms or "axiom-1" in axioms


# (8, 222) is zn-square-24's shape: samples of up to 21 of its 222 module
# elements take the set-based branch of random.sample, larger ones the pool.
def test_subset_draws_replay_the_seeded_sequence():
    for nl, m in [(1, 1), (2, 4), (6, 6), (4, 40), (8, 222)]:
        draws = _subset_draws(nl, m)
        lsets, xs, scalars, msets = draws[:4]
        assert lsets.shape == (200, nl) and msets.shape == (200, m)
        rng = random.Random(0)
        for i in range(200):
            assert np.flatnonzero(lsets[i]).tolist() == sorted(rng.sample(range(nl), rng.randint(0, nl)))
            assert xs[i] == rng.randrange(m)
            assert scalars[i] == rng.randrange(nl)
            assert np.flatnonzero(msets[i]).tolist() == sorted(rng.sample(range(m), rng.randint(0, m)))
        for arr in draws:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[-1]
        again = _subset_draws(nl, m)
        assert all(np.array_equal(a, b) for a, b in zip(again, draws))
        # the scatter indices name the images of each family's members
        act = np.arange(nl * m).reshape(nl, m)
        draw, j = np.nonzero(lsets)
        assert np.array_equal(act.take(draws.cells1), act[j, xs[draw]])
        assert np.array_equal(draws.rows1, draw * m)
        draw, j = np.nonzero(msets)
        assert np.array_equal(act.take(draws.cells2), act[scalars[draw], j])
        assert np.array_equal(draws.rows2, draw * m)


def test_subset_draws_memo_is_bounded():
    _subset_draws.cache_clear()
    for m in range(1, _SUBSET_DRAW_SHAPES + 4):
        _subset_draws(1, m)
    assert _subset_draws.cache_info().currsize == _SUBSET_DRAW_SHAPES


def test_same_shape_rejects_draw_once(monkeypatch, m8self):
    made = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    _subset_draws.cache_clear()
    monkeypatch.setattr("latmod.module.random.Random", CountingRandom)
    L = m8self.lattice
    for cell in [(L.top, 1), (L.bottom, 0)]:
        act = m8self.act_table.copy()
        act[cell] = (act[cell] + 1) % m8self.element_count
        assert module_violations(L, m8self.leq, act)
    assert made == [(0,)]


CHAIN = [[True, True], [False, True]]     # 0 < 1


@pytest.fixture(scope="module")
def two_chain():
    return validate_lattice(CHAIN, [[0, 0], [0, 1]])


@pytest.mark.parametrize("leq, act, declared, expected", [
    ([True, True], [[0, 0], [0, 1]], {}, [
        Violation("order-shape", (), "module leq must be square, got (2,)")]),
    ([[True, True]], [[0, 0], [0, 1]], {}, [
        Violation("order-shape", (), "module leq must be square, got (1, 2)")]),
    (np.zeros((0, 0), dtype=bool), np.zeros((2, 0), dtype=int), {}, [
        Violation("order-shape", (), "module carrier must be nonempty")]),
    (CHAIN, [[0, 0, 0], [0, 1, 1]], {}, [
        Violation("act-shape", (), "action table must be 2x2, got (2, 3)")]),
    (CHAIN, [[0, 0], [-1, 1]], {}, [
        Violation("act-range", (1, 0), "act[1,0] = -1 is not a module carrier id")]),
    (CHAIN, [[0, 0], [0, 5]], {}, [
        Violation("act-range", (1, 1), "act[1,1] = 5 is not a module carrier id")]),
    (CHAIN, [[0, 0]], {"bottom": 1}, [
        Violation("bottom", (1,), "declared bottom 1, order gives 0"),
        Violation("act-shape", (), "action table must be 2x2, got (1, 2)")]),
], ids=["1-d", "non-square", "empty", "shape", "negative", "too-large", "bottom-then-shape"])
def test_raw_table_guards(two_chain, leq, act, declared, expected):
    assert module_violations(two_chain, leq, act, **declared) == expected


def test_label_count_checked(two_chain):
    with pytest.raises(ValidationError) as err:
        validate_module(two_chain, CHAIN, [[0, 0], [0, 1]], labels=["0", "1", "2"])
    assert err.value.violations == [Violation("labels", (), "expected 2 labels, got 3")]


def test_spot_checks_only_after_a_join_case_fails(monkeypatch):
    # 0 < a < 1 with a*a = 0, acting on 0 < 1 with a x = x: only (3) fails,
    # and the family forms of (1) and (2) follow from their join cases
    L = validate_lattice(np.triu(np.ones((3, 3), dtype=bool)), [[0, 0, 0], [0, 0, 1], [0, 1, 2]])
    spot_checked = []
    monkeypatch.setattr("latmod.module._subset_violations",
                        lambda *args: spot_checked.append(args) or [])
    assert module_violations(L, CHAIN, [[0, 0], [0, 1], [0, 1]]) == [
        Violation("axiom-3", (1, 1, 1), "(1*1)1 = 0 but 1(11) = 1")]
    assert spot_checked == []


def test_single_element_module(l12):
    M = validate_module(l12, [[True]], np.zeros((6, 1), dtype=int))
    assert M.top == M.bottom == 0
    assert list(M.proper_elements()) == []


def test_residual_ml_values(m8self):
    idx = label_index(m8self)
    L = m8self.lattice
    lidx = label_index(L)
    assert m8self.label(residual_ml(m8self, idx["(4)"], lidx["(2)"])) == "(2)"
    for n in m8self.elements():
        assert residual_ml(m8self, n, L.top) == n          # (N : 1) = N
        assert residual_ml(m8self, n, L.bottom) == m8self.top  # (N : 0) = I_M


def test_residual_mm_values(m8square):
    idx = label_index(m8square)
    N = idx["4Zx2Z"]
    assert m8square.lattice.label(residual_mm(m8square, N, m8square.top)) == "(4)"
    for b in m8square.elements():
        assert residual_mm(m8square, m8square.top, b) == m8square.lattice.top
        assert residual_mm(m8square, b, m8square.bottom) == m8square.lattice.top


def test_adjunction_triple(m12self, m4square):
    for M in (m12self, m4square):
        L = M.lattice
        for a in L.elements():
            for x in M.elements():
                for n in M.elements():
                    le = M.le(M.act(a, x), n)
                    assert le == M.le(x, residual_ml(M, n, a))
                    assert le == L.le(a, residual_mm(M, n, x))


def test_rad_values(m8self, m8square):
    idx = label_index(m8self)
    assert m8self.label(rad(m8self, idx["(4)"])) == "(2)"
    sq = label_index(m8square)
    assert m8square.label(rad(m8square, sq["4Zx2Z"])) == "2Zx2Z"
    with pytest.raises(ValueError):
        rad(m8self, m8self.top)
    for p in prime_elements(m8square):
        assert rad(m8square, p) == p


def test_rad_matches_variety_meet(m12self, m8square):
    for M in (m12self, m8square):
        for n in M.proper_elements():
            v = variety(M, n)
            assert v, "every proper element lies below a maximal, hence prime, element"
            assert M.meet_all(v) == rad(M, n)
            assert rad(M, rad(M, n)) == rad(M, n)


def test_variety_values(m12self, m8square):
    idx = label_index(m12self)
    assert [m12self.lattice.label(p) for p in variety_l(m12self, idx["(0)"])] == ["(2)", "(3)"]
    sq = label_index(m8square)
    got = {m8square.label(p) for p in variety(m8square, sq["4Zx2Z"])}
    assert got == {"2Zx2Z", "2Zx1Z", "1Zx2Z", "<(2,0),(1,1)>"}
    assert variety(m8square, m8square.bottom) == prime_elements(m8square)


def test_saturation_values(m12self):
    idx = label_index(m12self)
    lidx = label_index(m12self.lattice)
    assert m12self.label(saturation(m12self, idx["(4)"], lidx["(2)"])) == "(4)"
    assert m12self.label(saturation(m12self, idx["(4)"], lidx["(3)"])) == "(1)"
    with pytest.raises(ValueError):
        saturation(m12self, idx["(4)"], lidx["(4)"])  # (4) is not prime
    # N <= S_p(N) always (c = 1 qualifies since 1 is not below a proper prime)
    for n in m12self.proper_elements():
        for p in (lidx["(2)"], lidx["(3)"]):
            assert m12self.le(n, saturation(m12self, n, p))


def test_saturation_matches_definition():
    # S_p(N) is the join of every X with cX <= N for some c not<= p
    for inst in default_instances():
        M = inst.module
        L = M.lattice
        for n in M.proper_elements():
            for p in variety_l(M, n):
                keep = [x for x in M.elements()
                        if any(M.le(M.act(c, x), n) for c in L.elements() if not L.le(c, p))]
                assert saturation(M, n, p) == M.join_all(keep), (inst.name, n, p)


@pytest.mark.parametrize("block_cells", [1, 200], ids=["one-row-blocks", "small-blocks"])
def test_saturation_table_in_blocks_matches_saturation(monkeypatch, block_cells):
    # the whole table takes its N in row blocks, so several run here; the
    # one-cell saturation and the table in one block are the references
    for inst in default_instances():
        M = inst.module
        flags = lattice_flags(M.lattice)
        primes = [p for p in M.lattice.elements() if flags[p].prime]
        ids = np.arange(M.element_count)
        whole = _saturations(M, ids, primes)
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_BLOCK_CELLS", block_cells)
            blocked = _saturations(M, ids, primes)
            assert np.array_equal(blocked, whole), inst.name
            for n in M.proper_elements():
                assert blocked[n].tolist() == [saturation(M, n, p) for p in primes], (inst.name, n)


def test_structural_predicates(m8self, m8square):
    assert is_faithful(m8self) and is_multiplication_module(m8self)
    assert is_pg_module(m8self)
    assert is_faithful(m8square) and not is_multiplication_module(m8square)
    # witness: a full factor is not of the form a I_M
    sq = label_index(m8square)
    full_factor = sq["1Zx8Z"]
    assert all(m8square.act(a, m8square.top) != full_factor
               for a in m8square.lattice.elements())


def test_multiplication_witness_suffices(m8self, m4square):
    # N = a I_M for some a  iff  N = (N:I_M) I_M
    for M in (m8self, m4square):
        for n in M.elements():
            exists = any(M.act(a, M.top) == n for a in M.lattice.elements())
            canonical = M.act(residual_mm(M, n, M.top), M.top) == n
            assert exists == canonical


def test_top_is_principal_identity(m8self):
    # direct instantiation of the join-principal identity at N = I_M
    M = m8self
    L = M.lattice
    for b in L.elements():
        for B in M.elements():
            lhs = L.join(b, residual_mm(M, B, M.top))
            rhs = residual_mm(M, M.join(M.act(b, M.top), B), M.top)
            assert lhs == rhs
    assert is_principal_m(M, M.top)


def test_action_monotone(m12self, m4square):
    for M in (m12self, m4square):
        L = M.lattice
        for a, b in itertools.product(L.elements(), repeat=2):
            if not L.le(a, b):
                continue
            for x, y in itertools.product(M.elements(), repeat=2):
                if M.le(x, y):
                    assert M.le(M.act(a, x), M.act(b, y))


def test_action_join_distributes_over_random_subsets(m4square):
    rng = random.Random(1)
    M = m4square
    L = M.lattice
    for _ in range(200):
        subset = rng.sample(range(L.element_count), rng.randint(0, L.element_count))
        x = rng.randrange(M.element_count)
        assert M.act(L.join_all(subset), x) == M.join_all(M.act(a, x) for a in subset)
        a = rng.randrange(L.element_count)
        msubset = rng.sample(range(M.element_count), rng.randint(0, M.element_count))
        assert M.act(a, M.join_all(msubset)) == M.join_all(M.act(a, s) for s in msubset)


def test_prime_elements_of_small_self_module():
    M = gen_zn_self_module(2)
    # the zero element of a 2-chain acting on itself is prime
    assert prime_elements(M) == (M.bottom,)


def test_out_of_range_ids_rejected(m4square):
    # -1 would otherwise index the top, the last id of zn-square-4
    M = m4square
    p = next(a for a in M.lattice.elements() if l_element_flags(M.lattice, a).prime)
    for N in (-1, M.element_count):
        for query in (rad, variety, variety_l, lambda M, N: saturation(M, N, p)):
            with pytest.raises(ValueError, match="not an element id"):
                query(M, N)


def test_residuals_and_saturation_reject_out_of_range_ids(m4square):
    # -1 would otherwise read the last id of the carrier, and the carrier size
    # would raise IndexError
    M, L = m4square, m4square.lattice
    p = next(a for a in L.elements() if l_element_flags(L, a).prime)
    n = next(iter(M.proper_elements()))
    for bad in (-1, L.element_count):
        for query in (lambda: residual_ml(M, n, bad), lambda: saturation(M, n, bad)):
            with pytest.raises(ValueError, match=rf"{bad} is not an element id of L \(0\.\.2\)"):
                query()
    for bad in (-1, M.element_count):
        for query in (lambda: residual_ml(M, bad, L.top), lambda: residual_mm(M, bad, M.top),
                      lambda: residual_mm(M, n, bad)):
            with pytest.raises(ValueError, match=rf"{bad} is not an element id of M \(0\.\.14\)"):
                query()
        for query in (is_meet_principal_m, is_join_principal_m, is_principal_m):
            with pytest.raises(ValueError, match=rf"{bad} is not an element id of M \(0\.\.14\)"):
                query(M, bad)
    # the top stays a valid argument of the residuals
    assert residual_ml(M, M.top, L.top) == M.top
    assert residual_mm(M, M.top, M.top) == L.top
    assert saturation(M, n, p) in M.elements()
