import tracemalloc
from pathlib import Path

import pytest

from latmod import (
    classify,
    classify_all,
    gen_zn_self_module,
    gen_zn_square_module,
    is_classical_prime,
    is_minimal_prime_over,
    is_prime_m,
    is_primary_m,
    is_pseudo_classical_primary,
    is_pseudo_primary,
    is_radical_element,
    is_semiprime,
    is_two_absorbing,
    l_element_flags,
    p_attachments,
    parse_instance,
    prime_elements,
    rad,
)
from latmod import lattice
from latmod.harness import default_instances
from latmod.lattice import _row_blocks

from conftest import label_index

FIXTURES = Path(__file__).parent / "fixtures"


def replay_pair(M, N, witness, with_rad):
    """A (a, X) witness is genuine: aX <= N but neither escape clause holds."""
    a, x = witness
    L = M.lattice
    assert M.le(M.act(a, x), N)
    if with_rad:
        from latmod import residual_mm
        assert not L.le(a, residual_mm(M, N, M.top))
        assert not M.le(x, rad(M, N))
    return True


def test_prime_values(m8self):
    idx = label_index(m8self)
    ok, _ = is_prime_m(m8self, idx["(2)"])
    assert ok
    ok, witness = is_prime_m(m8self, idx["(4)"])
    assert not ok
    assert witness == (idx["(2)"], idx["(2)"])  # lattice and module ids coincide here
    a, x = witness
    assert m8self.le(m8self.act(a, x), idx["(4)"])
    assert not m8self.le(x, idx["(4)"])
    assert not m8self.le(m8self.act(a, m8self.top), idx["(4)"])


def test_primary_values(m12self, m8square):
    idx = label_index(m12self)
    ok, witness = is_primary_m(m12self, idx["(0)"])
    assert not ok and witness is not None
    a, x = witness
    assert m12self.le(m12self.act(a, x), idx["(0)"])
    assert not m12self.le(x, idx["(0)"])
    sq = label_index(m8square)
    ok, _ = is_primary_m(m8square, sq["4Zx2Z"])
    assert ok
    # any prime is primary
    for p in prime_elements(m8square):
        assert is_primary_m(m8square, p)[0]


def test_semiprime_values(m8self):
    idx = label_index(m8self)
    ok, witness = is_semiprime(m8self, idx["(4)"])
    assert not ok and witness == (idx["(2)"], idx["(2)"])
    # semiprime iff (N:I_M) prime, here O_M with (O:I) = (0) not prime in L(Z_8)
    assert not is_semiprime(m8self, m8self.bottom)[0]


def test_radical_element_values(m8self, m12self):
    idx = label_index(m8self)
    assert not is_radical_element(m8self, idx["(4)"])[0]   # sqrt(4) = (2)
    assert is_radical_element(m8self, idx["(2)"])[0]
    idx12 = label_index(m12self)
    assert not is_radical_element(m12self, idx12["(0)"])[0]  # sqrt(0) = (6)
    assert is_radical_element(m12self, idx12["(6)"])[0]


def test_two_absorbing_values(m12self):
    idx = label_index(m12self)
    ok, witness = is_two_absorbing(m12self, idx["(0)"])
    assert not ok
    a, b, k = witness
    from latmod import residual_mm
    L = m12self.lattice
    assert m12self.le(m12self.act(L.mul(a, b), k), idx["(0)"])
    assert not L.le(L.mul(a, b), residual_mm(m12self, idx["(0)"], m12self.top))
    assert not m12self.le(m12self.act(a, k), idx["(0)"])
    assert not m12self.le(m12self.act(b, k), idx["(0)"])


def test_separation_element_zn_square_8(m8square):
    idx = label_index(m8square)
    n = idx["4Zx2Z"]
    c = classify(m8square, n)
    assert c.primary and not c.pseudo_primary
    assert c.pseudo_classical_primary and not c.classical_prime
    assert not c.semiprime
    assert m8square.label(c.rad) == "2Zx2Z"
    replay_pair(m8square, n, c.witnesses["pseudo_primary"], with_rad=True)


def test_classical_prime_zn4_square():
    M = gen_zn_square_module(4)
    idx = label_index(M)
    lidx = label_index(M.lattice)
    n = idx["2Zx4Z"]  # the subgroup 2Z x 0
    ok, witness = is_classical_prime(M, n)
    assert not ok
    assert witness == (lidx["(2)"], lidx["(2)"], idx["4Zx1Z"])  # a = b = (2), K = 0 x Z_4
    a, b, k = witness
    assert M.le(M.act(M.lattice.mul(a, b), k), n)
    assert not M.le(M.act(a, k), n)
    assert not M.le(M.act(b, k), n)
    # any prime or maximal element is classical prime
    for p in prime_elements(M):
        assert is_classical_prime(M, p)[0]


def test_pseudo_classical_primary_values(m8square):
    idx = label_index(m8square)
    assert is_pseudo_classical_primary(m8square, idx["4Zx2Z"])[0]
    for n in m8square.proper_elements():
        if is_pseudo_primary(m8square, n)[0]:
            assert is_pseudo_classical_primary(m8square, n)[0]


def test_p_attachments(m8self, m12self):
    idx = label_index(m8self)
    att = p_attachments(m8self, idx["(4)"])
    assert att.p_primary == idx["(2)"] and att.p_pseudo_primary == idx["(2)"]
    assert att.p_prime is None  # (4) is not prime
    att2 = p_attachments(m8self, idx["(2)"])
    assert att2.p_prime == idx["(2)"]
    # sqrt((6)) = (6) is not prime in L(Z_12): no attachment
    idx12 = label_index(m12self)
    att6 = p_attachments(m12self, idx12["(6)"])
    assert att6.p_prime is None and att6.p_primary is None and att6.p_pseudo_primary is None


def test_minimal_prime_over(m12self):
    idx = label_index(m12self)
    zero = idx["(0)"]
    for p in ("(2)", "(3)"):
        assert is_minimal_prime_over(m12self, idx[p], zero)
    assert is_minimal_prime_over(m12self, idx["(2)"], idx["(2)"])
    with pytest.raises(ValueError):
        is_minimal_prime_over(m12self, idx["(4)"], zero)  # (4) is not prime
    with pytest.raises(ValueError):
        is_minimal_prime_over(m12self, idx["(2)"], idx["(3)"])  # (3) not below (2)
    # consistency with the variety enumeration
    from latmod import variety
    minimal = [p for p in variety(m12self, zero)
               if is_minimal_prime_over(m12self, p, zero)]
    assert {m12self.label(p) for p in minimal} == {"(2)", "(3)"}


def test_minimal_prime_over_rejects_out_of_range_ids(m4square):
    M = m4square
    p = prime_elements(M)[0]
    for bad in (-1, M.element_count):
        for args in ((p, bad), (bad, M.bottom)):
            with pytest.raises(ValueError, match=rf"{bad} is not an element id of M \(0\.\.14\)"):
                is_minimal_prime_over(M, *args)


def test_classify_aggregates_predicates(m8square):
    cls = classify_all(m8square)
    for n in m8square.proper_elements():
        c = cls[n]
        assert c.prime == is_prime_m(m8square, n)[0]
        assert c.primary == is_primary_m(m8square, n)[0]
        assert c.semiprime == is_semiprime(m8square, n)[0]
        assert c.radical_element == is_radical_element(m8square, n)[0]
        assert c.classical_prime == is_classical_prime(m8square, n)[0]
        assert c.two_absorbing == is_two_absorbing(m8square, n)[0]
        assert c.pseudo_primary == is_pseudo_primary(m8square, n)[0]
        assert c.pseudo_classical_primary == is_pseudo_classical_primary(m8square, n)[0]
        assert c.rad == rad(m8square, n)


PREDICATES = {
    "prime": is_prime_m,
    "primary": is_primary_m,
    "semiprime": is_semiprime,
    "radical_element": is_radical_element,
    "classical_prime": is_classical_prime,
    "two_absorbing": is_two_absorbing,
    "pseudo_primary": is_pseudo_primary,
    "pseudo_classical_primary": is_pseudo_classical_primary,
}


def agreement_modules():
    """Newly built modules, nothing memoized yet: the default family,
    zn-square 6/9/10/12/16 and every valid module fixture."""
    modules = [inst.module for inst in default_instances()]
    modules += [gen_zn_square_module(n) for n in (6, 9, 10, 12, 16)]
    for path in sorted(FIXTURES.glob("v*.mlat")):
        M = parse_instance(path.read_text(encoding="utf-8"))[1]
        if M is not None:
            modules.append(M)
    return modules


@pytest.mark.parametrize("block_cells", [None, 600], ids=["default-blocks", "small-blocks"])
def test_whole_table_pass_matches_predicates(monkeypatch, block_cells):
    # classify_all evaluates each condition for every proper element at once,
    # in blocks of elements; the predicates evaluate one element
    if block_cells is not None:
        monkeypatch.setattr(lattice, "_BLOCK_CELLS", block_cells)
    blocked = 0
    for M in agreement_modules():
        cells = M.lattice.element_count ** 2 * M.element_count
        blocked += len(_row_blocks(M.element_count - 1, cells)) > 1
        primes = prime_elements(M)
        for n, c in classify_all(M).items():
            for flag, predicate in PREDICATES.items():
                assert (c.flag(flag), c.witnesses.get(flag)) == predicate(M, n), (M, n, flag)
            attached = p_attachments(M, n)
            assert (c.p_prime, c.p_primary, c.p_pseudo_primary) == (
                attached.p_prime, attached.p_primary, attached.p_pseudo_primary)
            assert c.rad == rad(M, n)
            assert c.minimal_prime_over == (tuple(
                x for x in M.elements() if M.le(x, n) and is_minimal_prime_over(M, n, x))
                if n in primes else ())
    assert (blocked > 0) == (block_cells is not None)


def test_classify_all_memory_bounded():
    # zn-self-5040 (60/60): one unblocked [N, a, b, K] mask over the 59 proper
    # elements would take 59 * 60**3 bytes, about 12.7 MB
    M = gen_zn_self_module(5040)
    tracemalloc.start()
    try:
        cls = classify_all(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cls) == 59
    assert peak < 59 * 60 ** 3, f"peak {peak / 2**20:.1f} MB"


def plain_prime_elements(M):
    """Ids of the prime elements of M, by a plain loop over the definition."""
    L = M.lattice
    out = []
    for n in M.proper_elements():
        prime = True
        for a in range(L.element_count):
            if M.le(M.act(a, M.top), n):
                continue
            for x in M.elements():
                if M.le(M.act(a, x), n) and not M.le(x, n):
                    prime = False
                    break
            if not prime:
                break
        if prime:
            out.append(n)
    return tuple(out)


def test_classifier_and_module_prime_routes_agree():
    # prime_elements and the classifier's is_prime_m vs the plain loop
    modules = [inst.module for inst in default_instances()]
    modules += [gen_zn_square_module(n) for n in (6, 9, 10, 16)]
    for M in modules:
        primes = plain_prime_elements(M)
        assert prime_elements(M) == primes
        for n in M.proper_elements():
            assert is_prime_m(M, n)[0] == (n in primes)


def test_lattice_flags_match_self_module_classes():
    # L acting on itself: an element's lattice prime/primary flags are its module classes
    for k in range(1, 121):
        M = gen_zn_self_module(k)
        top = l_element_flags(M.lattice, M.top)
        assert not top.prime and not top.primary
        for n in M.proper_elements():
            flags = l_element_flags(M.lattice, n)
            assert flags.prime == is_prime_m(M, n)[0]
            assert flags.primary == is_primary_m(M, n)[0]


def test_non_proper_rejected(m8self):
    with pytest.raises(ValueError):
        classify(m8self, m8self.top)
    for predicate in (is_prime_m, is_primary_m, is_semiprime, is_radical_element,
                      is_classical_prime, is_two_absorbing, is_pseudo_primary,
                      is_pseudo_classical_primary):
        with pytest.raises(ValueError):
            predicate(m8self, m8self.top)


def test_out_of_range_ids_rejected(m4square):
    # -1 would otherwise index the top, the last id of zn-square-4
    queries = (classify, p_attachments, is_prime_m, is_primary_m, is_semiprime,
               is_radical_element, is_classical_prime, is_two_absorbing, is_pseudo_primary,
               is_pseudo_classical_primary)
    for N in (-1, m4square.element_count):
        for query in queries:
            with pytest.raises(ValueError, match="not an element id"):
                query(m4square, N)


def test_prime_in_two_chain_self_module():
    M = gen_zn_self_module(2)
    assert is_prime_m(M, M.bottom)[0]


def test_multiplication_collapse_small():
    # in the self modules the module classes collapse to lattice classes of (N:I_M)
    for n in (8, 12, 18):
        M = gen_zn_self_module(n)
        L = M.lattice
        for N in M.proper_elements():
            c = classify(M, N)
            lf = l_element_flags(L, c.residual_top)
            assert c.pseudo_primary == c.primary == c.pseudo_classical_primary == lf.primary
            assert c.prime == c.classical_prime == c.semiprime == lf.prime
