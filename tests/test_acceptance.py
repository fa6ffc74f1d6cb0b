"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with plain ``pytest`` (the lines bypass capture) or ``pytest -v``.
"""

import itertools
import sys
import time

import pytest

from latmod import (
    ParseError,
    ValidationError,
    gen_zn_ideal_lattice,
    gen_zn_self_module,
    gen_zn_square_module,
    l_element_flags,
    parse_instance,
    rad,
    residual_mm,
    saturation,
    serialize_instance,
    sqrt,
    variety_l,
)
from latmod.classify import classify_all
from latmod.harness import (
    Fault,
    default_instances,
    make_instance,
    replay_violation,
    run_suite,
)
from latmod.lattice import lattice_violations

import conftest
from conftest import label_index
from test_instances import FIXTURE_EXPECTATIONS, FIXTURES, structurally_equal


def announce(number: int, ok: bool, text: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)  # also visible under pytest -s


@pytest.fixture(scope="module")
def family():
    return default_instances()


# ---------------------------------------------------------------------------
# 1. axiom validation and the exhaustive mutation sweep


def direct_mul_axiom_breaks(L, mul) -> dict:
    """Independent plain-loop evaluation of the four multiplication axioms."""
    n = L.element_count
    join = L.join_table
    broken = {}
    for i in range(n):
        for j in range(n):
            if mul[i][j] != mul[j][i]:
                broken.setdefault("mul-commutative", (i, j))
    for a in range(n):
        if mul[L.top][a] != a or mul[a][L.top] != a:
            broken.setdefault("mul-identity", (a,))
    for i, j, k in itertools.product(range(n), repeat=3):
        if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
            broken.setdefault("mul-associative", (i, j, k))
        if mul[i][join[j][k]] != join[mul[i][j]][mul[i][k]]:
            broken.setdefault("mul-join-distributive", (i, j, k))
    return broken


def witness_replays(L, mul, axiom, witness) -> bool:
    join = L.join_table
    if axiom == "mul-commutative":
        i, j = witness
        return mul[i][j] != mul[j][i]
    if axiom == "mul-identity":
        (a,) = witness
        return mul[L.top][a] != a or mul[a][L.top] != a
    if axiom == "mul-associative":
        a, b, c = witness
        return mul[mul[a][b]][c] != mul[a][mul[b][c]]
    if axiom == "mul-join-distributive":
        a, b, c = witness
        return mul[a][join[b][c]] != join[mul[a][b]][mul[a][c]]
    return False


def test_acceptance_1_axiom_validation():
    start = time.perf_counter()
    ok = True
    try:
        for n in range(1, 61):
            gen_zn_ideal_lattice(n)
            gen_zn_self_module(n)

        L = gen_zn_ideal_lattice(12)
        idx = label_index(L)
        count = L.element_count
        mutants = 0
        for i in range(count):
            for j in range(count):
                original = int(L.mul_table[i, j])
                for wrong in range(count):
                    if wrong == original:
                        continue
                    mutants += 1
                    mul = [[int(L.mul_table[a, b]) for b in range(count)]
                           for a in range(count)]
                    mul[i][j] = wrong
                    breaks = direct_mul_axiom_breaks(L, mul)
                    violations = lattice_violations(L.leq, mul)
                    assert bool(violations) == bool(breaks), (i, j, wrong)
                    for violation in violations:
                        assert witness_replays(L, mul, violation.axiom, violation.witness), \
                            (i, j, wrong, violation)
        assert mutants == count * count * (count - 1)
        # the canonical example: (2)*(2) changed from (4) to (2) must be caught
        mul = [[int(L.mul_table[a, b]) for b in range(count)] for a in range(count)]
        mul[idx["(2)"]][idx["(2)"]] = idx["(2)"]
        assert lattice_violations(L.leq, mul)
        elapsed = time.perf_counter() - start
        assert elapsed < 30, f"mutation sweep took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        announce(1, ok, "generator validation for n <= 60 and the exhaustive "
                        "single-cell mutation sweep over the 6-element instance "
                        f"({time.perf_counter() - start:.1f}s)")


# ---------------------------------------------------------------------------
# 2. characterization pairs agree bit-for-bit


def test_acceptance_2_oracle_equivalences(family):
    ok = True
    try:
        unconditional = ["equiv-pseudo-primary-cg", "equiv-classical-prime-cg",
                         "equiv-pseudo-classical-primary-cg"]
        mult_only = ["equiv-classical-prime-mult", "equiv-classical-prime-residual-product"]
        report = run_suite(family, checks=unconditional + mult_only)
        for result in report.results:
            assert result.status != "fail", (result.check_id, result.instance,
                                             result.violations[:1])
            if result.check_id in unconditional:
                assert result.status == "pass"
            elif result.instance.startswith("zn-self"):
                assert result.status == "pass"
            else:
                assert result.status == "skipped"
    except AssertionError:
        ok = False
        raise
    finally:
        announce(2, ok, "definition-side vs characterization-side agreement on "
                        "every proper element of the default family")


# ---------------------------------------------------------------------------
# 3. multiplication-module collapse


def test_acceptance_3_multiplication_collapse():
    ok = True
    try:
        for n in range(2, 31):
            M = gen_zn_self_module(n)
            L = M.lattice
            for N, c in classify_all(M).items():
                lf = l_element_flags(L, c.residual_top)
                assert c.pseudo_primary == c.primary == c.pseudo_classical_primary \
                    == lf.primary, (n, M.label(N))
                assert c.prime == c.classical_prime == c.semiprime == lf.prime, \
                    (n, M.label(N))
    except AssertionError:
        ok = False
        raise
    finally:
        announce(3, ok, "pseudo-primary = primary = pseudo-classical primary and "
                        "prime = classical prime = semiprime, collapsing to the "
                        "(N:I_M) classes, on zn-self 2..30")


# ---------------------------------------------------------------------------
# 4. radical identity


def test_acceptance_4_radical_identity():
    ok = True
    try:
        for n in range(2, 31):
            M = gen_zn_self_module(n)
            L = M.lattice
            for N in M.proper_elements():
                lhs = residual_mm(M, rad(M, N), M.top)
                rhs = sqrt(L, residual_mm(M, N, M.top))
                assert lhs == rhs, (n, M.label(N))
    except AssertionError:
        ok = False
        raise
    finally:
        announce(4, ok, "(rad(N):I_M) = sqrt(N:I_M) for every proper N on zn-self 2..30")


# ---------------------------------------------------------------------------
# 5. separation fixture


def test_acceptance_5_separation_fixture():
    ok = True
    try:
        M = gen_zn_square_module(8)
        idx = label_index(M)
        lidx = label_index(M.lattice)
        N = idx["4Zx2Z"]
        c = classify_all(M)[N]
        assert c.primary is True
        assert c.pseudo_primary is False
        assert c.pseudo_classical_primary is True
        assert c.classical_prime is False
        assert M.label(c.rad) == "2Zx2Z"
        a, X = c.witnesses["pseudo_primary"]
        assert a == lidx["(2)"]
        assert X <= idx["<(2,1)>"]  # at or lexicographically before <(2,1)>
        # the witness is a genuine violation of the defining condition
        assert M.le(M.act(a, X), N)
        assert not M.lattice.le(a, residual_mm(M, N, M.top))
        assert not M.le(X, rad(M, N))
    except AssertionError:
        ok = False
        raise
    finally:
        announce(5, ok, "zn-square-8 element 4Zx2Z: primary but not pseudo-primary "
                        "(witnessed), pseudo-classical primary but not classical "
                        "prime, rad = 2Zx2Z")


# ---------------------------------------------------------------------------
# 6. implication figure and suite runtime


def test_acceptance_6_figure_implications(family):
    ok = True
    start = time.perf_counter()
    try:
        report = run_suite(family, checks=["fig1-implications"])
        for result in report.results:
            assert result.status in ("pass", "skipped"), result.instance
            assert result.violations == []
        full = run_suite(family)
        assert full.ok()
        elapsed = time.perf_counter() - start
        assert elapsed < 60, f"default suite took {elapsed:.1f}s"
    except AssertionError:
        ok = False
        raise
    finally:
        announce(6, ok, "zero implication-figure violations on the default family; "
                        f"full suite in {time.perf_counter() - start:.1f}s")


# ---------------------------------------------------------------------------
# 7. saturation bound


def test_acceptance_7_saturation(family):
    ok = True
    try:
        report = run_suite(family, checks=["lem-saturation-below-rad"])
        assert all(r.status != "fail" for r in report.results)
        # direct restatement on one instance, with the frozen values
        M = gen_zn_self_module(12)
        idx = label_index(M)
        for N, c in classify_all(M).items():
            if not c.pseudo_primary:
                continue
            for p in variety_l(M, N):
                assert M.le(saturation(M, N, p), rad(M, N)), (M.label(N), p)
        assert M.label(saturation(M, idx["(4)"], label_index(M.lattice)["(2)"])) == "(4)"
    except AssertionError:
        ok = False
        raise
    finally:
        announce(7, ok, "S_p(N) <= rad(N) for every pseudo-primary N and every "
                        "prime p above (N:I_M), across the default family")


# ---------------------------------------------------------------------------
# 8. parser round trip


def test_acceptance_8_parser_round_trip():
    ok = True
    try:
        built = [(gen_zn_ideal_lattice(n), None) for n in range(1, 17)]
        built += [(gen_zn_self_module(n).lattice, gen_zn_self_module(n))
                  for n in range(1, 17)]
        built += [(gen_zn_square_module(n).lattice, gen_zn_square_module(n))
                  for n in (1, 2, 3, 4, 8)]
        for L, M in built:
            text = serialize_instance(L, M)
            L2, M2 = parse_instance(text)
            assert structurally_equal(L, L2)
            if M is not None:
                assert structurally_equal(M, M2)
            assert serialize_instance(L2, M2) == text

        assert len(FIXTURE_EXPECTATIONS) >= 20
        seen_errors = set()
        for name, expected in FIXTURE_EXPECTATIONS.items():
            text = (FIXTURES / name).read_text(encoding="utf-8")
            if expected is None:
                L, M = parse_instance(text)
                canonical = serialize_instance(L, M)
                assert serialize_instance(*parse_instance(canonical)) == canonical
            else:
                exc_type, _ = expected
                with pytest.raises(exc_type):
                    parse_instance(text)
                seen_errors.add(exc_type)
        assert seen_errors == {ParseError, ValidationError}
    except AssertionError:
        ok = False
        raise
    finally:
        announce(8, ok, "serialize/parse round trips on all generated instances "
                        f"and {len(FIXTURE_EXPECTATIONS)} hand-written fixtures "
                        "covering every error class")


# ---------------------------------------------------------------------------
# 9. harness soundness under an injected classifier fault


def test_acceptance_9_harness_soundness():
    ok = True
    try:
        instances = [make_instance("zn-self-12", gen_zn_self_module(12)),
                     make_instance("zn-square-8", gen_zn_square_module(8))]
        assert run_suite(instances).ok()
        fault = Fault("pseudo_primary")
        faulted = run_suite(instances, fault=fault)
        assert not faulted.ok()
        failing = faulted.failures()
        assert failing
        by_name = {i.name: i for i in instances}
        for result in failing:
            assert result.violations
            for violation in result.violations:
                assert replay_violation(by_name[result.instance], result.check_id,
                                        violation, fault=fault), (result.check_id, violation)
        assert run_suite(instances).ok()
    except AssertionError:
        ok = False
        raise
    finally:
        announce(9, ok, "injected classifier fault makes the affected checks fail "
                        "with replayable witnesses; removing it restores all-pass")
