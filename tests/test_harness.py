import gc
import itertools
import re
import sys
import threading
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from latmod import (
    gen_zn_self_module,
    gen_zn_square_module,
    l_element_flags,
    residual_mm,
    sqrt,
)
from latmod.classify import FLAG_NAMES, classify_all, is_prime_m, is_pseudo_classical_primary
from latmod import cli, harness
from latmod.harness import (
    AUTO_HYPOTHESES,
    BUNDLE,
    HYPOTHESES,
    Ctx,
    Fault,
    TheoremCheck,
    _compact_definition,
    _pp_compact_definition,
    default_instances,
    list_checks,
    make_instance,
    registry,
    replay_violation,
    run_check,
    run_suite,
)
from latmod.instances import parse_instance, serialize_instance
from latmod.lattice import validate_lattice
from latmod.module import rad, validate_module

from conftest import label_index

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def inst12():
    return make_instance("zn-self-12", gen_zn_self_module(12))


@pytest.fixture(scope="module")
def inst8sq():
    return make_instance("zn-square-8", gen_zn_square_module(8))


def test_registry_shape():
    checks = list_checks()
    assert len(checks) >= 30
    ids = [c["id"] for c in checks]
    assert len(ids) == len(set(ids))
    by_id = registry()
    assert by_id["fig1-maximal-implies-prime"].dashed
    assert by_id["fig1-prime-implies-primary"].dashed
    assert by_id["fig1-classical-prime-implies-two-absorbing"].dashed
    assert not by_id["fig1-prime-implies-semiprime"].dashed
    for check in by_id.values():
        assert check.description
        for h in check.hypotheses:
            assert h in {"pg-lattice", "pg-module", "faithful",
                         "multiplication-module", "top-compact", "compactly-generated"}


def test_suite_green_on_two_instances(inst12, inst8sq):
    report = run_suite([inst12, inst8sq])
    assert report.ok()
    assert report.counts()["fail"] == 0
    statuses = {(r.instance, r.check_id): r for r in report.results}
    # a bundle-gated check is asserted on the multiplication module...
    assert statuses[("zn-self-12", "equiv-pseudo-primary-4way")].status == "pass"
    # ...and skipped, naming the failing hypothesis, where the bundle fails
    skipped = statuses[("zn-square-8", "equiv-pseudo-primary-4way")]
    assert skipped.status == "skipped"
    assert "multiplication-module" in skipped.skip_reason


def test_skip_pathways_distinguished(inst12):
    report = run_suite([inst12])
    reasons = {r.skip_reason for r in report.results if r.status == "skipped"}
    assert any(r and r.startswith("hypotheses unmet") for r in reasons) is False  # bundle holds
    assert "vacuous quantification" in reasons  # no chains of classical primes here
    sq = run_suite([make_instance("zn-square-8", gen_zn_square_module(8))])
    sq_reasons = {r.skip_reason for r in sq.results if r.status == "skipped"}
    assert any(r and r.startswith("hypotheses unmet") for r in sq_reasons)


def test_hypothesis_gating_covers_all_bundle_checks(inst8sq):
    report = run_suite([inst8sq])
    for result in report.results:
        check = registry()[result.check_id]
        if "multiplication-module" in check.hypotheses:
            assert result.status == "skipped"
            assert "multiplication-module" in result.skip_reason


# Plain-loop references for the four computed hypotheses, written from their
# definitions.  (B:e) is the greatest c of L with c e <= B; x is the join of a
# set when x is below every upper bound of the set (the sets below are all
# below x); e is principal when it is meet- and join-principal:
# (b ^ (B:e)) e == be ^ B and (be v B):e == b v (B:e) for every b in L and B.

def _greatest(S, ids):
    (found,) = [c for c in ids if all(S.le(d, c) for d in ids)]
    return found


def _residuals(L, S, act) -> dict:
    return {(B, e): _greatest(L, [c for c in L.elements() if S.le(act(c, e), B)])
            for B in S.elements() for e in S.elements()}


def _principally_generated_ref(L, S, act) -> bool:
    res = _residuals(L, S, act)
    principal = [e for e in S.elements() if all(
        act(L.meet(b, res[B, e]), e) == S.meet(act(b, e), B)
        and res[S.join(act(b, e), B), e] == L.join(b, res[B, e])
        for b in L.elements() for B in S.elements())]
    return all(S.le(x, u) for x in S.elements() for u in S.elements()
               if all(S.le(g, u) for g in principal if S.le(g, x)))


def _hypotheses_ref(M) -> dict[str, bool]:
    L = M.lattice
    return {
        "pg-lattice": _principally_generated_ref(L, L, L.mul),
        "pg-module": _principally_generated_ref(L, M, M.act),
        "faithful": _residuals(L, M, M.act)[M.bottom, M.top] == L.bottom,
        "multiplication-module": all(any(M.act(a, M.top) == n for a in L.elements())
                                     for n in M.elements()),
    }


def _chain_3(aa: int):
    """The chain 0 < a < 1 with a*a = ``aa``."""
    return validate_lattice(np.arange(3)[:, None] <= np.arange(3),
                            [[0, 0, 0], [0, aa, 1], [0, 1, 2]], labels=["0", "a", "1"])


def _hypothesis_instances():
    """Three modules over the 3-chain on which some computed hypothesis fails:
    name -> (module, its computed hypotheses, the counts of its suite).
    a*a = a makes a not join-principal ((aa v 0):a = 1 but a v (0:a) = a), so
    L is not pg, nor is its self-module; a X = 0 makes the 2-chain unfaithful."""
    idempotent = _chain_3(1)
    two_chain = [[True, True], [False, True]]
    return {
        "chain-3-self": (
            validate_module(idempotent, idempotent.leq, idempotent.mul_table,
                            labels=idempotent.labels),
            {"pg-lattice": False, "pg-module": False, "faithful": True,
             "multiplication-module": True}, {"pass": 42, "fail": 0, "skipped": 22}),
        "chain-2-over-idempotent-chain-3": (
            validate_module(idempotent, two_chain, [[0, 0], [0, 0], [0, 1]]),
            {"pg-lattice": False, "pg-module": True, "faithful": False,
             "multiplication-module": True}, {"pass": 38, "fail": 0, "skipped": 26}),
        "chain-2-over-nilpotent-chain-3": (
            validate_module(_chain_3(0), two_chain, [[0, 0], [0, 0], [0, 1]]),
            {"pg-lattice": True, "pg-module": True, "faithful": False,
             "multiplication-module": True}, {"pass": 38, "fail": 0, "skipped": 26}),
    }


def test_computed_hypotheses_match_plain_loop_references():
    # a fixture without a module block is read as its lattice's self-module
    fixtures = [parse_instance(path.read_text(encoding="utf-8"))
                for path in sorted(FIXTURES.glob("v*.mlat"))]
    modules = ([M if M is not None else validate_module(L, L.leq, L.mul_table)
                for L, M in fixtures]
               + [inst.module for inst in default_instances()]
               + [M for M, _, _ in _hypothesis_instances().values()])
    seen = {name: set() for name in _hypotheses_ref(modules[0])}
    for M in modules:
        expected = _hypotheses_ref(M)
        assert {name: HYPOTHESES[name](M) for name in expected} == expected
        for name, value in expected.items():
            seen[name].add(value)
    assert seen == dict.fromkeys(seen, {False, True})


@pytest.mark.parametrize("name", list(_hypothesis_instances()))
def test_unmet_hypotheses_skip_their_checks(tmp_path, capsys, name):
    M, hypotheses, counts = _hypothesis_instances()[name]
    assert _hypotheses_ref(M) == hypotheses
    path = tmp_path / f"{name}.mlat"
    path.write_text(serialize_instance(M.lattice, M), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (f"summary: {counts['pass']} pass, {counts['fail']} fail, "
                         f"{counts['skipped']} skipped over 1 instance(s)")
    skips = {}
    for line in lines[:-1]:
        found = re.fullmatch(r"(PASS|FAIL|SKIP) (\S+) (\S+) evaluated=\d+( \((.*)\))? "
                             r"\[\d+\.\d{3}s\]", line)
        assert found and found[2] == name, line
        if found[1] == "SKIP":
            skips[found[3]] = found[5]
    assert len(skips) == counts["skipped"]
    for check_id, reason in skips.items():
        unmet = [h for h in registry()[check_id].hypotheses if not hypotheses.get(h, True)]
        assert reason == ("hypotheses unmet: " + ", ".join(unmet) if unmet
                          else "vacuous quantification"), check_id


def test_implication_figure(inst12, inst8sq):
    def figure(inst):
        return run_suite([inst], checks=["fig1-implications"])

    for inst in (inst12, inst8sq):
        report = figure(inst)
        assert len(report.results) == 1
        assert report.results[0].status == "pass"
        assert report.results[0].violations == []
    # a single-proper-element module still evaluates (and passes)
    single = make_instance("zn-self-2", gen_zn_self_module(2))
    assert figure(single).results[0].status == "pass"
    # a module with no proper elements is a vacuous skip
    trivial = make_instance("zn-self-1", gen_zn_self_module(1))
    result = figure(trivial).results[0]
    assert result.status == "skipped" and result.skip_reason == "vacuous quantification"


def test_suite_rejects_two_instances_with_one_name(inst12):
    with pytest.raises(ValueError, match="'zn-self-12'"):
        run_suite([inst12, inst12], checks=["fig1-implications"])


def test_unknown_check_rejected(inst12):
    with pytest.raises(KeyError):
        run_suite([inst12], checks=["no-such-check"])


def test_repeated_check_rejected(inst12):
    # a check named twice would run and be counted twice
    with pytest.raises(ValueError, match="'lem-rad-meet' is named more than once"):
        run_suite([inst12], checks=["lem-rad-meet", "fig1-implications", "lem-rad-meet"])


def test_report_deterministic(inst12, inst8sq):
    a = run_suite([inst12, inst8sq], seed=7).as_dict()
    b = run_suite([inst12, inst8sq], seed=7).as_dict()
    assert a == b
    c = run_suite([inst12, inst8sq], seed=8)
    assert c.ok()  # a different seed still passes; sampling only widens coverage


def test_instance_info_recorded(inst8sq):
    report = run_suite([inst8sq], checks=["fig1-implications"])
    info = report.instances["zn-square-8"]
    assert info["module_elements"] == 37 and info["lattice_elements"] == 4
    assert len(info["fingerprint"]) == 16
    assert info["hypotheses"]["multiplication-module"] is False
    assert info["hypotheses"]["top-compact (auto)"] is True


def test_fault_injection_fails_and_replays(inst12, inst8sq):
    clean = run_suite([inst12, inst8sq])
    assert clean.ok()
    fault = Fault("pseudo_primary")
    faulted = run_suite([inst12, inst8sq], fault=fault)
    assert not faulted.ok()
    failing = faulted.failures()
    assert any(r.check_id == "fig1-implications" for r in failing)
    instances = {i.name: i for i in (inst12, inst8sq)}
    for result in failing:
        for violation in result.violations[:3]:
            assert replay_violation(instances[result.instance],
                                    result.check_id, violation, fault=fault)
            assert not replay_violation(instances[result.instance],
                                        result.check_id, violation)
    assert run_suite([inst12, inst8sq]).ok()


def test_fault_scoped_to_selected_elements(inst12):
    idx = label_index(inst12.module)
    cls = Ctx(inst12, fault=Fault("prime", elements=[idx["(2)"]])).cls
    assert not cls[idx["(2)"]].prime
    assert cls[idx["(3)"]].prime
    assert classify_all(inst12.module)[idx["(2)"]].prime


def test_replay_rejects_fabricated_witness(inst12):
    fake = {"kind": "flag-implication", "element": 1, "label": "(2)",
            "antecedent": "prime", "consequent": "pseudo_primary", "dashed": False}
    assert not replay_violation(inst12, "fig1-implications", fake)


def test_full_default_family_green():
    report = run_suite(default_instances())
    assert report.ok()
    failures = report.failures()
    assert failures == []


def test_pcp_sufficient_condition_needs_unrestricted_residuals(inst12):
    # On the Z_12 self module the element (6) has (N:K) primary for every
    # PROPER K not below N, yet it is not pseudo-classical primary: the
    # hypothesis must also cover K = I_M, where (N:I_M) = (6) is not primary.
    M = inst12.module
    idx = label_index(M)
    n = idx["(6)"]
    L = M.lattice
    for k in M.proper_elements():
        if not M.le(k, n):
            assert l_element_flags(L, residual_mm(M, n, k)).primary
    assert not l_element_flags(L, residual_mm(M, n, M.top)).primary
    assert not is_pseudo_classical_primary(M, n)[0]
    # the registered check therefore quantifies K over the whole carrier
    result = run_check(Ctx(inst12), registry()["thm-residual-primary-implies-pcp"])
    assert result.status == "pass"


def test_chain_checks_sample_longer_chains():
    # zn-self-16 is a chain of primary ideals: plenty of pseudo-primary chains
    inst = make_instance("zn-self-16", gen_zn_self_module(16))
    result = run_check(Ctx(inst), registry()["chain-pseudo-primary"])
    assert result.status == "pass"
    assert result.evaluated > 0


def test_bundle_constant():
    assert set(BUNDLE) == {"pg-lattice", "faithful", "multiplication-module",
                           "pg-module", "top-compact"}
    assert AUTO_HYPOTHESES == {"top-compact", "compactly-generated"}


@pytest.mark.parametrize("flag, check_id", [
    ("classical_prime", "thm-join-meet-condition-classical-prime"),
    ("pseudo_classical_primary", "thm-residual-primary-implies-pcp"),
])
def test_replay_non_flag_antecedent(inst12, flag, check_id):
    # the antecedents "join-meet-condition" and "residuals-primary" are not
    # classifier flags, so replay re-runs the check kernel
    fault = Fault(flag)
    result = run_check(Ctx(inst12, fault=fault), registry()[check_id])
    assert result.status == "fail"
    for violation in result.violations:
        assert replay_violation(inst12, check_id, violation, fault=fault)


def _flag_implication_holds(cls, violation) -> bool:
    """Reference replay of a flag-implication witness, read off the classification
    ``cls`` alone: the element carries every antecedent flag and not the consequent."""
    c = cls.get(violation["element"])
    return (c is not None and all(c.flag(f) for f in violation["antecedent"].split("+"))
            and not c.flag(violation["consequent"]))


def test_replay_agrees_with_the_classification_on_flag_implications(inst12):
    # replay re-runs the check; a witness whose antecedent is made of
    # classifier flags must replay exactly when the classification shows it
    M = inst12.module
    faults = [Fault(flag, elements) for flag in FLAG_NAMES
              for elements in (None, list(M.proper_elements())[::2])]
    replayed = set()
    for fault in faults:
        cls = Ctx(inst12, fault=fault).cls
        for result in run_suite([inst12], fault=fault).failures():
            for v in result.violations[:3]:
                if v["kind"] != "flag-implication" or not all(
                        f in FLAG_NAMES for f in v["antecedent"].split("+")):
                    continue
                assert _flag_implication_holds(cls, v)
                assert replay_violation(inst12, result.check_id, v, fault=fault)
                replayed.add(fault.flag)
                other = next(n for n in M.elements()
                             if not _flag_implication_holds(cls, {**v, "element": n}))
                consequent = next(f for f in FLAG_NAMES
                                  if not _flag_implication_holds(cls, {**v, "consequent": f}))
                for changed in ({**v, "element": other, "label": M.label(other)},
                                {**v, "consequent": consequent}):
                    assert not replay_violation(inst12, result.check_id, changed,
                                                fault=fault), changed
    # on zn-self-12 every radical primary element is pseudo-primary anyway
    assert replayed == set(FLAG_NAMES) - {"radical_element"}


def test_fault_leaves_classification_memo_alone(inst12):
    clean = classify_all(inst12.module)
    faulted = Ctx(inst12, fault=Fault("prime")).cls
    assert faulted is not clean and faulted is not Ctx(inst12, fault=Fault("prime")).cls
    assert [c.prime for c in faulted.values()] != [c.prime for c in clean.values()]
    assert classify_all(inst12.module) is clean
    assert Ctx(inst12).cls is clean


def test_structures_freed_after_use():
    # Derived tables are memoized on the structure they come from, so nothing
    # keeps a dropped module or its lattice alive.
    builds = [(gen_zn_self_module, n) for n in range(2, 13)]
    builds += [(gen_zn_square_module, n) for n in (2, 3, 4, 5)]
    refs = []
    for build, n in builds:
        module = build(n)
        classify_all(module)
        assert run_suite([make_instance(f"{build.__name__}-{n}", module)]).ok()
        refs += [weakref.ref(module), weakref.ref(module.lattice)]
        del module
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


def test_fault_reads_the_one_classification(monkeypatch):
    # ``latmod.classify`` is the classify function; the submodule is patched
    # through sys.modules
    classify_module = sys.modules["latmod.classify"]
    builds = []
    evaluate = classify_module._witnesses

    def counted(M, ns):
        """Records the elements of each whole-table block evaluated."""
        builds.append((M, list(ns)))
        return evaluate(M, ns)

    monkeypatch.setattr(classify_module, "_witnesses", counted)
    inst = make_instance("zn-square-4", gen_zn_square_module(4))
    other = make_instance("zn-self-12", gen_zn_self_module(12))
    assert not run_suite([inst, other], fault=Fault("pseudo_primary")).ok()
    assert run_suite([inst, other]).ok()
    # one pass over every proper element per instance; the fault adds none
    assert builds == [(i.module, list(i.module.proper_elements())) for i in (inst, other)]

    M = inst.module

    clean = [is_prime_m(M, n) for n in M.proper_elements()]
    faulted = Ctx(inst, fault=Fault("prime")).cls
    assert [c.prime for c in faulted.values()] == [not v for v, _ in clean]
    assert [c.prime for c in classify_all(M).values()] == [v for v, _ in clean]


def _definition_loop(M, n, bound):
    """Plain-loop evaluation over all triples of: abK <= N forces aK <= N or
    bK <= bound.  With bound = N this is the classical prime definition, with
    bound = rad(N) the pseudo-classical primary one."""
    L = M.lattice
    for a in L.elements():
        for b in L.elements():
            ab = L.mul(a, b)
            for k in M.elements():
                if M.le(M.act(ab, k), n) and not M.le(M.act(a, k), n) \
                        and not M.le(M.act(b, k), bound):
                    return False
    return True


def _pp_definition_loop(M, n):
    """Plain-loop evaluation over all pairs of: aX <= N forces a <= (N:I_M) or X <= rad(N)."""
    L = M.lattice
    rt, rd = residual_mm(M, n, M.top), rad(M, n)
    for a in L.elements():
        for x in M.elements():
            if M.le(M.act(a, x), n) and not L.le(a, rt) and not M.le(x, rd):
                return False
    return True


def test_compact_definitions_match_plain_loops():
    # The "compact-definition" sides read aK <= N as a <= (N:K); the loops
    # quantify the action itself.
    instances = default_instances() + [
        make_instance("zn-square-6", gen_zn_square_module(6)),
        make_instance("zn-square-9", gen_zn_square_module(9)),
        make_instance("zn-square-10", gen_zn_square_module(10)),
        make_instance("zn-self-60", gen_zn_self_module(60)),
    ]
    seen = set()
    for inst in instances:
        M, ctx = inst.module, Ctx(inst)
        for n in M.proper_elements():
            for bound in (n, rad(M, n)):
                holds = _compact_definition(ctx, n, bound)
                assert holds == _definition_loop(M, n, bound), (inst.name, n, bound)
                seen.add((bound == n, holds))
            holds = _pp_compact_definition(ctx, n)
            assert holds == _pp_definition_loop(M, n), (inst.name, n)
            seen.add(("pp", holds))
    # both verdicts occur for each side, so neither could be a constant
    assert seen == {(True, True), (True, False), (False, True), (False, False),
                    ("pp", True), ("pp", False)}


def test_breaks_matches_plain_loop():
    # breaks[z, w]: some a, b have ab <= z, a not<= z and b not<= w
    for n in range(1, 121):
        ctx = Ctx(make_instance(f"zn-self-{n}", gen_zn_self_module(n)))
        L = ctx.L
        pairs = list(itertools.product(L.elements(), repeat=2))
        want = np.array([[any(L.le(L.mul(a, b), z) and not L.le(a, z) and not L.le(b, w)
                              for a, b in pairs) for w in L.elements()] for z in L.elements()],
                        dtype=bool).reshape(L.element_count, L.element_count)
        assert np.array_equal(ctx.breaks, want), n


def test_ctx_arrays_are_read_only(inst8sq):
    ctx = Ctx(inst8sq)
    for arr in (ctx.mul_le, ctx.breaks, ctx.res_mm, ctx.res_ml, ctx.rad_of):
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]


@pytest.mark.parametrize("seed, flag", [(0, None), (2, None), (0, "pseudo_primary")])
def test_shared_context_matches_one_check_runs(seed, flag):
    # one context per instance must give what a context per check gives
    instances = default_instances() + [
        make_instance("zn-square-6", gen_zn_square_module(6)),
        make_instance("zn-square-9", gen_zn_square_module(9)),
    ]
    fault = Fault(flag) if flag else None
    shared = run_suite(instances, seed=seed, fault=fault).as_dict()
    alone = [r for inst in instances for cid in registry()
             for r in run_suite([inst], checks=[cid], seed=seed, fault=fault).as_dict()["results"]]
    alone.sort(key=lambda r: (r["instance"], r["check"]))
    assert shared["results"] == alone
    if fault:
        assert any(r["status"] == "fail" for r in alone)


def test_run_suite_calls_run_check_once_per_check(monkeypatch, inst12, inst8sq):
    # The benchmark's per-check trace wraps the module-global run_check and
    # reads the check from args[1].
    calls = []
    original = harness.run_check

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_check", spy)
    run_suite([inst12, inst8sq])
    assert len(calls) == 2 * len(registry()) == 128
    for inst, block in zip((inst12, inst8sq), (calls[:64], calls[64:])):
        assert all(isinstance(args[0], Ctx) and args[0].instance is inst
                   and isinstance(args[1], TheoremCheck) and not kwargs for args, kwargs in block)
        assert [args[1].id for args, _ in block] == list(registry())
        assert len({id(args[0]) for args, _ in block}) == 1


@pytest.mark.parametrize("flag", (None, *FLAG_NAMES), ids=lambda flag: flag or "no-fault")
def test_ctx_classification_carries_the_point_values(inst8sq, inst12, flag):
    # the kernels read rad(N), (N:I_M) and sqrt(N:I_M) from ``ctx.cls[n]``;
    # a fault inverts a flag there, never these values
    for inst in (inst8sq, inst12):
        ctx = Ctx(inst, fault=None if flag is None else Fault(flag))
        M, L = inst.module, inst.lattice
        assert (ctx.cls is classify_all(M)) == (flag is None)
        for n in ctx.propers:
            c = ctx.cls[n]
            assert c.rad == rad(M, n)
            assert c.residual_top == residual_mm(M, n, M.top)
            assert c.sqrt_residual_top == sqrt(L, residual_mm(M, n, M.top))


def test_fault_rejects_an_unknown_flag():
    with pytest.raises(ValueError, match="unknown classifier flag 'no_such_flag'"):
        Fault("no_such_flag")
    assert Fault("prime", [3, 1, 3]).elements == frozenset({1, 3})


def test_fault_stays_in_its_context_across_threads(inst12):
    # a faulted context held in one thread changes nothing another thread reads
    fault = Fault("prime")
    held, release = threading.Event(), threading.Event()
    seen = {}

    def faulted():
        ctx = Ctx(inst12, fault=fault)
        seen["cls"] = ctx.cls
        held.set()
        release.wait(timeout=60)
        seen["report"] = run_suite([inst12], fault=fault)

    thread = threading.Thread(target=faulted)
    thread.start()
    try:
        assert held.wait(timeout=60)
        M = gen_zn_self_module(12)
        truth = [is_prime_m(M, n)[0] for n in M.proper_elements()]
        assert [c.prime for c in classify_all(M).values()] == truth
        assert run_suite([make_instance("zn-self-12", M)]).ok()
    finally:
        release.set()
        thread.join()
    assert [c.prime for c in seen["cls"].values()] == [not v for v in truth]
    assert not seen["report"].ok()


# The checks that no classifier fault reaches on the default family: the
# sqrt, rad and saturation identities read only the derived tables,
# thm-proper-action-proper only the action table, the chain-* checks and
# lem-rad-meet re-read flags on chains and families that cannot break them,
# and cor-rad-join-p is broken by none of the faults tried.
UNREACHABLE_BY_A_FAULT = {
    "chain-classical-prime", "chain-pseudo-classical-primary", "chain-pseudo-primary",
    "cor-rad-join-p", "lem-rad-meet", "lem-sqrt-action-bound", "lem-sqrt-meet",
    "lem-sqrt-residual-below-rad-residual", "lem-sqrt-residual-rad-bound",
    "prop-rad-idempotent", "prop-variety-nonempty", "thm-proper-action-proper",
    "thm-rad-action-formula", "thm-rad-eq",
}


def test_checks_no_classifier_fault_reaches():
    # each flag inverted on every proper element, on the odd ids and on the
    # even ids of each default instance: 9 x 3 x 33 one-instance suites
    failed = set()
    for inst in default_instances():
        propers = list(inst.module.proper_elements())
        odd, even = [n for n in propers if n % 2], [n for n in propers if not n % 2]
        for flag in FLAG_NAMES:
            for elements in (None, odd, even):
                report = run_suite([inst], fault=Fault(flag, elements))
                failed |= {r.check_id for r in report.failures()}
    assert set(registry()) - failed == UNREACHABLE_BY_A_FAULT


def _action_bound(y, action):
    return {"kind": "action-bound", "q": 3, "Y": y, "label": "(4)", "action": action,
            "top_action": 1, "rad": 3}


# Rows: a check, the classification fields of zn-self-12 that one context
# reads changed ({element: {field: value}}), and the evaluated count and
# violations that the check then reports.  In zn-self-12, L and M both number
# (1), (2), (3), (4), (6), (0) as 0-5 with the top (1) = 0, and N = (2), (3),
# (4), (6), (0) have rad(N) = sqrt(N:I_M) = (2), (3), (2), (6), (6).  These
# are the violation branches that no classifier fault reaches.
VIOLATION_BRANCHES = [
    ("lem-sqrt-residual-below-rad-residual", {3: {"sqrt_residual_top": 0}}, 5,
     [{"kind": "lattice-leq", "element": 3, "label": "(4)", "lhs": 0, "rhs": 1}]),
    ("prop-rad-idempotent", {4: {"rad": 0}, 5: {"rad": 3}}, 5,
     [{"kind": "rad-value", "element": 4, "label": "(6)", "rad": 0},
      {"kind": "rad-value", "element": 5, "label": "(0)", "rad": 3}]),
    ("prop-variety-nonempty", {4: {"rad": 0}}, 5,
     [{"kind": "rad-value", "element": 4, "label": "(6)", "rad": 0}]),
    ("thm-rad-eq", {3: {"sqrt_residual_top": 0}}, 5,
     [{"kind": "lattice-equality", "element": 3, "label": "(4)", "lhs": 1, "rhs": 0}]),
    ("thm-rad-action-formula", {5: {"rad": 3}}, 5,
     [{"kind": "rad-value", "element": 5, "label": "(0)", "rad": 3, "expected": 4}]),
    ("lem-sqrt-action-bound", {3: {"rad": 3}}, 30,
     [_action_bound(y, action) for y, action in enumerate([1, 3, 4, 3, 5, 5])]),
    ("cor-rad-join-p", {2: {"p_pseudo_primary": 0}, 3: {"rad": 3}}, 3,
     [{"kind": "p-join", "element": 2, "label": "(3)", "p": 0, "join": 0, "rad": 2},
      {"kind": "p-join", "element": 3, "label": "(4)", "p": 1, "join": 1, "rad": 3}]),
    # rad(N) = top is reported before the sides, which would read cls[top]
    ("thm-rad-pseudo-primary-iff-prime", {4: {"rad": 0}}, 5,
     [{"kind": "rad-value", "element": 4, "label": "(6)", "rad": 0}]),
    # the sides agree, but the attached primes do not
    ("equiv-rad-attachments", {3: {"p_pseudo_primary": 2}}, 5,
     [{"kind": "attachment-mismatch", "element": 3, "label": "(4)", "primes": [1, 2]}]),
]


@pytest.mark.parametrize("check_id, changes, evaluated, violations", VIOLATION_BRANCHES,
                         ids=[row[0] for row in VIOLATION_BRANCHES])
def test_violation_branches_pinned(inst12, check_id, changes, evaluated, violations):
    ctx = Ctx(inst12)
    ctx.cls = {n: replace(c, **changes.get(n, {})) for n, c in ctx.cls.items()}
    result = run_check(ctx, registry()[check_id])
    assert (result.evaluated, result.violations) == (evaluated, violations)


def test_sqrt_meet_violation_pinned(inst12):
    ctx = Ctx(inst12)
    ctx.sqrts = ctx.sqrts.copy()
    ctx.sqrts[5] = 5                    # sqrt((0)) read as (0), not (6)
    result = run_check(ctx, registry()["lem-sqrt-meet"])
    assert result.evaluated == 36
    assert result.violations == [
        {"kind": "lattice-equality", "pair": [a, b], "lhs": 5, "rhs": 4,
         "label": f"{inst12.lattice.label(a)}, {inst12.lattice.label(b)}"}
        for a, b in ((2, 3), (3, 2), (3, 4), (4, 3))]


def test_proper_action_violation_pinned():
    # L is the chain 0 < a < 1 with product = meet, M the chain 0 < 1 with
    # aX = 1X = X: the proper a has a I_M = I_M.  The bundle fails here (L is
    # not pg), so the context reads it as met.
    L = validate_lattice(np.arange(3)[:, None] <= np.arange(3), np.minimum.outer(range(3), range(3)),
                         labels=["0", "a", "1"])
    M = validate_module(L, [[True, True], [False, True]], [[0, 0], [0, 1], [0, 1]])
    ctx = Ctx(make_instance("chain-3-on-chain-2", M))
    ctx.hypotheses = dict.fromkeys(HYPOTHESES, True)
    result = run_check(ctx, registry()["thm-proper-action-proper"])
    assert (result.evaluated, result.violations) == (
        2, [{"kind": "action-proper", "q": 1, "label": "a"}])
