"""Byte-level pins on the reports, so a refactor of the harness or the CLI
cannot change a registry entry, a clean report or a violation dict unnoticed.

The digests were recorded at commit 2db39dc; a change meant to alter a
report re-records them.  A clean report has empty violation lists, so the
faulted zn-self-12 suites are what pin the violation builders: across the
nine faults they produce violations in 50 of the 64 checks, of 11 kinds.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from latmod import (
    gen_zn_ideal_lattice,
    gen_zn_self_module,
    gen_zn_square_module,
    inject_classifier_fault,
)
from latmod.classify import FLAG_NAMES, classify_all
from latmod.cli import main
from latmod.harness import make_instance, run_suite
from latmod.lattice import lattice_violations
from latmod.module import module_violations

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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_stdout(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def test_verify_list_pinned():
    assert _sha256(_cli_stdout("verify", "--list")) == LIST_SHA256


def test_verify_default_json_pinned():
    out = _cli_stdout("verify", "--family", "default", "--format", "json")
    assert _sha256(out) == DEFAULT_JSON_SHA256


@pytest.fixture(scope="module")
def zn_self_12():
    return make_instance("zn-self-12", gen_zn_self_module(12))


def test_faults_cover_every_flag():
    assert set(FAULTED_SHA256) == set(FLAG_NAMES)


@pytest.mark.parametrize("flag", FLAG_NAMES)
def test_faulted_suite_pinned(zn_self_12, flag):
    with inject_classifier_fault(flag):
        report = run_suite([zn_self_12]).as_dict()
    # insertion order, not sort_keys: the key order of every violation is pinned too
    assert _sha256(json.dumps(report)) == FAULTED_SHA256[flag]


def test_targeted_faults_pinned(zn_self_12):
    M = zn_self_12.module
    digest = hashlib.sha256()
    for flag in FLAG_NAMES:
        with inject_classifier_fault(flag, elements=list(M.proper_elements())[::2]):
            digest.update(json.dumps(run_suite([zn_self_12]).as_dict()).encode())
            digest.update(json.dumps([c.as_dict() for c in classify_all(M).values()]).encode())
    assert digest.hexdigest() == TARGETED_FAULT_SHA256


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
