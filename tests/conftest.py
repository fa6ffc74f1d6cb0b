import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import latmod
from latmod import gen_zn_ideal_lattice, gen_zn_self_module, gen_zn_square_module

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 run is reproducible.  Hypothesis still caches the
# constants it reads from local source files, at collection time; keep that
# cache in the system temporary directory rather than in .hypothesis/.
settings.register_profile("latmod", derandomize=True, database=None, deadline=None,
                          max_examples=200)
settings.load_profile("latmod")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "latmod-hypothesis")

# filled by tests/test_acceptance.py; printed after the run
ACCEPTANCE_LINES = []


def pytest_report_header(config):
    # pyproject.toml's pythonpath puts this checkout's src/ ahead of
    # PYTHONPATH, so name the tree under test
    return f"latmod: {Path(latmod.__file__).parent}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def l12():
    return gen_zn_ideal_lattice(12)


@pytest.fixture(scope="session")
def l8():
    return gen_zn_ideal_lattice(8)


@pytest.fixture(scope="session")
def m12self():
    return gen_zn_self_module(12)


@pytest.fixture(scope="session")
def m8self():
    return gen_zn_self_module(8)


@pytest.fixture(scope="session")
def m8square():
    return gen_zn_square_module(8)


@pytest.fixture(scope="session")
def m4square():
    return gen_zn_square_module(4)


def label_index(structure):
    return {structure.label(i): i for i in structure.elements()}
