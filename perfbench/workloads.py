"""The four benchmark workloads: their inputs, operations and golden checks.

Every input is MLAT text made by latmod's own generators and pinned by a
content digest in ``golden.json``; every operation's expected output was
recorded from the library by ``record_golden.py``.  A workload turns the
benchmark seed into a deterministic plan of operations over those inputs.

* ``verify-default``: the 33 default-family instances, each one
  ``latmod verify <file> --format json`` op.  Many small tables, so fixed
  per-call cost in parse, validate, harness and cli dominates.
* ``verify-self-5040``: zn-self-5040 through ``verify --format json``, one op
  per pass.  The harness oracle checks dominate.  Runs by hand for its
  trace; not declared in ``BENCHMARK.json`` (see README.md).
* ``load-square-10``: zn-square-10 through ``classify --all --format json``
  (accepted) plus seeded single-cell ``act`` mutations through ``validate``
  (rejected, exit 1).  Parse and validation dominate; no harness runs.
  zn-square-10 rather than zn-square-24: its ops take 25-60 ms instead of
  1-3 s, so a run repeats each one often enough to be steady (README.md).
* ``query-square-24``: zn-square-24 parsed once per pass, then a seeded
  stream of library point queries spread evenly over nine kinds.  The only
  workload where the cost of a memo read is visible.  Runs by hand; not
  declared in ``BENCHMARK.json`` (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
GOLDEN_PATH = BENCH_DIR / "golden.json"

LOAD = "load-square-10"
WORKLOADS = ("verify-default", "verify-self-5040", LOAD, "query-square-24")

# Instances per workload, as (generator family, modulus).
DEFAULT_FAMILY = tuple([("zn-self", n) for n in range(2, 31)]
                       + [("zn-square", n) for n in (2, 3, 4, 8)])
INSTANCES = {
    "verify-default": DEFAULT_FAMILY,
    "verify-self-5040": (("zn-self", 5040),),
    LOAD: (("zn-square", 10),),
    "query-square-24": (("zn-square", 24),),
}

# ``verify --seed`` drives sampled quantifications and appears in the report,
# so golden reports exist for a fixed set of values; the benchmark seed picks
# among them per instance.
VERIFY_SEEDS = (0, 1, 2, 3)
MUTATIONS = 16         # rejected in every pass of a run
QUERIES_PER_KIND = 500
CLI_KINDS = ("verify", "accept", "reject")
QUERY_KINDS = ("classify", "rad", "residual_mm", "residual_ml", "saturation",
               "variety", "variety_l", "is_principal_m", "sqrt")

# Passes after which ``peak_rss_mb`` is read, so it measures a fixed amount
# of work rather than however many passes fit in the run.  At least one
# pass after the first shows what the memos retain.
RSS_AFTER_PASSES = {"verify-default": 10, "verify-self-5040": 2,
                    LOAD: 2, "query-square-24": 2}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instance_name(family: str, n: int) -> str:
    return f"{family}-{n}"


def instance_text(family: str, n: int) -> str:
    """Canonical MLAT text from the library's generator (cap raised to n)."""
    from latmod import DEFAULT_SQUARE_CAP, InstanceSpec, serialize_instance

    _, lattice, module = InstanceSpec(family=family, n=n).build(
        cap=max(n, DEFAULT_SQUARE_CAP))
    return serialize_instance(lattice, module)


def mutate(text: str, a: int, x: int, value: int) -> str:
    """Replace the ``act a x _`` statement of MLAT text with ``act a x value``."""
    prefix = f"act {a} {x} "
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    if len(hits) != 1:
        raise ValueError(f"expected one {prefix!r} statement, found {len(hits)}")
    lines[hits[0]] = f"act {a} {x} {value}"
    return "\n".join(lines)


class InputDrift(RuntimeError):
    """A generated input no longer matches the digest the goldens were recorded on."""


def inputs_dir(workload: str) -> Path:
    """Relative to the repository root, which is the working directory of every
    run: ``validate`` names its input path in the error text that is checked."""
    return WORK_DIR.relative_to(ROOT) / "inputs" / workload


def mutation_path(workload: str, index: int) -> Path:
    return inputs_dir(workload) / f"mutation-{index:02d}.mlat"


def prepare(workload: str, golden: dict) -> None:
    """Generate the workload's MLAT files and refuse them if any digest drifted."""
    out = inputs_dir(workload)
    out.mkdir(parents=True, exist_ok=True)
    for family, n in INSTANCES[workload]:
        name = instance_name(family, n)
        text = instance_text(family, n)
        if digest(text) != golden["inputs"][name]:
            raise InputDrift(f"generated {name} differs from the recorded input")
        (out / f"{name}.mlat").write_text(text, encoding="utf-8")
    if workload == LOAD:
        for i, m in enumerate(golden["mutations"]):
            mutated = mutate(text, *m["cell"], m["value"])
            if digest(mutated) != m["input_sha256"]:
                raise InputDrift(f"mutation {i} of {name} differs from the recorded input")
            mutation_path(workload, i).write_text(mutated, encoding="utf-8")


# ---------------------------------------------------------------------------
# operations


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``latmod.cli.main(argv)`` in-process; returns (exit code, stdout, stderr)."""
    from latmod import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_query(module, kind: str, args: list[int]):
    """One library point query, looked up on the package at call time."""
    import latmod

    if kind == "sqrt":
        return latmod.sqrt(module.lattice, *args)
    return getattr(latmod, kind)(module, *args)


def query_value(result):
    """JSON-comparable form of a query result; a classification becomes a digest."""
    if hasattr(result, "as_dict"):
        return digest(json.dumps(result.as_dict(), sort_keys=True))[:16]
    if isinstance(result, tuple):
        return list(result)
    return result


@dataclass
class Op:
    kind: str                          # verify | accept | reject | a query kind
    run: Callable[[object], object]    # takes the pass state
    expect: dict

    def ok(self, observed) -> bool:
        if isinstance(observed, BaseException):
            return False
        if self.kind in ("verify", "accept"):
            code, out, _ = observed
            return code == self.expect["exit"] and digest(out) == self.expect["sha256"]
        if self.kind == "reject":
            code, _, err = observed
            return code == self.expect["exit"] and digest(err) == self.expect["stderr_sha256"]
        try:
            return json.dumps(query_value(observed)) == json.dumps(self.expect["value"])
        except (TypeError, ValueError):    # not a JSON value, so not the recorded one
            return False


def _cli_op(kind: str, argv: list[str], expect: dict) -> Op:
    return Op(kind, lambda _state: run_cli(argv), expect)


def _query_op(kind: str, args: list[int], expect) -> Op:
    return Op(kind, lambda module: run_query(module, kind, args), {"value": expect})


@dataclass
class Plan:
    """What every pass of one run does: its own set-up, then its ops."""

    ops: list[Op]
    start_pass: Callable[[], object] = lambda: None


def make_plan(workload: str, seed: int, golden: dict) -> Plan:
    """Read the prepared inputs and turn the seed into the run's operations."""
    rng = random.Random(f"{workload}:{seed}")
    base = inputs_dir(workload)
    paths = {instance_name(f, n): base / f"{instance_name(f, n)}.mlat"
             for f, n in INSTANCES[workload]}
    # Read every input, as set-up is defined to; the CLI ops read them again.
    texts = {name: path.read_text(encoding="utf-8") for name, path in paths.items()}

    if workload in ("verify-default", "verify-self-5040"):
        names = sorted(paths)
        rng.shuffle(names)
        ops = []
        for name in names:
            vseed = rng.choice(VERIFY_SEEDS)
            ops.append(_cli_op("verify",
                               ["verify", str(paths[name]), "--format", "json",
                                "--seed", str(vseed)],
                               golden["verify"][name][str(vseed)]))
        return Plan(ops=ops)

    (name,) = paths
    if workload == LOAD:
        # One mutation from each sixteenth of the pool ranked by violation count,
        # so every seed rejects a comparable mix; the same ones in every pass.
        pool = golden["mutations"]
        ranked = sorted(range(len(pool)), key=lambda k: (pool[k]["violations"], k))
        share = len(ranked) // MUTATIONS
        picks = [rng.choice(ranked[j * share:(j + 1) * share]) for j in range(MUTATIONS)]
        rng.shuffle(picks)
        ops = [_cli_op("accept", ["classify", str(paths[name]), "--all", "--format", "json"],
                       golden["classify"][name])]
        ops += [_cli_op("reject", ["validate", str(mutation_path(workload, k))], pool[k])
                for k in picks]
        return Plan(ops=ops)

    if workload == "query-square-24":
        # A repeated query is one op, so its fastest time draws on every repeat;
        # the first query of each kind in a pass builds that kind's memo and
        # stays an op of its own.
        pools = golden["queries"]
        stream, seen = [], {}
        for _ in range(QUERIES_PER_KIND):
            kinds = list(QUERY_KINDS)
            rng.shuffle(kinds)
            for kind in kinds:
                args, expect = pools[kind][rng.randrange(len(pools[kind]))]
                if kind not in seen:
                    seen[kind] = {}
                    stream.append(_query_op(kind, args, expect))
                    continue
                key = tuple(args)
                if key not in seen[kind]:
                    seen[kind][key] = _query_op(kind, args, expect)
                stream.append(seen[kind][key])
        text = texts[name]

        def parse():
            import latmod

            return latmod.parse_instance(text)[1]
        return Plan(ops=stream, start_pass=parse)

    raise ValueError(f"unknown workload {workload!r}")
