"""One measured run of a workload, in a fresh process started by ``run.py``.

Prints one JSON line.  With ``--setup-only`` the line holds only the
monotonic clock reading at which the first timed op would start, so the
parent can time interpreter start, ``import latmod`` and reading the
prepared inputs.  Otherwise the worker runs whole passes until ``--seconds``
have passed (and at least as many as ``peak_rss_mb`` needs), checks every
op's output against ``golden.json`` after its pass, and reports the
end-to-end numbers or, with ``--trace 1``, the per-layer numbers.

Timing statistics.  On a shared 2-vCPU virtual machine the same pass took
anywhere from 1x to 1.8x its quiet time depending on what else the host was
doing, in spells of a few seconds.  A median over one run's passes
therefore moves by 30% between runs.  The end-to-end times are built from
each step's fastest repetition in the run instead (a step is one op, or a
pass's own set-up such as the parse in ``query-square-24``): ops are short,
so every step meets a quiet spell at least once, and the fastest repetition
of a deterministic step is its cost without interference.

* ``wall_s``: a pass's steps at their fastest in the run, summed.
* ``op_p50_ms`` / ``op_p90_ms``: percentiles over the run's distinct ops of
  each op's fastest time.

All three are then scaled to a reference host speed: multiplied by
``REFERENCE_PROBE_S`` over the fastest time of a fixed probe loop in the run,
because the host's speed also drifts over minutes, longer than a run
(``pinning.py``).  The unscaled values and the plain medians over every
sample are kept in the results file as ``raw``.  Before each pass, and before
a step once ``REPIN_S`` has passed, the worker moves to the CPU that runs the
probe fastest and records the probe's time there.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import tracemalloc

import workloads
from pinning import REFERENCE_PROBE_S, pin_fastest
from workloads import CLI_KINDS, QUERY_KINDS, RSS_AFTER_PASSES

START = "start"     # step key of a pass's own set-up
REPIN_S = 0.25      # re-choose the CPU before a step once this long has passed


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, so one sample is its own quantile)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Timings:
    """Every latency sample of a run, per op kind, each step's fastest time,
    and the fastest probe time seen while pinning."""

    def __init__(self):
        self.by_kind: dict[str, list[float]] = {k: [] for k in CLI_KINDS + QUERY_KINDS}
        self.fastest: dict[object, float] = {}
        self.walls: list[float] = []
        self.probe = float("inf")

    def add(self, step, seconds: float) -> None:
        if step is not START:
            self.by_kind[step.kind].append(seconds)
        key = START if step is START else id(step)
        self.fastest[key] = min(seconds, self.fastest.get(key, seconds))

    def best_wall(self, plan) -> float:
        return self.fastest[START] + sum(self.fastest[id(op)] for op in plan.ops)


def run_pass(plan, timings: Timings, cpus: list[int], rec=None) -> list:
    """One pass; records its timings and returns the (op, observed output) pairs."""
    clock = time.perf_counter
    outcomes = []
    timings.probe = min(timings.probe, pin_fastest(cpus))
    pinned = start = clock()
    state = plan.start_pass()
    timings.add(START, clock() - start)
    for op in plan.ops:
        if rec is not None:
            rec.op += 1
        if clock() - pinned >= REPIN_S:
            timings.probe = min(timings.probe, pin_fastest(cpus))
            pinned = clock()
        t = clock()
        try:
            observed = op.run(state)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            observed = exc
        timings.add(op, clock() - t)
        outcomes.append((op, observed))
    timings.walls.append(clock() - start)
    return outcomes


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cpus", default="", help="comma-separated CPUs the passes may be pinned to")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    cpus = [int(c) for c in args.cpus.split(",") if c]

    import latmod.cli  # noqa: F401  (part of the timed set-up; loads every layer)

    with open(workloads.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    plan = workloads.make_plan(args.workload, args.seed, golden)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    rec = None
    if args.trace:
        import tracing

        span_s, passthrough_s = tracing.span_cost()
        rec = tracing.Recorder()
        rec.install()

    timings = Timings()
    attempted, failed = 0, 0
    rss_kb = None
    rss_after = RSS_AFTER_PASSES[args.workload]
    deadline = time.perf_counter() + args.seconds
    while len(timings.walls) < rss_after or time.perf_counter() < deadline:
        outcomes = run_pass(plan, timings, cpus, rec)
        if len(timings.walls) == rss_after:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted += len(outcomes)
        failed += sum(not op.ok(observed) for op, observed in outcomes)
        del outcomes

    passes = len(timings.walls)
    samples = [x for values in timings.by_kind.values() for x in values]
    result = {"attempted": attempted, "failed": failed, "passes": passes,
              "ops": len(samples), "ready": ready, "walls": timings.walls, "metrics": {}}
    m = result["metrics"]
    if rec is None:
        fastest_ops = [v for k, v in timings.fastest.items() if k is not START]
        fastest = {"wall_s": timings.best_wall(plan),
                   "op_p50_ms": quantile(fastest_ops, 50) * 1e3,
                   "op_p90_ms": quantile(fastest_ops, 90) * 1e3}
        result["scale"] = REFERENCE_PROBE_S / timings.probe
        m.update({name: value * result["scale"] for name, value in fastest.items()})
        m["peak_rss_mb"] = rss_kb / 1024
        result["raw"] = {"fastest": fastest, "probe_s": timings.probe,
                         "wall_s": statistics.median(timings.walls),
                         "op_p50_ms": quantile(samples, 50) * 1e3,
                         "op_p90_ms": quantile(samples, 90) * 1e3,
                         "distinct_ops": len(fastest_ops)}
    else:
        rec.uninstall()
        m.update(layer_metrics(rec, timings, span_s, passthrough_s))
        trace_dir = workloads.WORK_DIR / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        rec.write(trace_dir / f"{args.workload}.tsv")
        del rec
        m["memory.retained_mb"], mem_ops, mem_failed = retained_mb(plan, cpus)
        result["attempted"] += mem_ops
        result["failed"] += mem_failed
    print(json.dumps(result))
    return 0


def check_metric(check_id: str) -> str:
    """Metric name of a check's self seconds, shortened to the 64-letter name limit."""
    name = f"harness.check.{check_id}.s"
    if len(name) > 64:
        name = name.replace("pseudo-classical-primary", "pcp")
    return name


def layer_metrics(rec, timings: Timings, span_s: float, passthrough_s: float) -> dict[str, float]:
    """Per-pass means of self time and counts per layer, from the traced passes."""
    walls = timings.walls
    passes = len(walls)
    calls = rec.calls()
    out = {}
    for key, seconds in rec.self_seconds().items():
        if key.startswith("harness.check."):
            out[check_metric(key[len("harness.check."):])] = seconds / passes
        else:
            out[f"{key}.self_s"] = seconds / passes

    def count(*layers):
        return sum(calls.get(layer, 0) for layer in layers) / passes

    out["instances.parse.calls"] = count("instances.parse")
    out["instances.serialize.calls"] = count("instances.serialize")
    out["lattice.calls"] = count("lattice.validate", "lattice.tables", "lattice.query")
    out["module.calls"] = count("module.validate", "module.tables", "module.query")
    out["classify.classify_all.calls"] = count("classify.classify_all")
    out["harness.evaluated"] = rec.evaluated / passes
    out["harness.asserted_ratio"] = rec.asserted / rec.checks if rec.checks else 0.0
    for kind in QUERY_KINDS:
        if timings.by_kind[kind]:
            out[f"query.{kind}.p50_us"] = statistics.median(timings.by_kind[kind]) * 1e6
    out["trace.wall_s"] = sum(walls) / passes
    out["trace.unattributed_s"] = (sum(walls) - rec.top_level_seconds()) / passes
    out["trace.overhead_s"] = (len(rec.spans) * span_s + rec.passthrough * passthrough_s) / passes
    return out


def retained_mb(plan, cpus: list[int]) -> tuple[float, int, int]:
    """Memory still allocated after one more (untraced) pass's objects are dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        outcomes = run_pass(plan, Timings(), cpus)
        ops = len(outcomes)
        failed = sum(not op.ok(observed) for op, observed in outcomes)
        del outcomes
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current / 2**20, ops, failed


if __name__ == "__main__":
    sys.exit(main())
