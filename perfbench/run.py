"""latmod benchmark: MLAT text to verified report, timed end to end and per layer.

From the repository root:

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 45 --trace 0

Workloads (see ``workloads.py`` and ``README.md`` for why each exists):
``verify-default`` and ``load-square-10``, declared in ``BENCHMARK.json``,
and ``verify-self-5040`` and ``query-square-24``, which run by hand.  The run
generates the workload's MLAT inputs with the library's generators and
refuses to go on if one differs from the digest in ``golden.json``.  It then
starts fresh worker processes with BLAS/OpenMP pools pinned to one thread: a
few that only set up, for ``setup_s``, and one that runs whole passes for
``--seconds`` and checks every op's output against ``golden.json``.
``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference host speed (``pinning.py``); ``--trace 1`` wraps the
library's public functions from outside and reports per-layer self times and
counts instead.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 with a result; 1 if a worker failed or ran out of time; 2 if
the library sources are not next to the benchmark; 3 if an input drifted.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time

import workloads
from pinning import allowed_cpus, pin_fastest

SETUP_PROBES = 11       # set-up-only workers; the measuring worker adds one more sample
TIME_LIMIT_S = 170      # a run must end within 180 s


def git_commit() -> str | None:
    """The checked-out commit, read without running git; None outside a git checkout."""
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((workloads.ROOT / "src" / "latmod").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def spawn_worker(args, env: dict, deadline: float, cpus: list[int],
                 setup_only: bool = False) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON result and its start time.

    The worker starts on the CPU that is fastest now (it inherits this
    process's pinning) and may move among ``cpus``.
    """
    argv = [sys.executable, str(workloads.BENCH_DIR / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--cpus", ",".join(map(str, cpus))]
    if setup_only:
        argv.append("--setup-only")
    pin_fastest(cpus)
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=workloads.ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def main(argv=None) -> int:
    process_start = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = workloads.ROOT
    src = root / "src"
    if not (src / "latmod" / "__init__.py").is_file():
        print(f"error: no latmod sources under {src}", file=sys.stderr)
        return 2
    os.chdir(root)
    sys.path.insert(0, str(src))
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(workloads.GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)

    try:
        workloads.prepare(args.workload, golden)
    except workloads.InputDrift as exc:
        print(f"error: {exc}; refusing to run", file=sys.stderr)
        return 3

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    deadline = process_start + TIME_LIMIT_S
    cpus = allowed_cpus()
    setup = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            probe, started = spawn_worker(args, env, deadline, cpus, setup_only=True)
            setup.append(probe["ready"] - started)

    # Half the set-up probes run before the measuring worker and half after
    # it, so their median spans the run rather than one spell of the host.
    try:
        if not args.trace:
            probe_setup(SETUP_PROBES // 2)
        result, started = spawn_worker(args, env, deadline, cpus)
        if not args.trace:
            setup.append(result["ready"] - started)
            probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    measured = result["metrics"]
    if not args.trace:
        # scaled to the reference host speed like the worker's times (pinning.py)
        measured["setup_s"] = statistics.median(setup) * result["scale"]

    import numpy

    env_info = {"commit": git_commit(), "src_sha256": source_digest(),
                "python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": os.cpu_count(),
                "passes": result["passes"], "ops": result["ops"]}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in measured and not args.trace:
            print(f"error: end-to-end metric {name} was not measured", file=sys.stderr)
            return 1
        # a layer this workload never enters has no spans: zero time, zero calls
        metrics[name] = {"value": measured.get(name, 0.0), "unit": entry["unit"]}

    attempted, failed = result["attempted"], result["failed"]
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = workloads.WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "env": env_info, "measured": measured,
                   "pass_walls": result["walls"], "setup_samples": setup, "scale": result.get("scale"),
                   "raw": result.get("raw"), **out}, fh,
                  indent=1, sort_keys=True)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} ops)")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
