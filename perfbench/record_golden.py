"""Record ``golden.json``: input digests and every op's expected output.

Run from the repository root at the commit whose outputs define "correct":

    python3 perfbench/record_golden.py

It generates every input with latmod's generators, runs each op the
workloads can draw (every verify seed, every mutation in the pool, every
query in each kind's pool) through the same code the benchmark uses, and
writes the digests and values.  The mutation cells and the residual_mm query
pairs are drawn once here from a fixed seed; the benchmark seed only picks
among them.
"""

from __future__ import annotations

import json
import os
import random
import sys

import workloads
from workloads import (INSTANCES, VERIFY_SEEDS, digest, instance_name,
                       instance_text, mutate, run_cli, run_query, query_value)

POOL_SEED = 2006_01663
MUTATION_POOL = 48
RESIDUAL_MM_POOL = 2000


def record_verify(golden: dict, name: str, path: str) -> None:
    golden["verify"][name] = {}
    for vseed in VERIFY_SEEDS:
        code, out, err = run_cli(["verify", path, "--format", "json", "--seed", str(vseed)])
        if code != 0:
            raise SystemExit(f"verify {name} --seed {vseed} exited {code}: {err}")
        golden["verify"][name][str(vseed)] = {"exit": code, "sha256": digest(out)}


def record_mutations(golden: dict, text: str, module, workload: str) -> None:
    rng = random.Random(POOL_SEED)
    nl, m = module.act_table.shape
    cells = rng.sample([(a, x) for a in range(nl) for x in range(m)], MUTATION_POOL)
    pool = []
    for i, (a, x) in enumerate(cells):
        current = int(module.act_table[a, x])
        value = rng.choice([v for v in range(m) if v != current])
        mutated = mutate(text, a, x, value)
        path = workloads.mutation_path(workload, i)
        path.write_text(mutated, encoding="utf-8")
        code, _, err = run_cli(["validate", str(path)])
        if code != 1:
            raise SystemExit(f"mutation {i} (act {a} {x} {value}) was not rejected: exit {code}")
        pool.append({"cell": [a, x], "value": value, "input_sha256": digest(mutated),
                     "exit": code, "stderr_sha256": digest(err),
                     "violations": err.count("\n") - 1})
    golden["mutations"] = pool


def query_pools(module) -> dict[str, list[list[int]]]:
    """Arguments each query kind draws from: its whole domain, except residual_mm."""
    import latmod

    L = module.lattice
    proper = [[n] for n in module.elements() if n != module.top]
    primes = [p for p in L.elements() if latmod.lattice_flags(L)[p].prime]
    rng = random.Random(POOL_SEED)
    m = module.element_count
    return {
        "classify": proper,
        "rad": proper,
        "residual_mm": [[rng.randrange(m), rng.randrange(m)] for _ in range(RESIDUAL_MM_POOL)],
        "residual_ml": [[n, a] for n in module.elements() for a in L.elements()],
        "saturation": [[n, p] for (n,) in proper for p in primes],
        "variety": proper,
        "variety_l": proper,
        "is_principal_m": [[n] for n in module.elements()],
        "sqrt": [[a] for a in L.elements()],
    }


def main() -> int:
    os.chdir(workloads.ROOT)
    sys.path.insert(0, str(workloads.ROOT / "src"))
    import latmod

    golden = {"inputs": {}, "verify": {}, "classify": {}, "mutations": [], "queries": {}}
    for workload, instances in INSTANCES.items():
        out = workloads.inputs_dir(workload)
        out.mkdir(parents=True, exist_ok=True)
        for family, n in instances:
            name = instance_name(family, n)
            text = instance_text(family, n)
            golden["inputs"][name] = digest(text)
            path = out / f"{name}.mlat"
            path.write_text(text, encoding="utf-8")
            if workload.startswith("verify-"):
                record_verify(golden, name, str(path))
            elif workload == workloads.LOAD:
                code, out_text, err = run_cli(["classify", str(path), "--all", "--format", "json"])
                if code != 0:
                    raise SystemExit(f"classify {name} exited {code}: {err}")
                golden["classify"][name] = {"exit": code, "sha256": digest(out_text)}
                record_mutations(golden, text, latmod.parse_instance(text)[1], workload)
            else:
                module = latmod.parse_instance(text)[1]
                golden["queries"] = {
                    kind: [[args, query_value(run_query(module, kind, args))] for args in pool]
                    for kind, pool in query_pools(module).items()}
        print(f"recorded {workload}", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
