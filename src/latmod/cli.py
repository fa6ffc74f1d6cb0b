"""Command-line front end: generate, validate, classify, verify.

Exit status contract: 0 = success / all asserted checks pass, 1 = validation
or check failure, 2 = usage or parse error.  Machine-readable reports
(``--format json``) are byte-identical for identical inputs and seed; wall
-clock timings appear only in the text format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .classify import FLAG_NAMES, classify_all
from .harness import (
    AUTO_HYPOTHESES,
    default_instances,
    instance_hypotheses,
    list_checks,
    make_instance,
    registry,
    run_suite,
)
from .instances import (
    DEFAULT_SQUARE_CAP,
    InstanceSpec,
    ParseError,
    parse_instance,
    serialize_instance,
)
from .lattice import ValidationError

REPORT_SCHEMA = "latmod-report 1"


def _square_cap() -> int:
    value = os.environ.get("MLAT_CAP")
    if value is None:
        return DEFAULT_SQUARE_CAP
    try:
        return int(value)
    except ValueError:
        raise SystemExit(_usage_error(f"MLAT_CAP must be an integer, got {value!r}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    return f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_gen(args) -> int:
    spec = InstanceSpec(family=args.family, n=args.n)
    try:
        _, lattice, module = spec.build(cap=_square_cap())
    except ValueError as exc:
        return _usage_error(str(exc))
    _emit(serialize_instance(lattice, module), args.output)
    return 0


def cmd_validate(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return _usage_error(str(exc))
    except UnicodeDecodeError as exc:
        print(_not_utf8(args.path, exc), file=sys.stderr)
        return 2
    try:
        parse_result = parse_instance(text)
    except ParseError as exc:
        print(f"{args.path}: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"{args.path}: invalid instance", file=sys.stderr)
        for violation in exc.violations:
            print(f"  [{violation.axiom}] witness {violation.witness}: {violation.message}",
                  file=sys.stderr)
        return 1
    lattice, module = parse_result
    blocks = "lattice" + ("+module" if module is not None else "")
    print(f"{args.path}: valid ({blocks}, lattice elements={lattice.element_count}"
          + (f", module elements={module.element_count}" if module is not None else "")
          + ")")
    return 0


class _InvalidFile(ValueError):
    """An instance file that parses but fails validation (exit status 1)."""


def _load_instance(path: str):
    """The module instance in an MLAT file.  Parse errors (``ParseError``) and
    validation errors (``_InvalidFile``) are raised with messages that name
    the file."""
    try:
        name, _, module = InstanceSpec(family="file", path=path).build()
    except UnicodeDecodeError as exc:
        raise ParseError(_not_utf8(path, exc)) from None
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except ValidationError as exc:
        raise _InvalidFile(f"{path}: invalid instance: {exc}") from None
    if module is None:
        raise ParseError(f"{path} has no module block; classification and "
                         "verification need a module instance")
    return make_instance(name, module)


def cmd_classify(args) -> int:
    try:
        instance = _load_instance(args.path)
    except (OSError, ParseError) as exc:
        return _usage_error(str(exc))
    except _InvalidFile as exc:
        print(exc, file=sys.stderr)
        return 1
    module = instance.module
    started = time.perf_counter()
    classifications = classify_all(module)

    if args.all:
        selected = sorted(classifications)
    else:
        if args.id is not None:
            if not 0 <= args.id < module.element_count:
                return _usage_error(f"unknown element id {args.id}")
            element = args.id
        else:
            matches = [i for i in module.elements() if module.label(i) == args.label]
            if not matches:
                return _usage_error(f"unknown element label {args.label!r}")
            element = matches[0]
        if element == module.top:
            return _usage_error(
                f"element {module.label(element)} is the top element; "
                "classification applies to proper elements only")
        selected = [element]

    payload = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "instance": {
            "name": instance.name,
            "fingerprint": instance.fingerprint,
            "lattice_elements": module.lattice.element_count,
            "module_elements": module.element_count,
        },
        "elements": [classifications[i].as_dict() for i in selected],
    }
    if args.format == "json":
        _emit(_json_dumps(payload), args.output)
        return 0

    lines = [f"instance {instance.name} (fingerprint {instance.fingerprint})"]
    for i in selected:
        c = classifications[i]
        flags = " ".join(f"{name}={'T' if c.flag(name) else 'F'}" for name in FLAG_NAMES)
        lines.append(f"{c.label}: {flags}")
        lines.append(f"    (N:I_M)={module.lattice.label(c.residual_top)}"
                     f" sqrt={module.lattice.label(c.sqrt_residual_top)}"
                     f" rad={module.label(c.rad)}")
        for name, witness in sorted(c.witnesses.items()):
            lines.append(f"    witness {name}: {_witness_text(module, name, witness)}")
    lines.append(f"elapsed {time.perf_counter() - started:.3f}s")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _witness_text(module, flag: str, witness) -> str:
    L = module.lattice
    if flag in ("prime", "primary", "pseudo_primary"):
        a, x = witness
        return f"a={L.label(a)} X={module.label(x)}"
    if flag == "semiprime":
        a, b = witness
        return f"a={L.label(a)} b={L.label(b)}"
    if flag in ("classical_prime", "two_absorbing", "pseudo_classical_primary"):
        a, b, k = witness
        return f"a={L.label(a)} b={L.label(b)} K={module.label(k)}"
    if flag == "radical_element":
        r, s = witness
        return f"(N:I_M)={L.label(r)} != sqrt={L.label(s)}"
    return repr(witness)


def cmd_verify(args) -> int:
    if args.list:
        for entry in list_checks():
            hyps = ", ".join(entry["hypotheses"]) or "none"
            dashed = " [dashed]" if entry["dashed"] else ""
            print(f"{entry['id']}{dashed}\n    {entry['description']}\n    hypotheses: {hyps}")
        return 0

    cap = _square_cap()
    instances = []
    try:
        if args.family == "default":
            instances.extend(default_instances(square_cap=cap))
        elif args.family in ("zn-self", "zn-square"):
            top = args.max_n if args.max_n is not None else (30 if args.family == "zn-self" else 8)
            for n in range(2, top + 1):
                if args.family == "zn-square" and n > cap:
                    return _usage_error(f"zn-square modulus {n} exceeds the cap {cap}")
                name, _, module = InstanceSpec(family=args.family, n=n).build(cap=cap)
                instances.append(make_instance(name, module))
        for path in args.paths:
            instances.append(_load_instance(path))
    except (OSError, ParseError) as exc:
        return _usage_error(str(exc))
    except _InvalidFile as exc:
        print(exc, file=sys.stderr)
        return 1
    if not instances:
        return _usage_error("nothing to verify: pass instance files or --family")

    if args.checks == "all":
        selection = "all"
    else:
        selection = [c.strip() for c in args.checks.split(",") if c.strip()]
        known = registry()
        for cid in selection:
            if cid not in known:
                return _usage_error(f"unknown check id {cid!r}")

    report = run_suite(instances, checks=selection, seed=args.seed)
    payload = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        **report.as_dict(include_timings=False),
    }
    if args.format == "json":
        _emit(_json_dumps(payload), args.output)
    else:
        lines = []
        for result in report.results:
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[result.status]
            extra = f" ({result.skip_reason})" if result.skip_reason else ""
            lines.append(f"{mark} {result.instance} {result.check_id}"
                         f" evaluated={result.evaluated}{extra}"
                         f" [{result.seconds:.3f}s]")
            for violation in result.violations[:5]:
                lines.append(f"     witness: {violation}")
        counts = report.counts()
        lines.append(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
                     f"{counts['skipped']} skipped over {len(report.instances)} instance(s)")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if report.ok() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmod",
        description="Finite multiplicative lattices and lattice modules: "
                    "generate instances, validate files, classify elements, "
                    "and verify the structural theorem suite.")
    parser.add_argument("--version", action="version", version=f"latmod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a canonical instance file")
    p.add_argument("family", choices=("zn-ideals", "zn-self", "zn-square"))
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("validate", help="parse and validate an MLAT file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("classify", help="classify elements of an instance")
    p.add_argument("path")
    selector = p.add_mutually_exclusive_group(required=True)
    selector.add_argument("--id", type=int, default=None, help="element id")
    selector.add_argument("--label", default=None, help="element label")
    selector.add_argument("--all", action="store_true", help="every proper element")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run theorem checks over instances")
    p.add_argument("paths", nargs="*", help="MLAT instance files (with module blocks)")
    p.add_argument("--family", choices=("zn-self", "zn-square", "default"), default=None,
                   help="also verify a generated family")
    p.add_argument("--max-n", type=int, default=None, help="largest modulus for --family")
    p.add_argument("--checks", default="all", help="'all' or comma-separated check ids")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled quantifications")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list", action="store_true", help="dump the check registry and exit")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
