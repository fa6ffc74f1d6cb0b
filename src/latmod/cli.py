"""Command-line front end: generate, validate, classify, verify.

Exit status contract: 0 = success / all asserted checks pass, 1 = validation
or check failure, 2 = usage or parse error.  Machine-readable reports
(``--format json``) are byte-identical for identical inputs and seed; wall
-clock timings appear only in the text format.  Each process builds one
parser, with every command, on first use.

Importing this module loads the lattice, module, classify and instances
layers, which ``gen``, ``validate`` and ``classify`` use.  The theorem
registry in ``harness`` is imported by ``cmd_verify`` alone, when it runs,
so the other commands never compile or hold it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from itertools import chain, compress, repeat

from . import __version__
from .classify import FLAG_NAMES, classify_all
from .instances import (
    DEFAULT_SQUARE_CAP,
    FAMILIES,
    InstanceSpec,
    ParseError,
    make_instance,
    parse_instance,
    serialize_instance,
)
from .lattice import ValidationError

REPORT_SCHEMA = "latmod-report 1"


def _square_cap() -> int:
    """``MLAT_CAP``, the bound on the zn-square modulus; read only by a
    family that takes the bound."""
    value = os.environ.get("MLAT_CAP")
    if value is None:
        return DEFAULT_SQUARE_CAP
    try:
        return int(value)
    except ValueError:
        raise _usage_error(f"MLAT_CAP must be an integer, got {value!r}") from None


def _module_families() -> list[str]:
    return [name for name, (_, top) in FAMILIES.items() if top is not None]


class _Failure(Exception):
    """A failure that a command detects, raised where it is found as
    ``_Failure(exit status, stderr text)``; ``main`` writes the text in one
    write and returns the status."""


def _usage_error(message: str) -> _Failure:
    return _Failure(2, f"error: {message}\n")


def _not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    return f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"


def _read_mlat(path: str) -> str:
    """The text of an MLAT file without a leading byte-order mark.  The file
    is decoded whole, so a decoding error's offset counts from its first byte."""
    with open(path, encoding="utf-8") as fh:
        return fh.read().removeprefix("\ufeff")


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _usage_error(str(exc)) from None
    else:
        sys.stdout.write(text)


def _json_dumps(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    Python runs ``indent`` in its pure-Python encoder, so ``_indented`` lays
    the value out around the C encoder.  A scalar or an empty container is one
    C call.  A dict with a key that is not a ``str`` is ``json.dumps`` itself,
    re-indented, so the stdlib coerces such keys and raises its own errors; no
    report has one.  A flat container (no member is a non-empty container) is
    one C call whose item separator starts the member line, and so is a list
    of non-empty flat dicts with ``str`` keys, whose boundaries are then fixed
    by ``str.replace``.  Re-indenting by text is exact because
    ``ensure_ascii`` output holds no raw newline inside a string.  Anything
    else is written member by member, a dict's in sorted key order."""
    return _indented(payload, 0) + "\n"


# one C encoder per depth; without circular-reference markers they keep no
# state between calls
_C_ENCODERS: dict[int, object] = {}


def _c_encode(value, depth: int) -> str:
    """``value`` through the C encoder, items separated by a new line at
    ``depth``; nested non-empty containers come out unindented."""
    encoder = _C_ENCODERS.get(depth)
    if encoder is None:
        encoder = _C_ENCODERS[depth] = json.encoder.c_make_encoder(
            None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
            None, ": ", ",\n" + "  " * depth, True, False, True)
    return "".join(encoder(value, 0))


def _flat(members: list) -> bool:
    """No member is a non-empty container (one pass in C, no Python loop)."""
    return not any(compress(members, map(isinstance, members, repeat((dict, list, tuple)))))


def _indented(value, depth: int) -> str:
    """``value`` as ``_json_dumps`` lays it out at ``depth``."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _c_encode(value, depth)
    outer, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
    is_dict = isinstance(value, dict)
    if is_dict and not all(map(isinstance, value, repeat(str))):
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", outer)
    if _flat(list(value.values()) if is_dict else value):
        text = _c_encode(value, depth + 1)
        return text[0] + inner + text[1:-1] + outer + text[-1]
    # keys checked as a set, since list members share them: C would name a bad
    # key's type in full (numpy.int64, not int64)
    if (not is_dict and all(map(isinstance, value, repeat(dict))) and all(value)
            and all(map(isinstance, set(chain.from_iterable(value)), repeat(str)))
            and _flat(list(chain.from_iterable(map(dict.values, value))))):
        member = inner + "  "
        body = _c_encode(value, depth + 2)[2:-2].replace(
            "}," + member + "{", inner + "}," + inner + "{" + member)
        return "[" + inner + "{" + member + body + inner + "}" + outer + "]"
    if is_dict:
        return "{" + ",".join([inner + json.encoder.encode_basestring_ascii(key) + ": "
                               + _indented(member, depth + 1)
                               for key, member in sorted(value.items())]) + outer + "}"
    return "[" + ",".join([inner + _indented(member, depth + 1) for member in value]) + outer + "]"


def cmd_gen(args) -> int:
    spec = InstanceSpec(family=args.family, n=args.n)
    try:
        _, lattice, module = spec.build(cap=_square_cap)
    except ValueError as exc:
        raise _usage_error(str(exc)) from None
    _emit(serialize_instance(lattice, module), args.output)
    return 0


def _parse_file(path: str, prefix: str):
    """``parse_instance`` on the MLAT file at ``path``.  A file that cannot be
    read is a usage error; one that does not decode or parse fails with status
    2 and its message after ``prefix``.  A ``ValidationError`` is left to the
    caller."""
    try:
        return parse_instance(_read_mlat(path))
    except OSError as exc:
        raise _usage_error(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise _Failure(2, f"{prefix}{_not_utf8(path, exc)}\n") from None
    except ParseError as exc:
        raise _Failure(2, f"{prefix}{path}: {exc}\n") from None


def cmd_validate(args) -> int:
    try:
        lattice, module = _parse_file(args.path, "")
    except ValidationError as exc:
        raise _Failure(1, "".join([f"{args.path}: invalid instance\n"] + [
            f"  [{v.axiom}] witness {v.witness}: {v.message}\n"
            for v in exc.violations])) from None
    blocks = "lattice" + ("+module" if module is not None else "")
    print(f"{args.path}: valid ({blocks}, lattice elements={lattice.element_count}"
          + (f", module elements={module.element_count}" if module is not None else "")
          + ")")
    return 0


def _load_instance(path: str):
    """The module instance in an MLAT file, named by the file's last path
    component without ``.mlat``; every failure names the file."""
    try:
        _, module = _parse_file(path, "error: ")
    except ValidationError as exc:
        raise _Failure(1, f"{path}: invalid instance: {exc}\n") from None
    if module is None:
        raise _usage_error(f"{path} has no module block; classification and "
                           "verification need a module instance")
    name = re.sub(r"\.mlat$", "", path.replace("\\", "/").rsplit("/", 1)[-1])
    return make_instance(name, module)


def cmd_classify(args) -> int:
    instance = _load_instance(args.path)
    module = instance.module
    started = time.perf_counter()
    classifications = classify_all(module)

    if args.all:
        selected = sorted(classifications)
    else:
        if args.id is not None:
            if not 0 <= args.id < module.element_count:
                raise _usage_error(f"unknown element id {args.id}")
            element = args.id
        else:
            matches = [i for i in module.elements() if module.label(i) == args.label]
            if not matches:
                raise _usage_error(f"unknown element label {args.label!r}")
            element = matches[0]
        if element == module.top:
            raise _usage_error(
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
    from .harness import _select, default_instances, list_checks, run_suite

    if args.list:
        for entry in list_checks():
            hyps = ", ".join(entry["hypotheses"]) or "none"
            dashed = " [dashed]" if entry["dashed"] else ""
            print(f"{entry['id']}{dashed}\n    {entry['description']}\n    hypotheses: {hyps}")
        return 0

    if args.max_n is not None and args.family not in _module_families():
        raise _usage_error(f"--max-n applies only to --family {' or '.join(_module_families())}")
    instances = []
    try:                                # a generator's bound is a usage error
        if args.family == "default":
            instances.extend(default_instances(square_cap=_square_cap()))
        elif args.family is not None:
            top = args.max_n if args.max_n is not None else FAMILIES[args.family][1]
            for n in range(2, top + 1):
                name, _, module = InstanceSpec(family=args.family, n=n).build(cap=_square_cap)
                instances.append(make_instance(name, module))
            if not instances:           # only --max-n below 2 leaves a family empty
                raise _usage_error(f"--family {args.family} --max-n {args.max_n} gives no "
                                   "instance: n runs from 2")
    except ValueError as exc:
        raise _usage_error(str(exc)) from None
    origin = {instance.name: f"--family {args.family}" for instance in instances}
    for path in args.paths:
        instance = _load_instance(path)
        if instance.name in origin:
            raise _usage_error(f"{origin[instance.name]} and {path} both give "
                               f"an instance named {instance.name!r}")
        origin[instance.name] = path
        instances.append(instance)
    if not instances:
        raise _usage_error("nothing to verify: pass instance files or --family")

    if args.checks == "all":
        selection = "all"
    else:
        selection = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not selection:
            raise _usage_error(f"--checks {args.checks!r} names no check")
        try:
            _select(selection)      # the rule run_suite applies, checked before any check runs
        except (KeyError, ValueError) as exc:
            raise _usage_error(exc.args[0]) from None

    report = run_suite(instances, checks=selection, seed=args.seed)
    payload = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        **report.as_dict(),
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


def _add_gen(sub) -> None:
    p = sub.add_parser("gen", help="generate a canonical instance file")
    p.add_argument("family", choices=tuple(FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(fn=cmd_gen)


def _add_validate(sub) -> None:
    p = sub.add_parser("validate", help="parse and validate an MLAT file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)


def _add_classify(sub) -> None:
    p = sub.add_parser("classify", help="classify elements of an instance")
    p.add_argument("path")
    selector = p.add_mutually_exclusive_group(required=True)
    selector.add_argument("--id", type=int, default=None, help="element id")
    selector.add_argument("--label", default=None, help="element label")
    selector.add_argument("--all", action="store_true", help="every proper element")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_classify)


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run theorem checks over instances")
    p.add_argument("paths", nargs="*", help="MLAT instance files (with module blocks)")
    p.add_argument("--family", choices=(*_module_families(), "default"), default=None,
                   help="also verify a generated family")
    p.add_argument("--max-n", type=int, default=None, help="largest modulus for --family")
    p.add_argument("--checks", default="all", help="'all' or comma-separated check ids")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled quantifications")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--list", action="store_true", help="dump the check registry and exit")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_verify)


# command name -> the function that adds its subparser, in help order
_COMMANDS = {"gen": _add_gen, "validate": _add_validate,
             "classify": _add_classify, "verify": _add_verify}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand, built on first use and kept for
    the process: nothing it holds varies between calls (help wraps to
    ``COLUMNS`` when it is formatted, ``MLAT_CAP`` is read per call), and
    parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="latmod",
        description="Finite multiplicative lattices and lattice modules: "
                    "generate instances, validate files, classify elements, "
                    "and verify the structural theorem suite.")
    parser.add_argument("--version", action="version", version=f"latmod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in _COMMANDS.values():
        add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level has only flag options, so a leading "--" ends none, and
    # before a command it is dropped: Python 3.11's argparse would take it for
    # the command name.
    if len(argv) > 1 and argv[0] == "--" and argv[1] in _COMMANDS:
        del argv[0]
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Failure as exc:
        code, text = exc.args
        sys.stderr.write(text)
        return code


if __name__ == "__main__":
    sys.exit(main())
