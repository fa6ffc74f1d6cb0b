"""Span recorder that times latmod's layers from outside the library.

The recorder replaces each public function of a layer with a wrapper in
every ``latmod`` module namespace that binds it (``classify.py`` imports
``residual_mm_table`` by name, ``run_suite`` looks ``run_check`` up as a
global, the package re-exports most names).  A wrapper opens a span only at
a layer boundary: when the innermost open span belongs to another layer.
Calls that stay in one layer run through without a span, and so do a
module's point queries called from that module's own tables, validation or
``classify_all``: their time is self time of the outer span.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# layer -> (defining module, public functions).  A module or name missing
# from the library is skipped, so the benchmark keeps running when the library drops
# or renames a function; its time then shows as self time of its caller.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "instances.parse": ("latmod.instances", ("parse_instance",)),
    "instances.serialize": ("latmod.instances", ("serialize_instance",)),
    "lattice.validate": ("latmod.lattice", ("validate_lattice", "lattice_violations")),
    "lattice.tables": ("latmod.lattice", ("residual_table_ll", "sqrt_table", "lattice_flags")),
    "lattice.query": ("latmod.lattice", (
        "residual_ll", "stable_power", "sqrt", "l_element_flags", "is_p_primary_l",
        "is_pg_lattice", "is_principal_l", "is_meet_principal_l", "is_join_principal_l")),
    "module.validate": ("latmod.module", ("validate_module", "module_violations")),
    "module.tables": ("latmod.module", (
        "residual_ml_table", "residual_mm_table", "stable_act_top_table",
        "prime_elements", "maximal_elements")),
    "module.query": ("latmod.module", (
        "residual_ml", "residual_mm", "rad", "saturation", "variety", "variety_l",
        "element_context", "is_faithful", "is_multiplication_module",
        "is_meet_principal_m", "is_join_principal_m", "is_principal_m", "is_pg_module")),
    "classify.classify_all": ("latmod.classify", ("classify_all",)),
    "classify.query": ("latmod.classify", (
        "classify", "is_prime_m", "is_primary_m", "is_semiprime", "is_radical_element",
        "is_classical_prime", "is_two_absorbing", "is_pseudo_primary",
        "is_pseudo_classical_primary", "p_attachments", "is_minimal_prime_over")),
    "harness.make_instance": ("latmod.harness", ("make_instance",)),
    "harness.hypotheses": ("latmod.harness", ("instance_hypotheses",)),
    "harness.check": ("latmod.harness", ("run_check",)),
    "harness.suite": ("latmod.harness", (
        "run_suite", "check_implication_figure", "replay_violation", "registry",
        "list_checks", "default_instances")),
    "cli": ("latmod.cli", ("main",)),
}


class Recorder:
    """In-memory spans, and the per-layer sums the benchmark reports from them.

    A span is ``(layer, name, start, end, self_seconds, depth, op)``; ``op``
    is the index of the benchmark operation that caused it, so spans of one
    operation share it.  ``name`` is the function, or the check id for
    ``harness.check``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = [["", 0.0, ""]]     # [layer, child seconds, module]
        self.op = -1
        self.passthrough = 0
        self.evaluated = 0
        self.asserted = 0
        self.checks = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        is_check = layer == "harness.check"
        module = layer.split(".")[0]
        absorbed = layer.endswith(".query")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top[0] == layer or (absorbed and top[2] == module):
                self.passthrough += 1
                return fn(*args, **kwargs)
            frame = [layer, 0.0, module]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                stack[-1][1] += end - start
                label = name
                if is_check:
                    label = args[1].id if len(args) > 1 else kwargs["check"].id
                    if result is not None:
                        self.checks += 1
                        self.evaluated += result.evaluated
                        self.asserted += result.status != "skipped"
                spans.append((layer, label, start, end, end - start - frame[1],
                              len(stack) - 1, self.op))

        return traced

    def install(self) -> None:
        """Wrap every layer function in every loaded ``latmod`` namespace."""
        wrappers = {}
        for layer, (module_name, names) in LAYERS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    wrappers[id(fn)] = self._wrap(fn, layer, name)
        for module_name, module in list(sys.modules.items()):
            if module_name != "latmod" and not module_name.startswith("latmod."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self seconds per layer, and per check id for ``harness.check``."""
        out: dict[str, float] = {}
        for layer, label, _, _, self_s, _, _ in self.spans:
            key = f"{layer}.{label}" if layer == "harness.check" else layer
            out[key] = out.get(key, 0.0) + self_s
        return out

    def calls(self) -> dict[str, int]:
        """Spans (boundary crossings) per layer."""
        out: dict[str, int] = {}
        for span in self.spans:
            out[span[0]] = out.get(span[0], 0) + 1
        return out

    def top_level_seconds(self) -> float:
        """Seconds covered by spans opened outside any other span."""
        return sum(end - start for _, _, start, end, _, depth, _ in self.spans if depth == 0)

    def write(self, path) -> None:
        """One tab-separated line per span; times in integer nanoseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("layer\tname\tstart_ns\tend_ns\tself_ns\tdepth\top\n")
            for layer, name, start, end, self_s, depth, op in self.spans:
                fh.write(f"{layer}\t{name}\t{int(start * 1e9)}\t{int(end * 1e9)}\t"
                         f"{int(self_s * 1e9)}\t{depth}\t{op}\n")


def span_cost(samples: int = 20000, rounds: int = 7) -> tuple[float, float]:
    """Median seconds that one span, and one pass-through, add to a call.

    Measured on a private recorder wrapping a no-op, against the bare no-op.
    """
    def noop(*args):
        return None

    rec = Recorder()
    spanning = rec._wrap(noop, "calibrate.inner", "noop")
    passing = rec._wrap(noop, "calibrate.outer", "noop")

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(samples):
            fn(1, 2)
        return (time.perf_counter() - start) / samples

    bare, span, through = [], [], []
    for _ in range(rounds):
        bare.append(per_call(noop))
        span.append(per_call(spanning))
        rec.spans.clear()
        rec._stack.append(["calibrate.outer", 0.0, "calibrate"])
        through.append(per_call(passing))
        rec._stack.pop()
    base = statistics.median(bare)
    return (max(statistics.median(span) - base, 0.0),
            max(statistics.median(through) - base, 0.0))
