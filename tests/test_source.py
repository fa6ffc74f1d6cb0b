"""Static checks on the library source."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import latmod
from latmod.harness import default_instances
from latmod.instances import DEFAULT_FAMILY, FAMILIES

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in Path(latmod.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read, nor listed in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


# perfbench/ is left out: it changes only together with the benchmark it defines
IMPORTERS = SOURCES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


@pytest.mark.parametrize("path", IMPORTERS,
                         ids=lambda p: p.name if p in SOURCES else p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


# Deleted from the library after the benchmark listed it; the benchmark's
# tracer skips a missing name, so its calls would be untraced.
GONE_FROM_LIBRARY = {"latmod.module.stable_act_top_table", "latmod.module.element_context",
                     "latmod.harness.check_implication_figure"}


def test_benchmark_layers_name_library_functions():
    # perfbench/tracing.py skips a name that latmod lacks, so a rename would
    # silently move that layer's time into its caller's self time
    tracing = ROOT / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    (layers,) = [node.value for node in tree.body
                 if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS"]
    missing = set()
    for module_name, names in ast.literal_eval(layers).values():
        module = importlib.import_module(module_name)
        missing |= {f"{module_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))}
    assert missing == GONE_FROM_LIBRARY


def test_no_global_statements():
    # library state is passed explicitly (a classifier fault rides on the
    # check context), never held in a module global that a function rebinds
    found = [f"{path.name}:{node.lineno}" for path in SOURCES + [Path(latmod.__file__)]
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []


def _is_process_cache(decorator: ast.expr) -> bool:
    """``functools.cache`` or ``functools.lru_cache``, called or not."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("cache", "lru_cache")


def test_process_caches_take_no_structure():
    # a memo on a structure lives on the structure (lattice._memo); a cache
    # that lives for the process and took a lattice or a module would keep it
    # alive (test_structures_freed_after_use)
    cached = {}
    for path in Path(latmod.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(map(_is_process_cache,
                                                             node.decorator_list)):
                cached[f"{path.stem}.{node.name}"] = [
                    arg.annotation and ast.unparse(arg.annotation) for arg in node.args.args]
    assert cached == {"cli.build_parser": [], "module._subset_draws": ["int", "int"]}


def owners(tree: ast.Module, nodes) -> list[str]:
    """The name of the innermost function around each of ``nodes``, or ``<module>``."""
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    out = []
    for node in nodes:
        around = [fn for fn in functions if fn.lineno <= node.lineno <= fn.end_lineno]
        out.append(max(around, key=lambda fn: fn.lineno).name if around else "<module>")
    return out


def kernel_reads(tree: ast.Module) -> list[str]:
    """Each read of a ``.kernel`` attribute, as ``function:call`` or
    ``function:read``; the function is the innermost one around it."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "kernel"]
    return [f"{owner}:{'call' if id(node) in called else 'read'}"
            for node, owner in zip(reads, owners(tree, reads))]


def test_kernels_run_only_in_run_check():
    # run_check is the one place a check's kernel runs, so every caller gets
    # the hypothesis gate and a context built for the instance it checks
    reads = {path.name: kernel_reads(ast.parse(path.read_text(encoding="utf-8")))
             for path in Path(latmod.__file__).parent.glob("*.py")}
    assert {name: found for name, found in reads.items() if found} == {
        "harness.py": ["run_check:call"]}


def test_matmuls_only_in_bool_matmul():
    # boolean products go through lattice._bool_matmul, which picks the exact
    # float32 BLAS path for large ones; the one other `@` is an integer count
    sites = {}
    for path in Path(latmod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        products = [node for node in ast.walk(tree) if isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)]
        if products:
            sites[path.name] = owners(tree, products)
    assert sites == {"lattice.py": ["_bool_matmul"], "harness.py": ["_k_prime_residual_bound"]}


def harness_imports(tree: ast.Module) -> list[ast.stmt]:
    """The import statements of ``tree`` that load ``latmod.harness``, in any spelling."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            continue
        if any("harness" in target.split(".") for target in targets):
            found.append(node)
    return found


def test_harness_imported_only_in_cmd_verify():
    # gen, validate and classify load the package without the theorem
    # registry; a module-level import of it anywhere on that path would
    # compile and keep it in every process (test_cli.test_only_verify_loads_the_harness)
    sites = {}
    for path in Path(latmod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = harness_imports(tree)
        if found:
            sites[path.name] = owners(tree, found)
    assert sites == {"cli.py": ["cmd_verify"]}


def test_json_dumps_called_only_in_indented():
    # cli._indented lays every report out around the C encoder; the stdlib's
    # pure-Python indent path is taken only for a dict with a non-str key,
    # which no report holds (test_cli.test_reports_never_reach_json_dumps)
    sites = {}
    for path in Path(latmod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "dumps"
                 or isinstance(node, ast.Name) and node.id == "dumps"
                 or isinstance(node, ast.alias) and node.name == "dumps"]
        if reads:
            sites[path.name] = owners(tree, reads)
    assert sites == {"cli.py": ["_indented"]}


def test_class_conditions_evaluated_in_one_place_each():
    # the element class conditions run only in the lattice's flags, the
    # module's prime-witness memo and the classifier's block function, so no
    # second route to a verdict or a witness comes back; _prime_violations
    # is _pair_violations with the bound N
    conditions = {"_prime_violations", "_pair_violations", "_triple_violations"}
    sites = {}
    for path in Path(latmod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) in conditions]
        if calls:
            sites[path.name] = sorted(set(owners(tree, calls)))
    assert sites == {"lattice.py": ["_prime_violations", "lattice_flags"],
                     "module.py": ["_prime_witnesses"], "classify.py": ["_witnesses"]}


def test_first_marked_read_in_two_places():
    # lattice._first_witnesses is the one blocked first-witness pass; only
    # classify_all's block function, whose conditions share one gather per
    # block, reads its masks directly, so no third block loop comes back
    sites = {}
    for path in Path(latmod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_first_marked"]
        if calls:
            sites[path.name] = sorted(set(owners(tree, calls)))
    assert sites == {"lattice.py": ["_first_witnesses"], "classify.py": ["_witnesses"]}


def test_violations_built_in_named_places():
    # every table axiom of both validators is one lattice._mismatches call, so
    # a Violation is built directly only by the shared raw-table checks, the
    # order checks and the labels, and the family spot checks of a module
    sites = {}
    for name in ("lattice.py", "module.py"):
        tree = ast.parse((Path(latmod.__file__).parent / name).read_text(encoding="utf-8"))
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "Violation"]
        sites[name] = sorted(set(owners(tree, calls)))
    assert sites == {
        "lattice.py": ["_checked_labels", "_checked_tables", "_derive_join_meet",
                       "_lattice_order", "_mismatches", "_order_violations"],
        "module.py": ["_subset_violations"]}


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of the module, its classes and functions."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, owners) and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def family_literals(tree: ast.Module) -> list[str]:
    """String constants outside docstrings that contain a family name."""
    docstrings = _docstrings(tree)
    return [f"{node.value!r} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings and any(name in node.value for name in FAMILIES)]


@pytest.mark.parametrize("path", sorted(p for p in Path(latmod.__file__).parent.glob("*.py")
                                        if p.name != "instances.py"), ids=lambda p: p.name)
def test_families_named_only_in_instances(path):
    # instances.FAMILIES is the one place that names, builds and bounds a family
    assert family_literals(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_benchmark_default_family_is_the_library_one(monkeypatch):
    # at module level perfbench/workloads.py imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert workloads.DEFAULT_FAMILY == DEFAULT_FAMILY
    assert [inst.name for inst in default_instances()] == [f"{family}-{n}"
                                                           for family, n in DEFAULT_FAMILY]
