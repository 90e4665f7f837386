"""Each public name has one import path, ``riskrel.<module>.<name>``: the
package namespace re-exports nothing, so importing one module loads only
what that module imports. Every name the benchmark under ``bench/`` imports
from riskrel, or traces by name, exists, and each call it makes to one
binds to its signature. No error kind is dead: each is raised somewhere, and
no public function or class is dead: each is named in the package, or is
on an allow-list that says who else uses it. A threshold's two-decimal
label has one owner."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import riskrel
from riskrel import errors, scoring

ROOT = Path(__file__).resolve().parents[1]


def test_package_namespace_holds_only_version_and_submodules():
    assert riskrel.__version__
    assert not [name for name, value in vars(riskrel).items()
                if inspect.isclass(value) or inspect.isroutine(value)]
    public = {name: value for name, value in vars(riskrel).items()
              if not name.startswith("__")}
    assert all(inspect.ismodule(value) and value.__name__ == f"riskrel.{name}"
               for name, value in public.items()), sorted(public)


def test_importing_synthetic_loads_only_what_it_imports():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, riskrel.synthetic; "
         "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'riskrel')))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["riskrel", "riskrel.corpus", "riskrel.errors",
                                   "riskrel.synthetic"]


def _bench_trees():
    """The parsed ``bench/*.py`` and ``bench/tests/*.py``, by file name."""
    for path in sorted([*ROOT.glob("bench/*.py"), *ROOT.glob("bench/tests/*.py")]):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _bench_imports():
    """(module, name) for each name ``bench/*.py`` and ``bench/tests/*.py``
    import from riskrel; name is None for a plain ``import riskrel.<module>``."""
    for _, tree in _bench_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "riskrel":
                yield from ((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "riskrel")


def test_every_name_the_benchmark_imports_from_riskrel_exists():
    imports = sorted(set(_bench_imports()), key=str)
    assert ("riskrel.scoring", "embed_corpus") in imports
    missing = []
    for module, name in imports:
        try:
            holder = importlib.import_module(module)
            if name is not None and not hasattr(holder, name):
                importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(f"{module}.{name}" if name else module)
    assert not missing


def test_every_function_the_benchmark_hooks_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.HOOKS
    for key in spans.HOOKS:
        layer, name = key.split(".")
        assert inspect.isfunction(getattr(importlib.import_module(f"riskrel.{layer}"),
                                          name, None)), key


# The trace keys of bench/run.py's LAYER_SOURCES that name no function of
# their layer: training_probe returns the training pair itself, and the
# encoder pair is stale since the one-row encode was folded into forward.
_UNBOUND_LAYER_SOURCES = {"training.objective_s", "training.gradients_s",
                          "encoder.encode_s", "encoder.encode_calls"}


def _layer_source_keys():
    """The trace keys of ``LAYER_SOURCES`` in bench/run.py, read without
    importing it (it pins BLAS threads on import)."""
    tree = dict(_bench_trees())["bench/run.py"]
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["LAYER_SOURCES"])
    return [ast.literal_eval(value)[1] for key, value in zip(table.keys, table.values)
            if key is not None]


def test_every_layer_source_names_a_function_of_its_layer():
    """Each ``<layer>.<name>_s`` or ``<layer>.<name>_calls`` key that a
    per-layer metric reads is a function of ``riskrel.<layer>``, which the
    span recorder wraps, so a renamed function cannot leave its metric at 0."""
    keys = [key for key in _layer_source_keys() if key]
    assert "scoring.embed_corpus_s" in keys
    unbound = set()
    for key in keys:
        match = re.fullmatch(r"(\w+)\.(\w+)_(?:s|calls)", key)
        if match and match[2] != "self" and not inspect.isfunction(
                getattr(importlib.import_module(f"riskrel.{match[1]}"), match[2], None)):
            unbound.add(key)
    assert unbound == _UNBOUND_LAYER_SOURCES


def _bench_calls():
    """(where, riskrel callable, call node) for each call in ``bench/`` of a
    name it imports from riskrel, or of a function of a module so imported."""
    for name, tree in _bench_trees():
        imported = {alias.asname or alias.name:
                    getattr(importlib.import_module(node.module), alias.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and node.module and node.module.split(".")[0] == "riskrel"
                    for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                callee = imported[func.id]
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                    and inspect.ismodule(imported.get(func.value.id)):
                callee = getattr(imported[func.value.id], func.attr)
            else:
                continue
            yield f"{name}:{node.lineno}", callee, node


def test_every_call_the_benchmark_makes_binds_to_its_signature():
    """Each call keeps its shape: as many positional arguments and the same
    keywords as ``bench/`` passes bind to the riskrel signature."""
    called = set()
    for where, callee, call in _bench_calls():
        assert not any(isinstance(arg, ast.Starred) for arg in call.args), where
        assert all(keyword.arg for keyword in call.keywords), where
        try:
            inspect.signature(callee).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None
        called.add(callee.__qualname__)
    assert {"embed_corpus", "find_mrps", "load_model", "batch_objective", "compute_gradients",
            "TrainingBatch", "write_fixture", "main"} <= called, sorted(called)
    # The find_mrps hook in bench/spans.py reads the index's width as args[0].d.
    assert "d" in {f.name for f in dataclasses.fields(scoring.EmbeddingIndex)}


def _raised_names(tree):
    """The names that ``raise`` statements of a parsed module name, as
    ``raise Kind(...)``, ``raise Kind`` or ``raise module.Kind(...)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


def test_every_error_kind_is_raised_by_the_package():
    kinds = {name for name, value in inspect.getmembers(errors, inspect.isclass)
             if value.__module__ == errors.__name__ and value is not errors.RiskRelError}
    raised = {name for path in (ROOT / "src" / "riskrel").glob("*.py")
              for name in _raised_names(ast.parse(path.read_text(encoding="utf-8")))}
    assert "DegenerateInput" in kinds
    assert not kinds - raised, sorted(kinds - raised)


# The public functions and classes that nothing in src/riskrel names, and why
# each stays.
_UNREFERENCED_PUBLIC = {
    "encoder.pad_batch": "the benchmark's training probe imports it",
    "training.batch_objective": "the benchmark's training probe imports it",
    "training.compute_gradients": "the benchmark's training probe imports it",
    "scoring.load_embeddings": "reads the embeddings file that embed writes, for library use",
    "scoring.mrp_result_to_dict": "the README's evidence-format oracle for the writer",
    "evaluation.retrieval_metrics": "standalone retrieval quality (acceptance criterion 8)",
    "synthetic.write_fixture": "the README's and the benchmark's fixture entry point",
}


def _named(node):
    """Each identifier a parsed node names: a name, an attribute or an import."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rsplit(".", 1)[-1]


def test_every_public_name_is_named_in_the_package():
    """A public top-level function or class is named outside its own
    definition somewhere in src/riskrel, or is on the allow-list with a reason."""
    defined = set()  # (module.name, name) of each public definition
    holders: dict[str, set] = {}  # name -> the definitions naming it (None: elsewhere)
    for path in (ROOT / "src" / "riskrel").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = f"{path.stem}.{node.name}"
                if not node.name.startswith("_"):
                    defined.add((own, node.name))
            for name in _named(node):
                holders.setdefault(name, set()).add(own)
    unreferenced = {key for key, name in defined if not holders.get(name, set()) - {key}}
    assert "cli.main" not in unreferenced
    assert all(_UNREFERENCED_PUBLIC.values())
    assert unreferenced == set(_UNREFERENCED_PUBLIC), \
        sorted(unreferenced.symmetric_difference(_UNREFERENCED_PUBLIC))


def _format_specs(path):
    """(the top-level definition holding it, spec) for each constant format
    spec of an f-string in a module, as ``.2f`` in ``f"{x:.2f}"``."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = f"{path.stem}.{getattr(top, 'name', None)}"
        for node in ast.walk(top):
            if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
                parts = node.format_spec.values
                if all(isinstance(part, ast.Constant) for part in parts):
                    yield owner, "".join(part.value for part in parts)


def test_the_threshold_label_format_has_one_owner():
    """``.2f`` prints a threshold; scoring.threshold_label alone writes it."""
    owners = [owner for path in sorted((ROOT / "src" / "riskrel").glob("*.py"))
              for owner, spec in _format_specs(path) if spec == ".2f"]
    assert owners == ["scoring.threshold_label"]


# Standard-library names new in Python 3.11 or later, as (module, name);
# pyproject.toml declares Python >= 3.10.
_NEWER_THAN_FLOOR = {("operator", "call"), ("tomllib", None), ("typing", "Self"),
                     ("enum", "StrEnum"), ("datetime", "UTC")}


def _stdlib_uses(tree):
    """(module, name) of each ``import module``, ``from module import name``
    and ``module.name`` in a parsed module; name is None for a bare import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id, node.attr


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "riskrel").glob("*.py")),
                         ids=lambda path: path.name)
def test_every_module_keeps_the_python_310_floor(path):
    """Each module parses as Python 3.10 and names none of the 3.11+
    standard-library names above; tier-1 itself runs on a later Python."""
    tree = ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
    newer = {(module, name) for module, name in _stdlib_uses(tree)
             if (module, name) in _NEWER_THAN_FLOOR or (module, None) in _NEWER_THAN_FLOOR}
    assert not newer, sorted(newer, key=str)
