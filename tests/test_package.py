"""Each public name has one import path, ``riskrel.<module>.<name>``: the
package namespace re-exports nothing, so importing one module loads only
what that module imports."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import riskrel

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
