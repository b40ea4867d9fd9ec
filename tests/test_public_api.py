"""The package's public names resolve, and so do the functions the benchmark
traces, so a stale ``__all__`` entry or a deleted traced name fails here
rather than only in the benchmark run.  No package module imports scipy,
and the package runs with scipy unimportable.  Only ``qsqg.fields`` calls
frexp, so exact amplitude scaling keeps one owner, and only
``qsqg.spectral`` names ``numpy.fft``, so transforms keep one too.  Every
public name has a use in the package or the benchmark."""
import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qsqg

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(qsqg.__path__))
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def layer_functions() -> dict:
    """``LAYER_FUNCTIONS`` of perfbench/spans.py, read from its source so that
    the benchmark's own imports are not needed."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {SPANS}")


@pytest.mark.parametrize("name", ["qsqg"] + [f"qsqg.{m}" for m in SUBMODULES])
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_traced_layer_functions_exist():
    missing = [f"qsqg.{layer}.{fname}"
               for layer, names in layer_functions().items()
               for fname in names
               if not callable(getattr(importlib.import_module(f"qsqg.{layer}"), fname, None))]
    assert not missing, f"perfbench traces functions that do not exist: {missing}"


def test_import_loads_no_scipy():
    """A fresh ``import qsqg, qsqg.cli`` leaves no scipy module in
    ``sys.modules``: the transforms and the identity experiment's
    lifting-constant quadrature are numpy's."""
    probe = ("import sys, qsqg, qsqg.cli\n"
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                            cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


def named(node) -> list[str]:
    """The dotted names ``node`` brings in or refers to: each module of an
    import, ``module.name`` for each name a from-import takes, or the chain
    of a name or attribute access (``np.fft.rfft2`` reads numpy.fft.rfft2;
    a chain on a call or subscript starts with an empty part)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [module] + [f"{module}.{alias.name}" for alias in node.names]
    if not isinstance(node, (ast.Attribute, ast.Name)):
        return []
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.append(("numpy" if node.id == "np" else node.id) if isinstance(node, ast.Name) else "")
    return [".".join(reversed(parts))]


PACKAGE = {path.name: ast.parse(path.read_text())
           for path in sorted((ROOT / "src" / "qsqg").glob("*.py"))}


def found(matches, owner: "str | None" = None) -> list[str]:
    """file:line of each name that ``matches`` accepts, in every package
    module except ``owner``."""
    return sorted({f"{module}:{node.lineno}" for module, tree in PACKAGE.items() if module != owner
                   for node in ast.walk(tree) if any(map(matches, named(node)))})


def test_no_package_module_imports_scipy():
    hits = found(lambda name: name.split(".")[0] == "scipy")
    assert not hits, f"scipy imported at {hits}"


def test_only_fields_calls_frexp():
    """Exact amplitude scaling has one owner: every binary exponent comes
    from ``fields.binary_exponent``, so no other module calls frexp."""
    hits = found(lambda name: name.split(".")[-1] == "frexp", owner="fields.py")
    assert not hits, f"frexp called at {hits}"


def test_only_spectral_names_numpy_fft():
    """One module transforms: no other package module imports or calls
    ``numpy.fft``."""
    hits = found(lambda name: name == "numpy.fft" or name.startswith("numpy.fft."),
                 owner="spectral.py")
    assert not hits, f"numpy.fft named at {hits}"


def test_every_public_name_is_used():
    """Every ``qsqg.__all__`` name is used: a package module names it outside
    its own definition (the re-export in ``__init__`` does not count), or
    perfbench calls or traces it.  Oracles that only the tests use live in
    ``tests/oracles.py``."""
    bench = [node for path in sorted((ROOT / "perfbench").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))]

    def used(name):
        def matches(dotted):
            return dotted.split(".")[-1] == name
        return bool(found(matches, owner="__init__.py")) or any(
            (isinstance(node, ast.Constant) and node.value == name) or any(map(matches, named(node)))
            for node in bench)

    unused = [name for name in qsqg.__all__ if not used(name)]
    assert not unused, f"public names with no package or benchmark use: {unused}"


def test_identity_experiment_runs_without_scipy():
    """With scipy unimportable, the identity experiment, the last one that
    used scipy, runs at a small config and passes its hard checks."""
    probe = ("import math, sys\n"
             "sys.modules['scipy'] = None\n"
             "from qsqg.experiments import ExperimentConfig, run_space_identity\n"
             "from qsqg.fields import GridSpec\n"
             "cfg = ExperimentConfig(grid=GridSpec(32, 2 * math.pi), corpus_size=2)\n"
             "report = run_space_identity(cfg)\n"
             "print(report.hard_failures)")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", probe],
                            env=dict(os.environ, PYTHONPATH=path),
                            cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
