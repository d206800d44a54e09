"""What starting homalt loads.

Each ``homalt`` call is one process, so what ``import homalt`` and
``import homalt.cli`` load is paid on every call.  ``import homalt``
loads linalg and core; every other public name is imported on first
access.  Each test that counts loaded modules runs in a fresh
interpreter.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import homalt

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
TRACED = str(ROOT / "perfbench" / "traced.py")
HOMALT_MODULES = "sorted(m for m in sys.modules if m.partition('.')[0] == 'homalt')"


def run_python(code):
    """stdout of ``python -c CODE`` with src/ on the path."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_only_linalg_and_core():
    out = run_python(
        "import sys\n"
        "import homalt\n"
        "before = " + HOMALT_MODULES + "\n"
        "from homalt import plus_algebra\n"
        "print(before)\n"
        "print(sorted(set(" + HOMALT_MODULES + ") - set(before)))\n"
    )
    assert out == [
        "['homalt', 'homalt.core', 'homalt.linalg']",
        "['homalt.constructions']",
    ]


def test_submodules_load_on_attribute_access():
    out = run_python(
        "import homalt\n"
        "print(homalt.symbolic.__name__, homalt.dsl.parse_identity is homalt.parse_identity)\n"
    )
    assert out == ["homalt.symbolic True"]


def _owner(name):
    """The submodule that provides a public name of the package."""
    if name in homalt._SUBMODULE:
        return "homalt." + homalt._SUBMODULE[name]
    return "homalt.linalg" if hasattr(homalt.linalg, name) else "homalt.core"


@pytest.mark.parametrize("name", [n for n in homalt.__all__ if n != "__version__"])
def test_every_public_name_resolves_to_its_submodule(name):
    assert getattr(homalt, name) is getattr(importlib.import_module(_owner(name)), name)
    assert name in dir(homalt)


@pytest.mark.parametrize("module", sorted(homalt._LAZY))
def test_lazy_table_lists_each_submodules_own_public_names(module):
    # _LAZY is kept by hand: it must list exactly the names in the
    # submodule's __all__ that the submodule defines, not ones it imports.
    mod = importlib.import_module("homalt." + module)
    own = [n for n in mod.__all__ if getattr(mod, n).__module__ == mod.__name__]
    assert sorted(homalt._LAZY[module]) == sorted(own)


def test_namespace_is_complete_and_closed():
    assert len(set(homalt.__all__)) == len(homalt.__all__)
    assert "__version__" in dir(homalt)
    namespace = {}
    exec("from homalt import *", namespace)
    assert set(homalt.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        homalt.no_such_name
    with pytest.raises(ImportError):
        exec("from homalt import no_such_name", {})


def test_cli_import_loads_every_traced_module():
    # perfbench/traced.py wraps each LAYERS function in every loaded
    # homalt module, the package's own core bindings included.
    out = run_python(
        "import runpy, sys\n"
        "import homalt\n"
        "import homalt.cli\n"
        "layers = runpy.run_path(%r)['LAYERS']\n"
        "print(sorted({m for _, m, _, _ in layers if 'homalt.' + m not in sys.modules}))\n"
        "print(vars(homalt)['mul'] is homalt.core.mul)\n" % TRACED
    )
    assert out == ["[]", "True"]


@pytest.mark.parametrize("module, absent", [
    ("homalt.symbolic", {"homalt.powers"}),
    ("homalt.jordan", {"homalt.powers", "homalt.symbolic"}),
])
def test_the_law_modules_reach_the_sweep_in_core(module, absent):
    # The lattice sweep and its price live in core, so a law module loads
    # no other law module for them.
    out = run_python("import sys\nimport %s\nprint(%s)\n" % (module, HOMALT_MODULES))
    loaded = set(ast.literal_eval(out[0]))
    assert module in loaded and not loaded & absent


def test_the_only_import_inside_a_function_is_the_dsl_cycle():
    # dsl builds symbolic's polynomials, so symbolic._monomial imports
    # dsl.parse_monomial when called; every other module imports at its top.
    found = []
    for path in sorted((ROOT / "src" / "homalt").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.stem, fn.name, node.module) for node in ast.walk(fn)
                          if isinstance(node, ast.ImportFrom) and node.level]
    assert found == [("symbolic", "_monomial", "dsl")]
