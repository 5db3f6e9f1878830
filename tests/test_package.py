"""The package namespace is exactly the union of the layer modules' exports,
importing it stays cheap, and no module imports a name it never uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import oalab
from oalab import algebra, calculus, cone, domar, examples, matcore, ocpmap, spectral, suites, support

LAYERS = (matcore, cone, calculus, support, spectral, algebra, examples, domar, ocpmap, suites)


def test_all_is_union_of_layer_exports():
    union = [name for layer in LAYERS for name in layer.__all__]
    assert len(set(union)) == len(union)
    assert len(set(oalab.__all__)) == len(oalab.__all__)
    assert set(oalab.__all__) == set(union) | {"__version__"}


def test_exports_are_the_module_objects():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(oalab, name) is getattr(layer, name), (layer.__name__, name)
    assert isinstance(oalab.__version__, str)


def test_import_does_not_load_scipy_signal():
    # scipy.signal adds about half a second to a fresh `import oalab`.
    src = str(Path(oalab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, oalab; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _unused_imports(path: Path) -> list:
    """Names a module imports but never reads; names listed in a literal
    ``__all__`` count as read (they are re-exported)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(imported - used)


def test_no_unused_imports():
    # Neither pyflakes nor ruff is a dependency, so the check is an AST walk.
    roots = (Path(oalab.__file__).parent, Path(__file__).parent)
    unused = {
        str(path): names
        for root in roots
        for path in sorted(root.glob("*.py"))
        if (names := _unused_imports(path))
    }
    assert unused == {}
