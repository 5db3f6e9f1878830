"""The package namespace is exactly the union of the layer modules' exports,
importing it stays cheap, no module imports a name it never uses, every
definition is reached from a suite, the CLI or the benchmark, some call sets
every defaulted parameter, only the iteration tolerance is a parameter, and
only matcore reads the fixed rank and rounding tolerances."""

import ast
import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


# Subpackages that `import oalab` must not load.  scipy.signal once cost
# half a second of a fresh import, and scipy.optimize (with scipy.special,
# scipy.spatial, scipy.fft and scipy.sparse behind it) about 0.27 s and
# 22 MB.  No module uses any of them.
HEAVY_SUBPACKAGES = (
    "scipy.signal",
    "scipy.optimize",
    "scipy.integrate",
    "scipy.sparse",
    "scipy.special",
    "scipy.spatial",
    "scipy.fft",
)


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    this checkout's oalab."""
    src = str(Path(oalab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def _loaded_heavy(setup: str) -> list:
    code = f"import sys\n{setup}\nprint([m for m in {HEAVY_SUBPACKAGES!r} if m in sys.modules])"
    return ast.literal_eval(_fresh(code))


def test_import_loads_no_heavy_scipy_subpackage():
    assert _loaded_heavy("import oalab") == []


def test_disk_test_suite_loads_no_heavy_scipy_subpackage():
    setup = (
        "from oalab import SuiteConfig, run_suite\n"
        "assert run_suite(SuiteConfig(suite='disk-test', seed=3, trials=60)).passed"
    )
    assert _loaded_heavy(setup) == []


@pytest.mark.parametrize(
    "call",
    [
        "from oalab import domar_criterion_check, make_weight\n"
        "r = domar_criterion_check(make_weight('gaussian'), 1.0)\n"
        "assert r.eta_convex and 0 < r.ratio_integral < 1, r",
        # The Frobenius warm start settles a block-diagonal a modulo a block
        # ideal: its quotient norm is the norm of the other block, |a[2, 2]|.
        "from oalab import block_ideal_subspace, quotient_norm\n"
        "from oalab.sampling import complex_normal\n"
        "import numpy as np\n"
        "a = complex_normal(np.random.default_rng(1), (3, 3))\n"
        "a[:2, 2] = a[2, :2] = 0\n"
        "r = quotient_norm(a, block_ideal_subspace([2, 1], [0]))\n"
        "assert r.status == 'CERTIFIED' and abs(r.upper - abs(a[2, 2])) < 1e-12, r",
        # The warm start does not settle a random one-dimensional J, so
        # this runs the Newton descent.
        "from oalab import matrix_span, quotient_norm\n"
        "from oalab.sampling import complex_normal\n"
        "import numpy as np\n"
        "a, j = complex_normal(np.random.default_rng(1), (2, 3, 3))\n"
        "assert quotient_norm(a, matrix_span([j])).status == 'CERTIFIED'",
    ],
    ids=["domar_criterion_check", "block-quotient", "random-quotient"],
)
def test_calls_that_need_no_heavy_scipy_subpackage(call):
    # The suites that run these, domar-criterion and quotient-cone, are
    # rows of test_heavy_imports_per_suite.
    assert _loaded_heavy(call) == []


def test_heavy_imports_per_suite():
    # Every registered suite at its reduced config, in SUITE_NAMES order, in
    # one interpreter: which heavy subpackages each suite is the first to
    # load.  An eager import shows up here as a row, not as a silent +20 MB.
    from test_acceptance import _GOLDEN

    reduced = {name: runs[0]["config"] for name, runs in _GOLDEN.items()}
    code = (
        "from oalab import SUITE_NAMES, SuiteConfig, run_suite\n"
        f"reduced = {reduced!r}\n"
        "seen, table = set(), {}\n"
        "for name in SUITE_NAMES:\n"
        "    run_suite(SuiteConfig(suite=name, **reduced[name]))\n"
        f"    now = {{m for m in {HEAVY_SUBPACKAGES!r} if m in sys.modules}}\n"
        "    table[name] = sorted(now - seen)\n"
        "    seen = now\n"
        "print(table)"
    )
    table = ast.literal_eval(_fresh("import sys\n" + code))
    assert table == {name: [] for name in suites.SUITE_NAMES}


def _imported_modules(path: Path) -> set:
    """Dotted names of the modules a source file imports, at any depth;
    ``from scipy import optimize`` counts as ``scipy.optimize``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module)
            names |= {f"{node.module}.{alias.name}" for alias in node.names}
    return names


def test_no_module_imports_a_scipy_subpackage_but_linalg():
    # quotient_norm's descent and volterra_norm's power iteration are numpy
    # loops; an import of scipy.optimize or scipy.sparse anywhere in the
    # package, even inside a function, would bring back its 20 MB.
    package = Path(oalab.__file__).parent
    importers = {
        str(path.relative_to(package)): sorted(others)
        for path in package.rglob("*.py")
        if (others := {
            name for name in _imported_modules(path)
            if name.startswith("scipy.") and name.split(".")[1] != "linalg"
        })
    }
    assert importers == {}


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


def test_json_is_written_by_one_rule_and_read_nowhere():
    # Every record goes through matcore.to_jsonable, written only by the
    # CLI's writer; matrix_from_json is the one reader.  A to_json method or
    # a from_json parser would be a second wire format to keep in step with
    # the first, and only cli.py imports json.
    package = Path(oalab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in ("to_json", "from_json"):
                found.append((path.name, f"def {node.name}"))
            elif isinstance(node, ast.Attribute) and node.attr == "loads" and (
                getattr(node.value, "id", None) == "json"
            ):
                found.append((path.name, "json.loads"))
            elif isinstance(node, ast.Import) and "json" in {a.name for a in node.names} and (
                path.name != "cli.py"
            ):
                found.append((path.name, "import json"))
    assert found == []


# Definitions no suite, CLI command or benchmark job reaches, kept on purpose.
UNREACHED_ALLOWED = {
    "matcore.matrix_from_json": "the reader for replaying a failure record by hand",
}


def _names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | _attributes(node)


def _attributes(node) -> set:
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _is_exempt(name: str) -> bool:
    """Dunders, ``__post_init__`` among them, run without an attribute read."""
    return name.startswith("__") and name.endswith("__")


def _bench_roots(tree, modules: set) -> set:
    """Names a benchmark file reaches in the package: those it imports from
    an ``oalab`` module and the attributes it reads off an imported one.  A
    name it defines itself reaches nothing, whatever it is called."""
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if alias.name.split(".")[0] == "oalab"
            }
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "oalab":
            for alias in node.names:
                module = node.module == "oalab" and alias.name in modules
                (aliases if module else names).add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                names.add(node.attr)
    return names


def _unreached(package: Path, bench: Path) -> set:
    """Top-level definitions of the package, and methods and properties of
    the classes among them, that no root reaches.

    Roots: the module-level code of every module (the suite registry, the
    CLI's ``__main__`` call, ``__init__``'s ``__all__`` over ``_LAYERS``),
    the console script ``cli.main`` and :func:`_bench_roots` of every
    benchmark file.  A name reaches each top-level function or class of that
    name, and an attribute name each method or property of that name in a
    reached class; a reached body reaches the names it uses in turn.  A
    reached class reaches its body except its non-dunder methods.  Strings,
    such as ``__all__`` entries, reach nothing.
    """
    definitions, members, names, attributes = {}, {}, {"main"}, set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((f"{path.stem}.{node.name}", node))
            else:
                names |= _names(node)
                attributes |= _attributes(node)
    modules = {path.stem for path in package.glob("*.py")}
    for path in sorted(bench.glob("*.py")):
        names |= _bench_roots(ast.parse(path.read_text(encoding="utf-8")), modules)
    reached, frontier = set(), list(names)

    def reach(key, node):
        if key in reached:
            return
        reached.add(key)
        body = [node]
        if isinstance(node, ast.ClassDef):
            body = node.bases + node.decorator_list + node.keywords
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _is_exempt(item.name):
                    members.setdefault(item.name, []).append((f"{key}.{item.name}", item))
                else:
                    body.append(item)
            frontier.extend(name for name in members if name in attributes)
        for part in body:
            attributes.update(_attributes(part))
            frontier.extend(_names(part))

    while frontier:
        name = frontier.pop()
        for key, node in definitions.get(name, []):
            reach(key, node)
        if name in attributes:
            for key, node in members.get(name, []):
                reach(key, node)
    defined = {key for found in definitions.values() for key, _ in found}
    member_keys = {key for found in members.values() for key, _ in found}
    return (defined | member_keys) - reached


def test_every_definition_is_reached_from_a_suite_the_cli_or_the_benchmark():
    package = Path(oalab.__file__).parent
    unreached = _unreached(package, package.parents[1] / "oabench")
    assert sorted(unreached - set(UNREACHED_ALLOWED)) == []
    assert sorted(set(UNREACHED_ALLOWED) - unreached) == []  # missing or reached


@pytest.mark.parametrize(
    "module, anchor, added, key",
    [
        (
            "ocpmap.py",
            "    residual: float\n",
            "\n    @property\n    def rank(self) -> int:\n        return len(self.kraus)\n",
            "ocpmap.StinespringTriple.rank",
        ),
        # oabench/workloads.py defines a haar_unitary of its own, which must
        # not reach the package's.
        (
            "sampling.py",
            "    return q * (d / np.abs(d))\n",
            "\n\ndef haar_unitary(rng, dim):\n    return haar_unitaries(rng, 1, dim)[0]\n",
            "sampling.haar_unitary",
        ),
    ],
    ids=["method", "name-collision"],
)
def test_the_guard_finds_a_re_added_test_only_definition(tmp_path, module, anchor, added, key):
    package = Path(oalab.__file__).parent
    bench = package.parents[1] / "oabench"
    copy = tmp_path / "oalab"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    text = (copy / module).read_text(encoding="utf-8")
    assert text.count(anchor) == 1
    (copy / module).write_text(text.replace(anchor, anchor + added), encoding="utf-8")
    assert "def haar_unitary(" in (bench / "workloads.py").read_text(encoding="utf-8")
    assert _unreached(copy, bench) - _unreached(package, bench) == {key}


# Defaulted parameters that no call in the package or the benchmark sets,
# kept on purpose.
TEST_ONLY_PARAMETERS = {
    "cli.main.argv": "the console entry point, which reads sys.argv",
    "algebra.ws_battery.A": "the chain in an ambient algebra, which tests check in M_n",
}


def _unset_parameters(package: Path, bench: Path) -> set:
    """``module.qualname.parameter`` for every defaulted parameter of a
    function or method in the package that no call in the package or the
    benchmark passes, by keyword or by position.

    A call reaches every definition of its name, as in :func:`_unreached`,
    and a call to a class reaches its ``__init__``.  A method's positions
    do not count ``self`` or ``cls``.  A ``*args`` passes every position and
    a ``**kwargs`` every keyword.
    """
    defaulted = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", True)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix, in_class)
                continue
            name, args = f"{prefix}.{child.name}", child.args
            positional = args.posonlyargs + args.args
            if in_class and "staticmethod" not in {ast.unparse(d) for d in child.decorator_list}:
                positional = positional[1:]
            callee = prefix.rsplit(".", 1)[1] if in_class and child.name == "__init__" else child.name
            first = len(positional) - len(args.defaults)
            for index, arg in enumerate(positional[first:], first):
                defaulted.append((f"{name}.{arg.arg}", callee, index, arg.arg))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    defaulted.append((f"{name}.{arg.arg}", callee, None, arg.arg))
            visit(child, name, False)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    passed = set()  # (callee, position, keyword, "*" or "**")
    for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                for index, arg in enumerate(node.args):
                    passed.add((callee, "*" if isinstance(arg, ast.Starred) else index))
                passed |= {(callee, kw.arg or "**") for kw in node.keywords}
    unset = set()
    for key, callee, index, arg in defaulted:
        ways = {arg, "**"} | ({index, "*"} if index is not None else set())
        if not {(callee, way) for way in ways} & passed:
            unset.add(key)
    return unset


def test_every_defaulted_parameter_is_set_by_a_call():
    package = Path(oalab.__file__).parent
    unset = _unset_parameters(package, package.parents[1] / "oabench")
    assert sorted(unset - set(TEST_ONLY_PARAMETERS)) == []
    assert sorted(set(TEST_ONLY_PARAMETERS) - unset) == []  # missing or set


def test_the_parameter_guard_finds_a_re_added_test_only_parameter(tmp_path):
    package = Path(oalab.__file__).parent
    bench = package.parents[1] / "oabench"
    copy = tmp_path / "oalab"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    text = (copy / "support.py").read_text(encoding="utf-8")
    anchor = "def power_limit_projection(x, iter_tol: float = ITER_TOL)"
    assert text.count(anchor) == 1
    (copy / "support.py").write_text(
        text.replace(anchor, anchor[:-1] + ", n_max: int = 2**40)"), encoding="utf-8"
    )
    added = _unset_parameters(copy, bench) - _unset_parameters(package, bench)
    assert added == {"support.power_limit_projection.n_max"}


# Every signature that takes a tolerance: the functions that read iter_tol
# as an iteration stop or a certified width, the suite configuration and
# its run, and the gate of a suite case.  The rounding and rank allowances
# are matcore's rules, never parameters; the unit, xyx and commutator
# residual checks read those rules, and sharp_neumann's band is a constant.
ITER_TOL_READERS = {
    "algebra.quotient_norm",
    "support.power_limit_projection",
    "support.support_projection_routes",
    "ocpmap.ocp_falsify",
}
TOLERANCE_PARAMETERS = (
    {(name, "iter_tol") for name in ITER_TOL_READERS}
    | {("suites.SuiteConfig", "iter_tol"), ("suites._Run", "iter_tol")}
    | {("suites._Run.case", "tol"), ("suites._Run.bound", "tol")}
)


def _is_tolerance(name: str, annotation) -> bool:
    spelled = "tol" in name.lower().split("_") or "toler" in name.lower()
    return spelled or "Tolerances" in (ast.unparse(annotation) if annotation else "")


def _tolerance_parameters(package: Path) -> set:
    """``(qualified name, parameter)`` for every function parameter and
    class field in the package that carries a tolerance."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
                args = child.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if _is_tolerance(arg.arg, arg.annotation):
                        found.add((name, arg.arg))
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
                for item in child.body:
                    target = getattr(item, "target", None)
                    if isinstance(item, ast.AnnAssign) and isinstance(target, ast.Name):
                        if _is_tolerance(target.id, item.annotation):
                            found.add((name, target.id))
                visit(child, name)
            else:
                visit(child, prefix)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_the_iteration_tolerance_is_a_parameter():
    assert _tolerance_parameters(Path(oalab.__file__).parent) == TOLERANCE_PARAMETERS
    for name in ITER_TOL_READERS:
        module, *path = name.split(".")
        fn = getattr(oalab, module)
        for part in path:
            fn = getattr(fn, part)
        assert inspect.signature(fn).parameters["iter_tol"].default == matcore.ITER_TOL, name
    for gone in ("Tolerances", "DEFAULT_TOL"):
        assert not hasattr(oalab, gone) and not hasattr(matcore, gone)
        assert gone not in oalab.__all__


def test_the_tolerance_guard_finds_a_re_added_parameter(tmp_path):
    package = Path(oalab.__file__).parent
    copy = tmp_path / "oalab"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    text = (copy / "cone.py").read_text(encoding="utf-8")
    anchor = "def accretive(x) -> bool:"
    assert text.count(anchor) == 1
    (copy / "cone.py").write_text(
        text.replace(anchor, "def accretive(x, exact_tol: float = EXACT_TOL) -> bool:"),
        encoding="utf-8",
    )
    assert _tolerance_parameters(copy) - TOLERANCE_PARAMETERS == {("cone.accretive", "exact_tol")}


# The two fixed allowances stay behind matcore's rules, rank_cutoff and
# rounding_allowance: no other module names them, so no module can decide a
# rank or a rounding slack by a convention of its own.
FIXED_TOLERANCES = {"RANK_TOL", "EXACT_TOL"}


def _rule_bypasses(package: Path) -> set:
    """``(module, name)`` for every read of a fixed tolerance outside
    matcore, counted as AST names, attributes and imports (docstrings do
    not count), and for every private name a module imports from another
    oalab module."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "oalab"
            ):
                names = {alias.name for alias in node.names}
                found |= {(path.stem, name) for name in names if name.startswith("_")}
            else:
                continue
            if path.stem != "matcore":
                found |= {(path.stem, name) for name in names & FIXED_TOLERANCES}
    return found


def test_only_matcore_reads_the_fixed_tolerances():
    assert _rule_bypasses(Path(oalab.__file__).parent) == set()


@pytest.mark.parametrize(
    "module, old, new, key",
    [
        (
            "support.py",
            "rank = int(np.sum(s > rank_cutoff(s[0])))",
            "from .matcore import RANK_TOL\n    rank = int(np.sum(s > RANK_TOL * s[0]))",
            ("support", "RANK_TOL"),
        ),
        (
            "ocpmap.py",
            "from .cone import in_F\n",
            "from .cone import _in_F, in_F\n",
            ("ocpmap", "_in_F"),
        ),
    ],
    ids=["rank-comparison", "private-import"],
)
def test_the_rule_guard_finds_a_re_added_bypass(tmp_path, module, old, new, key):
    package = Path(oalab.__file__).parent
    copy = tmp_path / "oalab"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    text = (copy / module).read_text(encoding="utf-8")
    assert text.count(old) == 1
    (copy / module).write_text(text.replace(old, new), encoding="utf-8")
    assert _rule_bypasses(copy) == {key}
