"""The package namespace is exactly the union of the layer modules' exports,
and importing it stays cheap."""

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
