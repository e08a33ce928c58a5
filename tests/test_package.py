import importlib
import os
import subprocess
import sys
from pathlib import Path

import decodyn

MODULES = ("model", "bath", "states", "rates", "strongdec", "oracle")

# pruned API; none of these may come back through the package namespace
DELETED = (
    "BathPhasePoint",
    "sample_thermal",
    "evolve_matrix",
    "coupling_from_config",
    "entropy_classical",
    "entropy_quantum",
    "classical_rate2",
    "quantum_rate2",
    "BathMode",
)


def test_package_all_is_union_of_module_all():
    union = set()
    for name in MODULES:
        union.update(importlib.import_module(f"decodyn.{name}").__all__)
    listed = set(decodyn.__all__) - {"__version__"}
    assert len(listed) == len(decodyn.__all__) - 1, "duplicate entry in decodyn.__all__"
    assert listed == union
    for name in decodyn.__all__:
        assert hasattr(decodyn, name), name


def test_deleted_names_are_gone():
    for name in DELETED:
        assert not hasattr(decodyn, name), name


def test_import_leaves_scipy_interpolate_unloaded():
    # only a tabulated coupling needs scipy.interpolate; the CLI must start
    # without paying for it, and the coupling must still evaluate
    code = (
        "import sys, decodyn.cli\n"
        "assert 'scipy.interpolate' not in sys.modules, 'loaded at import'\n"
        "f = decodyn.model.TabulatedCoupling((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 4.0, 9.0))\n"
        "assert f.eval(1.0) == 1.0 and 'scipy.interpolate' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(decodyn.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
