import importlib

import decodyn

MODULES = ("model", "bath", "states", "rates", "strongdec", "oracle")

# pruned API; none of these may come back through the package namespace
DELETED = ("BathPhasePoint", "sample_thermal", "evolve_matrix", "coupling_from_config")


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
