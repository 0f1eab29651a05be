"""The benchmark's layer tracer must still find every function it wraps.

``perfbench/layers.py`` patches each ``(module, class, attribute)`` in
``INSTRUMENTED`` at the name its caller looks it up by.  Deleting or moving
one of those names breaks ``perfbench/run.py --trace 1`` without failing
anything else, so every entry is resolved here against the package.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


INSTRUMENTED = load_layers().INSTRUMENTED


@pytest.mark.parametrize(
    "module_name,class_name,attr",
    [entry[:3] for entry in INSTRUMENTED],
    ids=[".".join(p for p in entry[:3] if p) for entry in INSTRUMENTED],
)
def test_instrumented_name_resolves(module_name, class_name, attr):
    owner = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(owner, attr, None))
    else:
        # The tracer patches the class's own attribute, not an inherited one.
        assert attr in vars(getattr(owner, class_name))
