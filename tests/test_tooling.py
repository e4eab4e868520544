"""The benchmark's trace targets still name functions of the program.

``perfbench/layers.py`` wraps functions by (module, attribute) and only
lists the ones it cannot find, so a rename would silently drop a span
from traced runs.  This resolves every target with plain ``getattr``,
without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

# Targets kept in the benchmark for older versions of the program.
RETIRED = ["locality._check_delta_of_locality"]


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    missing = []
    for modname, attr, _span, _count in _load_layers().TARGETS:
        obj = importlib.import_module("locfusion." + modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                break
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert missing == RETIRED
