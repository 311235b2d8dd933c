"""The benchmark traces package functions by name: each one must exist.

`perfbench/spans.py` lists (module, name) pairs that its tracer wraps;
a rename in `src/` would break `perfbench/run.py --trace 1` without any
package test noticing, so the list is checked here, read-only.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_is_a_package_callable():
    traced = _traced()
    assert traced
    for module, name in traced:
        target = importlib.import_module(f"beauville.{module}")
        for attr in name.split("."):
            target = getattr(target, attr)
        assert callable(target), (module, name)
