"""The layer entry points that the traced benchmark run wraps exist.

`solvebench/spans.py` replaces each entry of its `POINTS` table at a
module or class attribute; a renamed or deleted entry point makes the
traced run fail.  This resolves every entry the way `Tracer._targets`
does, without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "solvebench" / "spans.py"


def _points():
    spec = importlib.util.spec_from_file_location("solvebench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return spans.POINTS


@pytest.mark.parametrize("module_name,attr,key", _points())
def test_span_point_resolves(module_name, attr, key):
    module = importlib.import_module(f"rr_hdiv.{module_name}")
    if "." in attr:
        cls_name, name = attr.split(".")
        owner = getattr(module, cls_name)
        assert callable(owner.__dict__[name])
    else:
        assert callable(getattr(module, attr))
