"""perfbench's tracer patches sarlab bindings by name; each one must exist."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_is_bound():
    # Tracer.active reads owner.__dict__[attr]: a missing binding is a KeyError
    points = load_spans().patch_points()
    assert points
    missing = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in points if attr not in vars(owner)]
    assert missing == []
