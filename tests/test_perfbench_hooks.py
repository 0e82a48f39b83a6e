"""perfbench drives sarlab by name; its patch points and calls must still work."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_is_bound():
    # Tracer.active reads owner.__dict__[attr]: a missing binding is a KeyError
    points = load("spans").patch_points()
    assert points
    missing = ["%s.%s" % (getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in points if attr not in vars(owner)]
    assert missing == []


@pytest.mark.parametrize("name", ["train_c5", "train_ragged", "grid_c5"])
def test_toy_workload_op_succeeds(tmp_path, name):
    # one op of each toy-size workload, and the train workloads' check (the
    # grid's check grades a fixed reference corpus, too slow for this suite)
    workload = load("workloads").TOY[name]
    state = workload.setup(tmp_path, seed=1)
    result = workload.op(state)
    assert (result.failed, result.errors) == (0, [])
    assert result.attempted > 0 and result.frames > 0
    if name.startswith("train"):
        assert workload.check(state, tmp_path) == []
