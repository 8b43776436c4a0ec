"""Every function the benchmark wraps still exists under the name it patches.

``perfbench/tracer.py`` and the unit hooks in ``perfbench/workloads.py``
patch package functions by name; a rename would otherwise only show up as a
failed ``--trace 1`` run or a workload with no units.
"""

import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load("tracer")
workloads = _load("workloads")


def _patches():
    clock = workloads.UnitClock()
    hooks = [w.hook(clock) for w in workloads.WORKLOADS.values()]
    return tracer.layer_patches(tracer.Tracer()) + hooks


@pytest.mark.parametrize("home, attr", list(dict.fromkeys((h, a) for h, a, _ in _patches())),
                         ids=lambda v: getattr(v, "__name__", v))
def test_patch_target_resolves_and_is_replaced(home, attr):
    orig = getattr(home, attr, None)
    assert callable(orig), f"{home.__name__}.{attr} is gone"
    patch = [p for p in _patches() if p[0] is home and p[1] == attr]
    with tracer.installed(patch):
        assert getattr(home, attr) is not orig
    assert getattr(home, attr) is orig
