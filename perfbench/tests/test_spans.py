import asyncio
import sys
import types

import pytest

from spans import Tracer, layer_totals, union_seconds


def test_union_of_intervals():
    assert union_seconds([]) == 0
    assert union_seconds([(0, 1), (2, 3)]) == 2
    assert union_seconds([(0, 2), (1, 3)]) == 3
    assert union_seconds([(0, 4), (1, 2)]) == 4


def test_self_time_of_nested_spans():
    # a [0, 10] has children b [1, 4] and c [5, 9]; b has child d [2, 3].
    spans = [
        (1, "a", 0.0, 10.0, 0),
        (2, "b", 1.0, 4.0, 1),
        (3, "d", 2.0, 3.0, 2),
        (4, "c", 5.0, 9.0, 1),
    ]
    totals = layer_totals(spans)
    assert totals["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert totals["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert totals["d"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert totals["c"] == {"calls": 1, "s": 4.0, "self_s": 4.0}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_overlapping_children_count_once():
    spans = [(1, "a", 0.0, 10.0, 0), (2, "x", 1.0, 6.0, 1), (3, "x", 4.0, 8.0, 1)]
    assert layer_totals(spans)["a"]["self_s"] == 3.0


def test_recursive_layer_counted_once():
    spans = [
        (1, "f", 0.0, 10.0, 0),
        (2, "g", 1.0, 9.0, 1),
        (3, "f", 2.0, 5.0, 2),
    ]
    totals = layer_totals(spans)
    assert totals["f"]["calls"] == 2
    assert totals["f"]["s"] == 10.0
    assert totals["f"]["self_s"] == 2.0 + 3.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fake_package():
    """pbfake.core defines f; pbfake.user binds it by name."""
    core = types.ModuleType("pbfake.core")
    user = types.ModuleType("pbfake.user")

    def f(x):
        return x + 1

    def g(x):
        return core.f(x) * 2

    class Box:
        def get(self, x):
            return x

    core.f, core.g, core.Box = f, g, Box
    user.f = f
    pkg = types.ModuleType("pbfake")
    sys.modules.update({"pbfake": pkg, "pbfake.core": core, "pbfake.user": user})
    yield core, user
    for name in ("pbfake", "pbfake.core", "pbfake.user"):
        sys.modules.pop(name)


def test_install_wraps_every_binding_and_uninstall_restores(fake_package):
    core, user = fake_package
    original = core.f
    tracer = Tracer(clock=FakeClock())
    seen = []
    assert tracer.install("layer.f", "pbfake.core:f", module_prefix="pbfake") == 2
    tracer.install("layer.g", "pbfake.core:g", module_prefix="pbfake")
    tracer.install("layer.get", "pbfake.core:Box.get",
                   on_result=lambda args, r: seen.append(r),
                   module_prefix="pbfake")
    assert user.f(1) == 2 and core.g(1) == 4 and core.Box().get(5) == 5
    assert seen == [5]
    totals = tracer.totals()
    assert totals["layer.f"]["calls"] == 2
    assert totals["layer.g"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    tracer.uninstall()
    assert core.f is original and user.f is original


def test_async_spans_and_window():
    tracer = Tracer()

    async def leaf():
        await asyncio.sleep(0)
        return 1

    wrapped = tracer.wrap("leaf", leaf)

    async def main():
        return await asyncio.gather(wrapped(), wrapped())

    assert asyncio.run(main()) == [1, 1]
    assert tracer.totals()["leaf"]["calls"] == 2
    assert all(parent == 0 for *_rest, parent in tracer.spans)
    tracer.record("later", 1e12, 1e12 + 1)
    assert "later" not in tracer.totals(window=(0.0, 1e11))
