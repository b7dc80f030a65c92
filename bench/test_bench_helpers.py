"""Tests of the benchmark's own helpers on hand-made inputs."""

import json
import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from outputs import front_hv, front_problems, percentile  # noqa: E402
from spans import Tracer, covered, self_times  # noqa: E402


def test_front_hv_is_the_staircase_area():
    # x = cost / 200: 0.25 at 0.5 accuracy until 0.5, then 0.8 until 1
    assert front_hv([(50.0, 0.5), (100.0, 0.8)], 200.0) == pytest.approx(0.125 + 0.4)
    assert front_hv([(100.0, 0.8), (50.0, 0.5)], 200.0) == pytest.approx(0.525)
    assert front_hv([(200.0, 0.9)], 200.0) == 0.0
    assert front_hv([(250.0, 0.9)], 200.0) == 0.0
    assert front_hv([], 200.0) == 0.0


def test_front_problems():
    assert front_problems([(1.0, 0.5), (2.0, 0.6)], 2.0) == []
    assert front_problems([], 2.0) == ["final corrected front is empty"]
    assert len(front_problems([(2.0, 0.5), (1.0, 0.6)], 3.0)) == 1
    assert len(front_problems([(1.0, 0.6), (2.0, 0.6)], 3.0)) == 1
    assert len(front_problems([(1.0, 0.5), (4.0, 0.6)], 3.0)) == 1


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        (1, "root", None, 0, 0.0, 10.0),
        (2, "a", 1, 0, 1.0, 3.0),
        (3, "b", 1, 0, 2.0, 5.0),  # overlaps a: the children cover 1..5
        (4, "leaf", 3, 0, 2.5, 3.5),
        (5, "a", 1, 0, 9.0, 12.0),  # runs past its parent: clipped at 10
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own["a"] == pytest.approx(2.0 + 3.0)
    assert own["b"] == pytest.approx(3.0 - 1.0)
    assert own["leaf"] == pytest.approx(1.0)


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == 9
    assert percentile(list(range(199)), 0.95) is None
    assert percentile(list(range(200)), 0.95) == 189


def test_covered_counts_overlapping_intervals_once():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert covered([(1.0, 0.5)]) == 0.0
    assert covered([]) == 0.0


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    class Box:
        @staticmethod
        def make(x):
            return module.inner(x) * 2

    module.inner = inner
    module.Box = Box
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_tracer_reports_missing_symbols_as_absent(fake_module):
    tracer = Tracer()
    assert not tracer.patch("gone", "fake_layers:no_such_function")
    assert not tracer.patch("gone", "fake_layers:Box.no_such_method")
    assert not tracer.patch("gone", "no_such_module_for_bench:f")
    assert set(tracer.absent) == {
        "fake_layers:no_such_function",
        "fake_layers:Box.no_such_method",
        "no_such_module_for_bench:f",
    }


def test_tracer_records_nested_spans_per_thread(fake_module):
    tracer = Tracer()
    assert tracer.patch("outer", "fake_layers:Box.make", context="train", cpu=True)
    assert tracer.patch("inner", "fake_layers:inner", split=True)
    assert fake_module.Box.make(1) == 4
    worker = threading.Thread(target=fake_module.inner, args=(0,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {s[1]: s for s in tracer.spans}
    assert set(by_name) == {"outer", "inner.train", "inner.other"}
    assert by_name["inner.train"][2] == by_name["outer"][0]
    assert by_name["inner.other"][2] is None  # another thread starts its own tree
    assert by_name["inner.other"][3] != by_name["outer"][3]
    assert "outer.wait_s" in tracer.counters


def test_benchmark_json_names_every_metric_the_harness_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
