"""Self-tests for the benchmark's own arithmetic and instrumentation.

    python3 -m pytest -q perfbench/test_perfbench.py

They import no ``repro`` code: the instrumentation tests wrap a throwaway
module registered under the ``repro.`` prefix.
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from layers import UNIT_SPAN, Instrumentation, SpanRecorder, Target
from hostspeed import NOMINAL_S, HostProbe
from stats import (count_failed, fail_frac, nearest_rank, normalised,
                   quartile_spread, self_times, summarize, tail_percentile)

ROOT = Path(__file__).resolve().parent.parent


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("unit", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 5.0, 9.0, 0),
        ("c", 6.0, 7.0, 2),
        ("a", 9.0, 9.5, 0),
    ]
    st = self_times(spans)
    assert st["unit"] == (1, pytest.approx(10.0 - 3.0 - 4.0 - 0.5))
    assert st["a"] == (2, pytest.approx(3.5))
    assert st["b"] == (1, pytest.approx(3.0))
    assert st["c"] == (1, pytest.approx(1.0))
    total_self = sum(s for _, s in st.values())
    assert total_self == pytest.approx(10.0)  # self times tile the root


def test_recorder_nests_spans_and_ignores_calls_outside_units():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    rec.call("layer", lambda: None, (), {})  # outside a unit: no span
    assert rec.spans == []

    def unit():
        return rec.call("layer", lambda: rec.call("layer", lambda: 7, (), {}),
                        (), {})

    assert rec.call(UNIT_SPAN, unit, (), {}) == 7
    assert [s[0] for s in rec.spans] == [UNIT_SPAN, "layer"]  # re-entry: 1
    assert rec.spans[1][3] == 0


# -- tail percentile -----------------------------------------------------------


@pytest.mark.parametrize("n, q, resolved", [
    (1, 50.0, False), (20, 50.0, False), (21, 100.0 * 11 / 21, True),
    (40, 75.0, True), (47, 100.0 * 37 / 47, True), (100, 90.0, True),
    (1000, 99.0, True), (10000, 99.9, True),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, q, resolved):
    assert tail_percentile(n) == (pytest.approx(q), resolved)
    if resolved:
        values = [float(i) for i in range(n)]
        tail = nearest_rank(values, tail_percentile(n)[0])
        assert sum(v > tail for v in values) == 10
        assert tail >= statistics.median(values)


def test_summary_falls_back_to_median_when_tail_unresolved():
    t = summarize([3.0, 1.0, 2.0, 4.0])
    assert (t.n, t.p50, t.tail, t.tail_resolved) == (4, 2.5, 2.5, False)
    t = summarize([float(i) for i in range(1, 41)])
    assert (t.tail_q, t.tail) == (75.0, 30.0)
    assert nearest_rank([1.0, 2.0, 3.0], 100.0) == 3.0


def test_quartile_spread_matches_statistics_quantiles():
    vals = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert quartile_spread(vals) == pytest.approx((17.25 - 11.75) / 14.5)


# -- host-speed normalisation --------------------------------------------------


def test_normalised_divides_by_the_bracketing_probes():
    assert normalised([2.0, 3.0], [1.0, 1.0, 2.0]) == [2.0, 2.0]
    with pytest.raises(ValueError):
        normalised([2.0, 3.0], [1.0, 1.0])


@pytest.mark.parametrize("kind", sorted(NOMINAL_S))
def test_every_probe_kind_reports_a_positive_slowdown(kind):
    assert HostProbe(kind)() > 0.0


def test_every_workload_names_a_known_probe():
    from workloads import WORKLOADS

    assert all(w.probe in NOMINAL_S for w in WORKLOADS.values())
    with pytest.raises(ValueError):
        HostProbe("gpu")


# -- failure counting ----------------------------------------------------------


def test_fail_frac_counts_units_not_messages():
    errors = [[], ["a", "b"], [], ["c"]]
    assert count_failed(errors) == 2
    assert fail_frac(len(errors), count_failed(errors)) == 0.5
    assert fail_frac(3, 0) == 0.0
    with pytest.raises(ValueError):
        fail_frac(0, 0)
    with pytest.raises(ValueError):
        fail_frac(2, 3)


class _Flaky:
    """A fake workload whose every third unit fails its check."""

    def __init__(self):
        self.n = 0

    def prepare(self, i):
        return i

    def unit(self, prepared):
        self.n += 1
        return prepared

    def work(self, prepared, out):
        return 2.0

    def check_unit(self, prepared, out):
        return ["bad"] if out % 3 == 2 else []


def test_closed_loop_counts_each_failed_unit():
    wl = _Flaky()
    probes = iter(range(1, 1000))
    times, work, errors, slowdowns = run.run_units(
        wl, 1e-4, lambda: float(next(probes)), start=3)
    assert len(times) == len(errors) == wl.n
    assert slowdowns == [float(i) for i in range(1, wl.n + 2)]
    assert work == 2.0 * wl.n
    assert count_failed(errors) == wl.n // 3  # units 5, 8, 11, ...


# -- instrumentation -----------------------------------------------------------


@pytest.fixture
def fake_layer(monkeypatch):
    lib = types.ModuleType("repro.fake_lib")
    user = types.ModuleType("repro.fake_user")

    def inner(x):
        return x + 1

    def outer(x):
        return lib.inner(x) * 2

    class Base:
        def go(self):
            return 1

    class Child(Base):
        def go(self):
            return super().go() + 1

    lib.inner, lib.outer, lib.Base, lib.Child = inner, outer, Base, Child
    lib.child_go = Child.go
    user.inner = inner  # ``from repro.fake_lib import inner``
    monkeypatch.setitem(sys.modules, "repro.fake_lib", lib)
    monkeypatch.setitem(sys.modules, "repro.fake_user", user)
    return lib, user, inner


def test_instrumentation_wraps_restores_and_counts_missing(fake_layer):
    lib, user, inner = fake_layer
    targets = (
        Target("fake.outer", "repro.fake_lib:outer"),
        Target("fake.inner", "repro.fake_lib:inner",
               hook=lambda c, args, out: c.__setitem__("n", c["n"] + out)),
        Target("fake.go", "repro.fake_lib:Base.go"),
        Target("fake.go", "repro.fake_lib:Child.go"),
        Target("fake.gone", "repro.fake_lib:removed"),
        Target("fake.gone", "repro.no_such_module:f"),
    )
    rec = SpanRecorder()
    with Instrumentation(rec, targets) as inst:
        assert user.inner is not inner  # by-name import site is traced

        def unit():
            return lib.outer(1), user.inner(5), lib.Child().go()

        assert rec.call(UNIT_SPAN, unit, (), {}) == (4, 6, 2)
    assert inst.missing == ["repro.fake_lib:removed", "repro.no_such_module:f"]
    assert lib.inner is inner and user.inner is inner
    assert vars(lib.Child)["go"] is lib.child_go
    st = rec.self_times()
    assert st["fake.outer"][0] == 1
    assert st["fake.inner"][0] == 2
    assert st["fake.go"][0] == 1  # Child.go -> Base.go is one span
    assert rec.counters["n"] == 2 + 6
    values = layers.layer_values(rec, units=1)
    assert 0.0 < values["trace.coverage"] <= 1.0


# -- the benchmark's declared metrics ------------------------------------------


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        layers.per_layer_metrics()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
