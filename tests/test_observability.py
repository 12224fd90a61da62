"""Property-tested invariants of the unified observability layer.

The tracer/metrics/export stack only earns its keep if its
guarantees are mechanical: spans nest, durations are non-negative,
counters are monotone, histograms conserve observations, the exported
Chrome-trace JSON honours the viewer contract, and — the load-bearing
one — instrumentation is observation-only, which the differential test
proves by running the resilient-campaign demo traced and untraced and
demanding bit-identical final state and fault accounting.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.device import Device
from repro.hardware.catalog import FRONTIER
from repro.observability import (
    NULL_TRACER,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NullTracer,
    TraceError,
    TraceFormatError,
    Tracer,
    export_chrome_trace,
    hot_spans_report,
    merged_trace_events,
    metrics_report,
    subsystems_in_trace,
    summarize_spans,
    validate_chrome_trace,
)
from repro.similarity.gemmtally import tally_2way

# -- strategies -------------------------------------------------------------

#: a random begin/end program over a handful of lanes; "end" on an empty
#: lane stack is interpreted as a no-op so every program is legal
lane_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.sampled_from(["begin", "end"])),
    max_size=40,
)


def run_lane_program(ops) -> Tracer:
    """Interpret a begin/end program on the deterministic tick clock."""
    tr = Tracer()
    stacks: dict[int, list[int]] = {0: [], 1: [], 2: []}
    for lane, op in ops:
        if op == "begin":
            stacks[lane].append(
                tr.begin(f"span{lane}", pid="p", tid=f"t{lane}"))
        elif stacks[lane]:
            tr.end(stacks[lane].pop())
    for stack in stacks.values():
        while stack:
            tr.end(stack.pop())
    return tr


class TestSpanProperties:
    @given(lane_ops)
    @settings(max_examples=60, deadline=None)
    def test_every_span_closes_with_nonnegative_duration(self, ops):
        tr = run_lane_program(ops)
        assert not tr.open_spans()
        assert all(s.dur >= 0 for s in tr.spans)

    @given(lane_ops)
    @settings(max_examples=60, deadline=None)
    def test_children_nest_inside_their_parents(self, ops):
        tr = run_lane_program(ops)
        for span in tr.spans:
            if span.parent is None:
                continue
            parent = tr.spans[span.parent]
            assert (parent.pid, parent.tid) == (span.pid, span.tid)
            assert parent.ts <= span.ts
            assert span.end_ts <= parent.end_ts

    @given(lane_ops)
    @settings(max_examples=40, deadline=None)
    def test_chrome_trace_round_trips_and_validates(self, ops):
        tr = run_lane_program(ops)
        doc = export_chrome_trace(tr)
        data = validate_chrome_trace(doc)
        for event in data["traceEvents"]:
            assert isinstance(event["ph"], str)
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert isinstance(event["ts"], (int, float))
        # byte-stable round trip: parse -> re-serialize -> parse
        assert json.loads(json.dumps(data)) == data
        # one complete event per closed span, no invented intervals
        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(tr.closed_spans())

    def test_tick_clock_is_deterministic(self):
        docs = []
        for _ in range(2):
            tr = Tracer()
            tally_2way(np.arange(12).reshape(3, 4) % 3, n_states=3,
                       method="popcount", abft=True, tracer=tr)
            docs.append(export_chrome_trace(tr))
        assert docs[0] == docs[1]

    def test_record_keeps_caller_timestamps(self):
        tr = Tracer()
        s = tr.record("op", 3.5, 1.25, pid="p", tid="t")
        assert s.ts == 3.5 and s.dur == 1.25 and s.end_ts == 4.75

    def test_record_nests_under_open_lane_span(self):
        tr = Tracer()
        outer = tr.begin("outer", pid="p", tid="t")
        inner = tr.record("inner", 10.0, 1.0, pid="p", tid="t")
        other = tr.record("elsewhere", 10.0, 1.0, pid="p", tid="u")
        tr.end(outer)
        assert inner.parent == outer
        assert other.parent is None

    def test_structural_misuse_raises(self):
        tr = Tracer()
        with pytest.raises(TraceError, match="negative duration"):
            tr.record("bad", 0.0, -1.0)
        a = tr.begin("a")
        b = tr.begin("b")
        with pytest.raises(TraceError, match="non-LIFO"):
            tr.end(a)
        tr.end(b)
        tr.end(a)
        with pytest.raises(TraceError, match="already ended"):
            tr.end(a)
        c = tr.begin("c", ts=100.0)
        with pytest.raises(TraceError, match="before its start"):
            tr.end(c, ts=99.0)

    def test_injected_clock_supplies_timestamps(self):
        ticks = iter([1.0, 4.0, 9.0])
        tr = Tracer(clock=lambda: next(ticks))
        with tr.span("wall") as s:
            tr.instant("mark")
        assert s.ts == 1.0 and s.dur == 8.0
        assert tr.instants[0].ts == 4.0

    def test_null_tracer_is_inert(self):
        nt = NullTracer()
        assert not nt.is_enabled and NULL_TRACER.is_enabled is False
        with nt.span("anything") as s:
            nt.record("x", 0.0, 1.0)
            nt.instant("y")
            nt.end(nt.begin("z"))
        assert s.dur == 0.0
        assert nt.spans == [] and nt.instants == []
        assert nt.closed_spans() == [] and nt.open_spans() == []


# -- metrics ----------------------------------------------------------------


class TestMetricsProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_counter_is_monotone(self, increments):
        c = MetricsRegistry().counter("work")
        seen = [c.value]
        for inc in increments:
            c.inc(inc)
            seen.append(c.value)
        assert all(b >= a for a, b in zip(seen, seen[1:]))
        assert c.value == pytest.approx(sum(increments))

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("work")
        with pytest.raises(MetricsError):
            c.inc(-1.0)

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), unique=True,
                 min_size=1, max_size=6),
        st.lists(st.floats(min_value=-100, max_value=100,
                           allow_nan=False), max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_histogram_conserves_observations(self, edges, observations):
        edges = sorted(float(e) for e in edges)
        h = Histogram(name="h", edges=tuple(edges))
        for x in observations:
            h.observe(x)
        assert sum(h.counts) == h.count == len(observations)
        assert h.total == pytest.approx(sum(observations))
        # independent bucketing: count per bucket matches bisect_right
        import bisect
        expected = [0] * (len(edges) + 1)
        for x in observations:
            expected[bisect.bisect_right(edges, x)] += 1
        assert list(h.counts) == expected

    def test_histogram_requires_increasing_edges(self):
        with pytest.raises(MetricsError):
            Histogram(name="h", edges=(1.0, 1.0))

    def test_registry_get_or_create_identity(self):
        m = MetricsRegistry()
        assert m.counter("a") is m.counter("a")
        assert m.gauge("g") is m.gauge("g")
        assert m.histogram("h", (1.0, 2.0)) is m.histogram("h")
        m.gauge("g").set(4.5)
        d = m.to_dict()
        assert d["gauges"]["g"] == 4.5


# -- export / reports -------------------------------------------------------


class TestExport:
    def test_lane_assignment_is_deterministic_with_metadata(self):
        tr = Tracer()
        tr.record("a", 0.0, 1.0, pid="alpha", tid="x")
        tr.record("b", 0.0, 1.0, pid="beta", tid="y")
        events = merged_trace_events(tr)
        meta = {(e["name"], e["args"]["name"]): e for e in events
                if e["ph"] == "M"}
        assert ("process_name", "alpha") in meta
        assert ("process_name", "beta") in meta
        assert meta[("process_name", "alpha")]["pid"] == 1
        assert meta[("process_name", "beta")]["pid"] == 2

    def test_open_spans_are_excluded(self):
        tr = Tracer()
        tr.begin("never-ends")
        assert [e for e in merged_trace_events(tr) if e["ph"] == "X"] == []

    def test_counters_become_counter_events(self):
        tr = Tracer()
        tr.record("op", 0.0, 2.0)
        tr.metrics.counter("ops").inc(7)
        events = merged_trace_events(tr)
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 1
        assert counters[0]["name"] == "ops"
        assert counters[0]["args"]["value"] == 7

    def test_device_launches_merge_into_gpu_lane(self):
        from repro.similarity.gemmtally import gemmtally_kernel_specs

        device = Device(FRONTIER.node.gpu)
        for spec in gemmtally_kernel_specs(32, 256):
            device.launch_sync(spec)
        tr = Tracer()
        tr.record("host-op", 0.0, 1.0)
        data = validate_chrome_trace(export_chrome_trace(tr, [device]))
        gpu_events = [e for e in data["traceEvents"]
                      if e.get("cat") == "gpu" and e["ph"] == "X"]
        assert len(gpu_events) == 2
        assert subsystems_in_trace(data) >= {"repro", "gpu"}

    def test_validate_rejects_malformed_documents(self):
        with pytest.raises(TraceFormatError, match="traceEvents"):
            validate_chrome_trace("{}")
        bad = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0.0}]}
        with pytest.raises(TraceFormatError, match="no dur"):
            validate_chrome_trace(bad)
        bad = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0.0, "dur": -1.0}]}
        with pytest.raises(TraceFormatError, match="negative"):
            validate_chrome_trace(bad)
        bad = {"traceEvents": [{"ph": "X", "ts": 0.0, "dur": 1.0}]}
        with pytest.raises(TraceFormatError, match="no name"):
            validate_chrome_trace(bad)

    def test_hot_spans_and_metrics_reports(self):
        tr = Tracer()
        tr.record("hot", 0.0, 10.0)
        tr.record("hot", 10.0, 20.0)
        tr.record("cold", 0.0, 1.0)
        tr.metrics.counter("n").inc(3)
        tr.metrics.gauge("g").set(2.0)
        tr.metrics.histogram("h", (1.0,)).observe(0.5)
        summaries = summarize_spans(tr)
        assert summaries[0].name == "hot"
        assert summaries[0].count == 2
        assert summaries[0].total == pytest.approx(30.0)
        assert summaries[0].mean == pytest.approx(15.0)
        report = hot_spans_report(tr)
        assert "hot" in report and "cold" in report
        mreport = metrics_report(tr.metrics)
        assert "counter" in mreport and "histogram" in mreport


# -- acceptance: one merged trace across the whole stack --------------------


class TestMergedCampaignTrace:
    def test_fault_injected_figure2_trace_covers_four_subsystems(self):
        from repro.experiments.figure2 import run_figure2_resilient

        tr = Tracer()
        device = Device(FRONTIER.node.gpu)
        result = run_figure2_resilient(nsteps=6, checkpoint_interval=2,
                                       ncells=8, tracer=tr, device=device)
        assert all(result.checks().values()), result.checks()
        assert not tr.open_spans()
        data = validate_chrome_trace(export_chrome_trace(tr, [device]))
        assert subsystems_in_trace(data) >= {
            "mpisim", "resilience", "ode", "gpu"}
        # lost work was observed, not just claimed
        counters = tr.metrics.to_dict()["counters"]
        assert counters["resilience.recoveries"] >= 1
        assert counters["resilience.lost_work_seconds"] > 0
        assert counters["ode.lu_reuse_hits"] > 0


# -- differential: tracing is observation-only ------------------------------


class TestTracingIsObservationOnly:
    def test_resilient_campaign_demo_bit_identical_traced_vs_untraced(
            self, tmp_path):
        import importlib
        import io
        import sys
        from contextlib import redirect_stdout
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples"
        sys.path.insert(0, str(examples))
        try:
            demo = importlib.import_module("resilient_campaign")
            trace_path = tmp_path / "demo.json"
            with redirect_stdout(io.StringIO()):
                bare = demo.main(fast=True)
                traced = demo.main(fast=True, trace=str(trace_path))
        finally:
            sys.path.remove(str(examples))

        assert np.array_equal(bare["pos"], traced["pos"])
        assert np.array_equal(bare["vel"], traced["vel"])
        for key in ("steps_done", "events_drawn", "events_fired",
                    "events_requeued_pending", "recoveries",
                    "failures_by_kind", "shrink_recoveries",
                    "fig2_bit_identical"):
            assert bare[key] == traced[key], key
        # and the side artifact is a valid multi-subsystem trace
        data = validate_chrome_trace(trace_path.read_text())
        assert len(subsystems_in_trace(data)) >= 4
