"""Traced-run instrumentation: one span per call into each ``repro`` layer.

Nothing under ``src/`` changes.  :class:`Instrumentation` wraps the
public functions named in :data:`TARGETS` for the duration of the traced
units, records ``(name, start, end, parent)`` spans in memory on the
wall clock, and restores every original on exit.  A layer's self time is
its span time minus its child spans (``stats.self_times``).

Targets are ``module:attr`` or ``module:Class.method`` paths.  A
module-level function is replaced in every loaded ``repro`` module that
imported it by name, so call sites that did ``from x import f`` are
traced too.  A path that no longer resolves (a layer was moved or
renamed) is counted in ``trace.missing_targets`` and listed in the
report; it never fails the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from stats import self_times

#: the root span around each timed unit; its self time is spent in the
#: benchmark loop, outside every layer
UNIT_SPAN = "bench.unit"


class SpanRecorder:
    """In-memory span store plus per-layer work counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             hook: Callable | None = None):
        stack = self.stack
        if not stack and name != UNIT_SPAN:
            return fn(*args, **kwargs)  # outside a timed unit: not traced
        if stack and self.spans[stack[-1]][0] == name:
            # a layer re-entering itself (an override calling super())
            # stays one span, so its calls are counted once
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            stack.pop()
        if hook is not None:
            hook(self.counters, args, result)
        return result

    def self_times(self) -> dict[str, tuple[int, float]]:
        return self_times(self.spans)


# -- counters read at the layer boundary ---------------------------------------


def _ode_stats(c, args, result) -> None:
    st = result.stats
    for f in ("step_rounds", "rhs_sweeps", "newton_iters", "jac_builds",
              "cells_refactored", "steps", "error_test_failures",
              "newton_failures"):
        c[f"ode.{f}"] += getattr(st, f)


def _inv_flops(c, args, result) -> None:
    b, n, _ = args[1].shape  # LU (2n³/3) + triangular inversion (4n³/3)
    c["linalg.factor.flops_computed"] += 2.0 * n ** 3 * b


def _lu_flops(c, args, result) -> None:
    b, n, _ = args[1].shape
    c["linalg.factor.flops_computed"] += 2.0 / 3.0 * n ** 3 * b


def _service_counts(c, args, result) -> None:
    c["service.jobs_started"] += result.metrics.counter(
        "service.jobs_started").value
    c["service.requeues"] += result.requeues
    c["service.spare_denials"] += result.pool.spares.denials


def _resilience_stats(c, args, result) -> None:
    c["resilience.recoveries"] += result.recoveries
    c["resilience.steps_completed"] += result.steps_completed
    c["resilience.steps_replayed"] += result.steps_replayed


def _encode_bytes(c, args, result) -> None:
    c["resilience.encode.bytes"] += len(result)


def _pack_bytes(c, args, result) -> None:
    c["similarity.bytes_computed"] += (getattr(args[0], "nbytes", 0)
                                       + result.words.nbytes)


def _count_bytes(c, args, result) -> None:
    c["similarity.bytes_computed"] += args[0].words.nbytes + result.nbytes


@dataclass(frozen=True)
class Target:
    """One wrap point: calls to *path* become spans named *layer*.

    With *field*, *path* is a factory whose result is a dataclass; the
    callable in that field is wrapped instead of the factory itself.
    """

    layer: str
    path: str
    hook: Callable | None = None
    field: str | None = None


_COMM = "repro.mpisim.comm:SimComm"
_SCALED = "repro.mpisim.scaled:ScaledComm"
_PART = "repro.mpisim.partition"
_BE = "repro.backend.numpy_backend"
_GT = "repro.similarity.gemmtally"

TARGETS: tuple[Target, ...] = (
    # fig2_chem: ode / chem / linalg under the Pele chemistry entry point
    Target("apps.pele.chemistry", "repro.apps.pele:integrate_chemistry_batched"),
    Target("ode.integrate", "repro.ode.batched:BatchedBdfIntegrator.integrate",
           _ode_stats),
    Target("chem.rates", "repro.backend.base:FusedRatesKernel.rate_constants"),
    Target("chem.rates", f"{_BE}:_NumpyRates.wdot"),
    Target("chem.jacobian", "repro.chem.codegen:compile_batched_kernels",
           field="jacobian"),
    Target("linalg.factor", f"{_BE}:NumpyBackend.inv", _inv_flops),
    Target("linalg.factor", f"{_BE}:NumpyBackend.lu_factor", _lu_flops),
    Target("linalg.apply", f"{_BE}:NumpyBackend.inv_apply"),
    Target("linalg.apply", f"{_BE}:NumpyBackend.lu_solve"),
    # service_soak
    Target("service.run", "repro.service.engine:CampaignService.run",
           _service_counts),
    Target("service.plan", "repro.service.scheduler:EasyBackfillScheduler.plan"),
    Target("service.execute", "repro.service.engine:execute_campaign"),
    Target("gpu.time_kernel", "repro.gpu.perfmodel:time_kernel"),
    Target("apps.exasky.init", "repro.apps.exasky:ExaskyCampaign.__init__"),
    Target("apps.exasky.step", "repro.apps.exasky:ExaskyCampaign.step"),
    # resilience: checkpoint writes on service_soak, faults and restores
    # on machine_resilience
    Target("resilience.run", "repro.resilience.runner:ResilientRunner.run",
           _resilience_stats),
    Target("resilience.encode", "repro.resilience.snapshot:encode_snapshot",
           _encode_bytes),
    Target("resilience.decode", "repro.resilience.snapshot:decode_snapshot"),
    Target("resilience.fire", "repro.resilience.faults:FaultInjector.fire"),
    # machine_resilience: the representative-rank engine
    Target("experiments.daly_sweep",
           "repro.experiments.resilience_at_scale:run_daly_sweep"),
    Target("experiments.scaling_curve",
           "repro.experiments.scaling:weak_scaling_curve"),
    Target("mpisim.comm_init", f"{_COMM}.__init__"),
    Target("mpisim.comm_init", f"{_SCALED}.__init__"),
    Target("mpisim.comm_init", f"{_COMM}.shrink"),
    Target("mpisim.comm_init", f"{_SCALED}.shrink"),
    Target("mpisim.comm_init", f"{_COMM}.split"),
    Target("mpisim.comm_init", f"{_SCALED}.split"),
    Target("mpisim.partition", f"{_PART}:RankGroupPartitioner.partition"),
    Target("mpisim.partition", f"{_PART}:partition_from_labels"),
    Target("mpisim.partition", f"{_PART}:all_live_partition"),
    Target("mpisim.partition", f"{_PART}:verify_assignments"),
    Target("mpisim.proxy_map", f"{_PART}:RankGroup.proxy_assignment"),
    Target("mpisim.proxy_map", f"{_PART}:RankGroup.proxy_counts"),
    Target("mpisim.proxy_map", f"{_SCALED}.proxy_live_indices"),
    Target("mpisim.fail_rank", f"{_COMM}.fail_rank"),
    Target("mpisim.fail_rank", f"{_SCALED}.fail_rank"),
    Target("mpisim.fail_rank", f"{_COMM}.restore_rank"),
    Target("mpisim.fail_rank", f"{_SCALED}.restore_rank"),
    *(Target("mpisim.collective", f"{_COMM}.{op}")
      for op in ("bcast", "reduce", "allreduce", "reduce_scatter",
                 "allgather", "gather", "scatter", "alltoall", "ialltoall",
                 "alltoallv", "barrier", "agree", "neighbor_exchange",
                 "ineighbor_exchange")),
    *(Target("mpisim.collective", f"{_SCALED}.{op}")
      for op in ("reduce", "allreduce", "reduce_scatter", "alltoall",
                 "ialltoall", "alltoallv", "agree", "ineighbor_exchange")),
    Target("mpisim.p2p", f"{_COMM}.sendrecv"),
    Target("mpisim.p2p", f"{_COMM}.isendrecv"),
    # comet_tally
    Target("similarity.tally", f"{_GT}:tally_2way"),
    Target("similarity.tally", f"{_GT}:tally_3way"),
    Target("similarity.pack", f"{_GT}:pack_alleles", _pack_bytes),
    Target("similarity.count2", f"{_GT}:popcount_tallies_2way", _count_bytes),
    Target("similarity.count3", f"{_GT}:popcount_tallies_3way", _count_bytes),
)

#: every layer that gets ``.calls`` and ``.self_s`` metrics, in table order
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS))

#: derived counters: (metric, unit), all per timed unit
COUNTER_METRICS: tuple[tuple[str, str], ...] = (
    ("ode.step_rounds", "count"),
    ("ode.rhs_sweeps", "count"),
    ("ode.newton_iters", "count"),
    ("ode.jac_builds", "count"),
    ("ode.cells_refactored", "count"),
    ("ode.accept_ratio", "ratio"),
    ("linalg.factor.flops_computed", "flop"),
    ("service.jobs_started", "count"),
    ("service.requeues", "count"),
    ("service.spare_denials", "count"),
    ("resilience.encode.bytes", "B"),
    ("resilience.recoveries", "count"),
    ("resilience.useful_ratio", "ratio"),
    ("similarity.bytes_computed", "B"),
)

#: metrics describing the set-up and the traced run itself
RUN_METRICS: tuple[tuple[str, str], ...] = (
    ("setup.import_s", "s"),
    ("setup.warm_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.missing_targets", "count"),
    ("host.slowdown", "x"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every ``--trace 1`` metric as ``(name, unit)``, in report order."""
    out = []
    for layer in LAYER_NAMES:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    return out + list(COUNTER_METRICS) + list(RUN_METRICS)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_values(rec: SpanRecorder, units: int) -> dict[str, float]:
    """Per-unit layer calls/self time and counters from a traced run,
    plus ``trace.coverage`` (share of unit wall time inside layer spans).
    """
    st = rec.self_times()
    out: dict[str, float] = {}
    for layer in LAYER_NAMES:
        calls, self_s = st.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls / units
        out[f"{layer}.self_s"] = self_s / units
    c = rec.counters
    for name, _ in COUNTER_METRICS:
        out[name] = c.get(name, 0.0) / units
    out["ode.accept_ratio"] = _ratio(
        c["ode.steps"],
        c["ode.steps"] + c["ode.error_test_failures"] + c["ode.newton_failures"])
    out["resilience.useful_ratio"] = _ratio(
        c["resilience.steps_completed"],
        c["resilience.steps_completed"] + c["resilience.steps_replayed"])
    wall = sum(s[2] - s[1] for s in rec.spans if s[0] == UNIT_SPAN)
    _, loop_self = st.get(UNIT_SPAN, (0, 0.0))
    out["trace.coverage"] = _ratio(wall - loop_self, wall)
    return out


# -- installing and removing the wrappers --------------------------------------


def _span_wrapper(rec: SpanRecorder, layer: str, fn: Callable,
                  hook: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(layer, fn, args, kwargs, hook)
    return traced


def _field_wrapper(rec: SpanRecorder, layer: str, factory: Callable,
                   field: str) -> Callable:
    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        out = factory(*args, **kwargs)
        fn = getattr(out, field)
        return dataclasses.replace(
            out, **{field: _span_wrapper(rec, layer, fn, None)})
    return traced_factory


def _resolve(path: str):
    """``(owner, attr, function)`` for *path*, or None if it is gone."""
    modname, _, qual = path.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *owners, attr = qual.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    if not isinstance(fn, types.FunctionType):
        return None
    return owner, attr, fn


class Instrumentation:
    """Installs :data:`TARGETS` as span wrappers; a context manager."""

    def __init__(self, rec: SpanRecorder,
                 targets: tuple[Target, ...] = TARGETS) -> None:
        self.rec = rec
        self.targets = targets
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        for t in self.targets:
            found = _resolve(t.path)
            if found is None:
                self.missing.append(t.path)
                continue
            owner, attr, fn = found
            if t.field is not None:
                wrapped = _field_wrapper(self.rec, t.layer, fn, t.field)
            else:
                wrapped = _span_wrapper(self.rec, t.layer, fn, t.hook)
            self._replace(owner, attr, fn, wrapped)
        return self

    def _replace(self, owner, attr: str, fn, wrapped) -> None:
        sites = [(owner, attr)]
        if isinstance(owner, types.ModuleType):
            # call sites that imported the function by name
            for name, mod in list(sys.modules.items()):
                if mod is owner or not (name == "repro"
                                        or name.startswith("repro.")):
                    continue
                sites += [(mod, k) for k, v in list(vars(mod).items())
                          if v is fn]
        for obj, key in sites:
            self._undo.append((obj, key, fn))
            setattr(obj, key, wrapped)

    def __exit__(self, *exc) -> None:
        for obj, key, fn in reversed(self._undo):
            setattr(obj, key, fn)
        self._undo.clear()
