"""Tests for the full-machine scaling experiments (repro.experiments.scaling)."""

import numpy as np
import pytest

from repro.experiments.scaling import (
    DEFAULT_NODE_COUNTS,
    QUICK_STRONG_NODE_COUNTS,
    QUICK_WEAK_NODE_COUNTS,
    WORKLOADS,
    CometWeakScaling,
    GamessStrongScaling,
    PeleWeakScaling,
    check_validation,
    comet_full_machine_exaflops,
    gamess_full_machine_efficiency,
    pele_full_machine_weak_scaling,
    render_validation,
    strong_scaling_curve,
    validate_exemplar_vs_full,
    weak_scaling_curve,
)
from repro.mpisim.partition import _partition_for_shape
from repro.observability.tracer import Tracer


class TestWorkloadPlumbing:
    def test_registry(self):
        assert set(WORKLOADS) == {"comet", "pele", "gamess"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            CometWeakScaling().build_comm(1, mode="warp")

    def test_comet_partition_is_tiny(self):
        part = CometWeakScaling().build_partition(9074)
        assert part.nranks == 72592
        assert part.nlive == 6

    def test_pele_partition_bounded_by_27(self):
        part = PeleWeakScaling().build_partition(4096)
        assert part.nranks == 32768
        assert part.nlive <= 27

    def test_gamess_partition_two_classes(self):
        part = GamessStrongScaling().build_partition(2048)
        assert part.nlive == 2

    def test_gamess_task_count(self):
        w = GamessStrongScaling()
        assert w.n_tasks == 437_580  # 935 monomers + 436,645 dimer pairs


class TestDifferential:
    """Exemplar-vs-full at live-feasible sizes: the tentpole's contract."""

    @pytest.mark.parametrize("app", sorted(WORKLOADS))
    def test_exemplar_within_tolerance(self, app):
        points = validate_exemplar_vs_full(WORKLOADS[app](),
                                           node_counts=(1, 2, 8), steps=2)
        check_validation(points)
        assert all(p.rel_error <= 1e-9 for p in points)

    def test_check_raises_on_divergence(self):
        points = validate_exemplar_vs_full(GamessStrongScaling(),
                                           node_counts=(1,), steps=1)
        bad = type(points[0])(**{**points[0].__dict__,
                                 "scaled_time": points[0].live_time * 2})
        with pytest.raises(ValueError, match="exemplar mode off"):
            check_validation([bad])

    def test_render(self):
        points = validate_exemplar_vs_full(CometWeakScaling(),
                                           node_counts=(1,), steps=1)
        text = render_validation(points)
        assert "Rel err" in text and "comet" in text
        assert "R=P" not in text


class TestCurves:
    def test_weak_curve_reaches_machine_size(self):
        curve = weak_scaling_curve(CometWeakScaling(),
                                   node_counts=QUICK_WEAK_NODE_COUNTS)
        assert curve.points[-1].nodes == 9074
        assert curve.points[-1].ranks == 72592
        assert curve.points[-1].live_ranks == 6
        # §3.6: near-perfect weak scaling, 6.71 EF headline
        assert curve.efficiency_at(9074) >= 0.99
        assert curve.points[-1].metric == pytest.approx(6.71, rel=0.25)

    def test_default_sweep_is_ten_points(self):
        assert len(DEFAULT_NODE_COUNTS) == 10
        assert DEFAULT_NODE_COUNTS[0] == 8
        assert DEFAULT_NODE_COUNTS[-1] == 9074

    def test_pele_weak_curve(self):
        curve = weak_scaling_curve(PeleWeakScaling(),
                                   node_counts=(1, 64, 4096))
        assert curve.efficiency_at(4096) >= 0.8  # §3.8
        assert curve.points[-1].live_ranks <= 27

    def test_gamess_strong_curve(self):
        curve = strong_scaling_curve(GamessStrongScaling(),
                                     node_counts=QUICK_STRONG_NODE_COUNTS)
        assert curve.points[-1].nodes == 2048
        assert curve.efficiency_at(2048) >= 0.95  # §3.1 near-ideal
        # strong scaling: step time must actually shrink with nodes
        times = [p.step_time for p in curve.points]
        assert times == sorted(times, reverse=True)

    def test_curve_same_with_cold_and_warm_partition_cache(self):
        _partition_for_shape.cache_clear()
        cold = weak_scaling_curve(CometWeakScaling(), (8, 16, 1024))
        warm = weak_scaling_curve(CometWeakScaling(), (8, 16, 1024))
        assert cold == warm

    def test_efficiency_at_missing_point(self):
        curve = weak_scaling_curve(CometWeakScaling(), node_counts=(1, 2))
        with pytest.raises(KeyError):
            curve.efficiency_at(9074)

    def test_render(self):
        curve = weak_scaling_curve(CometWeakScaling(), node_counts=(1, 2))
        text = curve.render()
        assert "Efficiency" in text and "EF" in text

    def test_traces_stay_group_sized(self):
        """A full-machine sweep's trace is O(R), not O(P)."""
        tracer = Tracer()
        w = PeleWeakScaling()
        comm = w.build_comm(4096, mode="scaled", tracer=tracer)
        w.run(comm, 4096, steps=2)
        assert comm.machine_ranks == 32768
        assert len(tracer.spans) < 50


class TestFullMachineClaims:
    def test_comet_exaflops(self):
        assert comet_full_machine_exaflops() == pytest.approx(6.71, rel=0.25)

    def test_pele_weak_scaling(self):
        assert pele_full_machine_weak_scaling() >= 0.8

    def test_gamess_efficiency(self):
        assert gamess_full_machine_efficiency() >= 0.95

    def test_claims_registered_in_intext(self):
        from repro.experiments.intext import ALL_CLAIMS

        scaled = [c for c in ALL_CLAIMS if "ScaledComm" in c.description]
        assert len(scaled) == 3
        for claim in scaled:
            assert claim.evaluate().ok
