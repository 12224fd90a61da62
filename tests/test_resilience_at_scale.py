"""Machine-scale resilience: fault matrix, R=P differential, Daly sweep.

The acceptance tests for fault campaigns on representative-rank
communicators: every fault kind lands on both exemplar and modelled
targets, fault campaigns on a communicator given the all-live partition
explicitly are bit-identical to the default one under the same seed, and
the measured optimal checkpoint interval at 4,096+ nodes agrees with
Young/Daly within 2x.
"""

import numpy as np
import pytest

from repro.apps.exasky import ExaskyCampaign
from repro.gpu.device import Device
from repro.hardware.catalog import FRONTIER
from repro.hardware.gpu import MI250X_GCD
from repro.hardware.interconnect import SLINGSHOT_11
from repro.mpisim import (
    CommError,
    RankGroupPartitioner,
    SimComm,
    all_live_partition,
)
from repro.mpisim.decomposition import DecompositionError
from repro.mpisim.partition import _partition_for_shape
from repro.resilience import (
    CheckpointCostModel,
    DeviceOomFault,
    FaultEvent,
    FaultInjector,
    FaultKind,
    RankFailureFault,
    ResilientRunner,
    make_policy,
    plan_shrink,
    redistribute,
    scaled_fault_injector,
)
from repro.experiments.resilience_at_scale import (
    run_daly_sweep,
    run_overhead_curve,
)


@pytest.fixture
def scaled16():
    """16 machine ranks, 3 exemplars (reps 0, 1, 15)."""
    part = RankGroupPartitioner("endpoints").partition(16)
    return SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                   device_buffers=True, partition=part)


def _injector(**mtbf):
    return FaultInjector(rng=np.random.default_rng(0),
                         mtbf={FaultKind(k): v for k, v in mtbf.items()})


# -- fault matrix: every kind x {exemplar, modelled} target -------------------


class TestScaledFaultMatrix:
    # rank 0 is an exemplar, rank 5 a modelled interior rank
    @pytest.mark.parametrize("target", [0, 5], ids=["exemplar", "modelled"])
    def test_rank_failure(self, scaled16, target):
        inj = _injector(rank_failure=1.0)
        event = FaultEvent(time=1.0, kind=FaultKind.RANK_FAILURE,
                           target=target)
        with pytest.raises(RankFailureFault):
            inj.fire(event, comm=scaled16)
        assert scaled16.failed_ranks() == [target]
        assert scaled16.machine_alive_count == 15
        inj.clear(comm=scaled16)
        assert scaled16.failed_ranks() == []
        assert scaled16.machine_alive_count == 16

    @pytest.mark.parametrize("target", [0, 5], ids=["exemplar", "modelled"])
    def test_device_oom(self, scaled16, target):
        inj = _injector(device_oom=1.0)
        device = Device(MI250X_GCD)
        event = FaultEvent(time=1.0, kind=FaultKind.DEVICE_OOM,
                           target=target)
        with pytest.raises(DeviceOomFault):
            inj.fire(event, comm=scaled16, device=device)
        with pytest.raises(Exception):
            device.malloc(64, tag="post-oom")
        inj.clear(comm=scaled16, device=device)
        device.free(device.malloc(64, tag="recovered"))

    @pytest.mark.parametrize("target", [0, 5], ids=["exemplar", "modelled"])
    def test_link_degradation_hits_cached_link(self, scaled16, target):
        baseline = scaled16.elapsed
        scaled16.allreduce([0.0] * 3, 1 << 20)
        baseline = scaled16.elapsed - baseline
        inj = _injector(link_degradation=1.0)
        event = FaultEvent(time=0.0, kind=FaultKind.LINK_DEGRADATION,
                           target=target, slowdown=4.0, duration=1.0e4)
        inj.fire(event, comm=scaled16)  # non-fatal: returns
        t0 = scaled16.elapsed
        scaled16.allreduce([0.0] * 3, 1 << 20)
        degraded = scaled16.elapsed - t0
        # the cached internode link must not serve pre-fault bandwidth
        assert degraded > 1.5 * baseline
        scaled16.advance_all(2.0e4)  # ride past the window
        t0 = scaled16.elapsed
        scaled16.allreduce([0.0] * 3, 1 << 20)
        assert scaled16.elapsed - t0 == pytest.approx(baseline)

    @pytest.mark.parametrize("target", [0, 5], ids=["exemplar", "modelled"])
    def test_sdc(self, scaled16, target):
        inj = _injector(sdc=1.0)
        arr = np.ones(64)
        event = FaultEvent(time=1.0, kind=FaultKind.SDC, target=target,
                           bit=52)
        inj.fire(event, comm=scaled16, arrays=[arr])
        assert len(inj.sdc_injected) == 1
        assert not np.array_equal(arr, np.ones(64))

    def test_out_of_range_machine_ranks_rejected(self, scaled16):
        with pytest.raises(CommError):
            scaled16.fail_rank(16)
        with pytest.raises(CommError):
            scaled16.restore_rank(16)
        scaled16.restore_rank(5)  # never failed: a no-op, like SimComm


class TestAllExemplarsDead:
    """Every exemplar dead, 13 modelled survivors: the survivors carry on
    on promoted exemplars."""

    def test_shrink_promotes_survivors(self, scaled16):
        scaled16.advance_all(np.array([1.0, 2.0, 3.0]))
        for rank in scaled16.representatives:  # 0, 1, 15
            scaled16.fail_rank(rank)
        assert scaled16.alive_ranks() == []
        assert scaled16.machine_alive_count == 13
        sub = scaled16.shrink()
        assert sub.machine_ranks == 13
        assert sub.parent_ranks == tuple(range(2, 15))
        assert sub.representatives == (0,)  # old rank 2, promoted
        assert sub.rank_weights.tolist() == [13]
        # the promotee starts at its dead proxy's (rank 1's) clock
        assert sub.clocks.tolist() == [2.0]

    def test_agree_priced_at_machine_survivors(self, scaled16):
        for rank in scaled16.representatives:
            scaled16.fail_rank(rank)
        acc, dead = scaled16.agree()
        assert acc is None  # no live exemplar holds survivor data
        assert dead == (0, 1, 15)
        assert scaled16.stats.collective_bytes == 8.0 * 13

    def test_shrink_policy_runner_survives(self, scaled16):
        scaled16.fail_rank(0)
        scaled16.fail_rank(1)
        injector = _injector(rank_failure=1.0e9)
        # script the next failure: the last exemplar dies early on
        first = injector.pop()
        injector.requeue(FaultEvent(time=0.01, kind=first.kind, target=15))
        runner = ResilientRunner(
            ExaskyCampaign(nparticles=64, seed=3), checkpoint_interval=4,
            injector=injector,
            cost_model=CheckpointCostModel(restart_cost=0.02),
            comm=scaled16, policy="shrink", backoff_base=0.0)
        stats = runner.run(8)
        assert stats.shrinks == 1
        assert stats.ranks_final == 13
        assert runner.comm.representatives == (0,)


# -- R=P differential: explicit all-live partition bit-identical to default ---


def _fault_campaign(comm, *, policy, seed=7, nsteps=24):
    if policy == "spare":  # default 15 s activation dwarfs this campaign
        policy = make_policy("spare", spares=8, activation_cost=0.01)
    app = ExaskyCampaign(nparticles=64, seed=3)
    injector = FaultInjector(
        rng=np.random.default_rng(seed),
        mtbf={FaultKind.RANK_FAILURE: 0.15,
              FaultKind.LINK_DEGRADATION: 0.2},
        max_target=comm.machine_ranks,
    )
    runner = ResilientRunner(
        app, checkpoint_interval=4, injector=injector,
        cost_model=CheckpointCostModel(restart_cost=0.02),
        comm=comm, policy=policy, backoff_base=0.0,
    )
    stats = runner.run(nsteps)
    return app, stats, runner.comm


class TestRankIdentityDifferential:
    @pytest.mark.parametrize("policy", ["restart", "shrink", "spare"])
    def test_bit_identical_to_simcomm(self, policy):
        sim = SimComm(8, SLINGSHOT_11, ranks_per_node=4,
                      device_buffers=True)
        scaled = SimComm(8, SLINGSHOT_11, ranks_per_node=4,
                         device_buffers=True,
                         partition=all_live_partition(8))
        app_a, stats_a, comm_a = _fault_campaign(sim, policy=policy)
        app_b, stats_b, comm_b = _fault_campaign(scaled, policy=policy)
        assert stats_a.recoveries > 0  # the campaign actually saw faults
        assert np.array_equal(app_a.pos, app_b.pos)
        assert np.array_equal(app_a.vel, app_b.vel)
        for name in ("steps_completed", "steps_replayed", "recoveries",
                     "shrinks", "spares_used", "ranks_final",
                     "wall_clock", "useful_time", "lost_work_time",
                     "recovery_time", "degraded_time", "migrated_bytes"):
            assert getattr(stats_a, name) == getattr(stats_b, name), name
        assert comm_a.machine_ranks == comm_b.machine_ranks
        assert comm_a.elapsed == comm_b.elapsed


# -- weighted-group shrink plans ---------------------------------------------


class TestWeightedShrinkPlans:
    def test_pair_of_identity_matches_dense(self):
        survivors = [r for r in range(16) if r != 5]
        dense = plan_shrink(1000, survivors, 16)
        folded = plan_shrink(1000, survivors, 16,
                             pair_of=np.arange(len(survivors)))
        assert folded.migrated_items == dense.migrated_items
        assert folded.reloaded_items == dense.reloaded_items
        assert np.array_equal(folded.send_items, dense.send_items)

    def test_folded_plan_redistributes_on_shrunk_scaledcomm(self, scaled16):
        scaled16.fail_rank(5)
        sub = scaled16.shrink()
        pair_of = sub.proxy_live_indices()
        plan = plan_shrink(4096, sub.parent_ranks, 16,
                           bytes_per_item=64.0, pair_of=pair_of)
        assert plan.new_nranks == 15  # machine-exact
        assert plan.pair_ranks == sub.nranks  # exemplar-folded matrix
        assert plan.send_items.shape == (sub.nranks, sub.nranks)
        dt = redistribute(sub, plan)
        assert dt > 0.0

    def test_plan_comm_mismatch_rejected(self, scaled16):
        scaled16.fail_rank(5)
        sub = scaled16.shrink()
        dense = plan_shrink(4096, sub.parent_ranks, 16)
        with pytest.raises(DecompositionError, match="proxy_live_indices"):
            redistribute(sub, dense)  # dense 15x15 matrix, 3-exemplar comm

    def test_pair_of_shape_validated(self):
        with pytest.raises(DecompositionError, match="pair_of"):
            plan_shrink(100, range(8), 16, pair_of=np.arange(3))


# -- machine-scale fault injector --------------------------------------------


class TestScaledFaultInjector:
    def test_targets_span_the_machine(self):
        import dataclasses
        paper = dataclasses.replace(FRONTIER, nodes=9074)
        inj = scaled_fault_injector(np.random.default_rng(0), paper)
        assert inj.max_target == 9074 * 8 == 72592
        targets = {inj.pop().target for _ in range(200)}
        assert max(targets) >= 8  # far beyond any exemplar count

    def test_mtbf_scales_with_node_count(self):
        import dataclasses
        small = dataclasses.replace(FRONTIER, nodes=1024)
        inj_small = scaled_fault_injector(np.random.default_rng(0), small)
        inj_full = scaled_fault_injector(np.random.default_rng(0), FRONTIER)
        ratio = (inj_small.mtbf[FaultKind.RANK_FAILURE]
                 / inj_full.mtbf[FaultKind.RANK_FAILURE])
        assert ratio == pytest.approx(FRONTIER.nodes / 1024)

    def test_time_compression_divides_mtbf(self):
        base = scaled_fault_injector(np.random.default_rng(0), FRONTIER)
        fast = scaled_fault_injector(np.random.default_rng(0), FRONTIER,
                                     time_compression=100.0)
        assert fast.mtbf[FaultKind.RANK_FAILURE] == pytest.approx(
            base.mtbf[FaultKind.RANK_FAILURE] / 100.0)
        with pytest.raises(ValueError, match="time_compression"):
            scaled_fault_injector(np.random.default_rng(0), FRONTIER,
                                  time_compression=0.0)


# -- the campaign service at paper-scale node counts -------------------------


class TestServiceAtScale:
    def test_campaign_comm_threshold(self):
        from repro.service.engine import SCALED_COMM_MIN_NODES, _campaign_comm

        small = _campaign_comm(SCALED_COMM_MIN_NODES - 1, SLINGSHOT_11)
        big = _campaign_comm(4096, SLINGSHOT_11)
        assert small.nranks == small.machine_ranks
        assert big.machine_ranks == 4096
        assert big.nranks < 64  # exemplars only

    def test_paper_scale_faulted_job_bit_identical(self):
        from repro.service.engine import execute_campaign
        from repro.service.job import Job, JobTemplate

        template = JobTemplate(
            name="hacc-4096", nodes=4096, nsteps=24, est_step_cost=0.01,
            make_app=lambda seed: ExaskyCampaign(nparticles=64, seed=seed))

        def fresh():
            return Job(job_id=1, tenant="cosmo", template=template,
                       app_seed=5, submit_time=0.0)

        faulted, checksum = execute_campaign(
            fresh(), FRONTIER, seed=11,
            fault_mtbf={FaultKind.RANK_FAILURE: 0.05},
            policy="shrink", backoff_base=0.0, max_retries=32)
        assert faulted.recoveries > 0
        assert faulted.ranks_initial == 4096
        assert faulted.ranks_final < 4096  # shrunk mid-campaign, kept going
        clean, clean_checksum = execute_campaign(fresh(), FRONTIER, seed=11)
        assert clean.recoveries == 0
        assert checksum == clean_checksum  # same bits despite the failures


# -- Daly validation at machine scale ----------------------------------------


class TestDalyAtScale:
    def test_measured_optimum_within_2x(self):
        result = run_daly_sweep(nodes=4096, seeds=(0, 1), nsteps=128)
        assert result.machine_ranks == 4096 * 8
        assert all(result.checks().values()), result.checks()
        assert result.daly_agreement_factor <= 2.0 + 1e-9

    def test_overhead_grows_with_node_count(self):
        result = run_overhead_curve(seeds=(0, 1), nsteps=96)
        assert all(result.checks().values()), result.checks()
        assert result.points[-1].machine_ranks == 9074 * 8

    def test_sweep_is_deterministic(self):
        a = run_daly_sweep(nodes=4096, seeds=(0,), nsteps=64)
        b = run_daly_sweep(nodes=4096, seeds=(0,), nsteps=64)
        assert a == b

    def test_sweep_same_with_cold_and_warm_partition_cache(self):
        _partition_for_shape.cache_clear()
        cold = run_daly_sweep(nodes=64, seeds=(0, 1), nsteps=32)
        warm = run_daly_sweep(nodes=64, seeds=(0, 1), nsteps=32)
        assert cold == warm
