"""Tests for the representative-rank engine: partitioning + SimComm(partition=…)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.interconnect import SLINGSHOT_11
from repro.mpisim import (
    BlockDecomposition,
    CommError,
    CommStats,
    PartitionError,
    RankFailedError,
    RankGroup,
    RankGroupPartitioner,
    RankPartition,
    SimComm,
    Topology,
    all_live_partition,
    alltoall_time,
    balanced_block_grid,
    partition_from_labels,
    verify_assignments,
)
from repro.mpisim.partition import _partition_for_shape
from repro.observability.tracer import Tracer


# -- partition layer ------------------------------------------------------------


class TestRankGroup:
    def test_proxy_assignment_round_robin(self):
        g = RankGroup("g", members=(0, 1, 2, 3, 4, 5), representatives=(0, 3))
        assert g.proxy_assignment() == {1: 0, 2: 3, 4: 0, 5: 3}
        assert g.proxy_counts() == {0: 2, 3: 2}
        assert g.modeled_count == 4

    def test_all_live_group_has_no_proxies(self):
        g = RankGroup("g", members=(0, 1), representatives=(0, 1))
        assert g.proxy_assignment() == {}
        assert g.proxy_counts() == {0: 0, 1: 0}


def _reference_proxy_assignment(group):
    """The original per-member definition of a group's proxies."""
    reps = group.representatives
    rep_set = set(reps)
    modeled = [m for m in group.members if m not in rep_set]
    return {m: reps[i % len(reps)] for i, m in enumerate(modeled)}


@st.composite
def _hand_built_partitions(draw):
    """Groups over a shuffled machine: unsorted members, representatives
    drawn from anywhere in member order, one or several per group."""
    nranks = draw(st.integers(1, 40))
    order = draw(st.permutations(range(nranks)))
    cuts = sorted(draw(st.sets(st.integers(1, max(nranks - 1, 1)),
                               max_size=4)) - {nranks})
    groups = []
    for gi, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, nranks])):
        members = tuple(order[lo:hi])
        picks = draw(st.lists(st.integers(0, len(members) - 1), min_size=1,
                              max_size=len(members), unique=True))
        groups.append(RankGroup(f"g{gi}", members,
                                tuple(members[k] for k in picks)))
    return RankPartition(nranks, tuple(groups))


class TestProxyLookup:
    @settings(max_examples=60, deadline=None)
    @given(_hand_built_partitions())
    def test_matches_round_robin_reference(self, part):
        comm = SimComm(part.nranks, SLINGSHOT_11, partition=part)
        pair_of = comm.proxy_live_indices()
        for g in part.groups:
            ref = _reference_proxy_assignment(g)
            assert g.proxy_assignment() == ref
            for m in g.members:
                assert g.proxy_of(m) == ref.get(m, m)
                assert pair_of[m] == part.live_index[ref.get(m, m)]
            mirrors = Counter(ref.values())
            assert g.proxy_counts() == {r: mirrors[r]
                                        for r in g.representatives}

    def test_non_member_rejected(self):
        g = RankGroup("g", members=(4, 2, 6), representatives=(6,))
        with pytest.raises(KeyError):
            g.proxy_of(3)


class TestVerifyAssignments:
    def test_valid_partition_passes(self):
        p = RankPartition(4, (RankGroup("a", (0, 1), (0,)),
                              RankGroup("b", (2, 3), (2, 3))))
        assert p.live_ranks == (0, 2, 3)
        assert p.modeled_count == 1
        assert list(p.weights) == [2, 1, 1]

    def test_uncovered_rank_rejected(self):
        with pytest.raises(PartitionError, match="not assigned"):
            RankPartition(3, (RankGroup("a", (0, 1), (0,)),))

    def test_double_coverage_rejected(self):
        with pytest.raises(PartitionError, match="multiple groups"):
            RankPartition(2, (RankGroup("a", (0, 1), (0,)),
                              RankGroup("b", (1,), (1,))))

    def test_representative_outside_members_rejected(self):
        with pytest.raises(PartitionError, match="outside its members"):
            RankPartition(2, (RankGroup("a", (0,), (0,)),
                              RankGroup("b", (1,), (0,))))

    def test_no_representatives_rejected(self):
        with pytest.raises(PartitionError, match="no representatives"):
            RankPartition(2, (RankGroup("a", (0, 1), ()),))

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitionError, match="out-of-range"):
            RankPartition(2, (RankGroup("a", (0, 5), (0,)),))

    def test_verify_is_callable_directly(self):
        p = all_live_partition(3)
        verify_assignments(p)  # no raise


class TestPartitioners:
    def test_all_live_partition(self):
        p = all_live_partition(5)
        assert p.nlive == 5
        assert p.modeled_count == 0

    def test_partition_from_labels(self):
        p = partition_from_labels(["a", "b", "a", "b", "a"])
        assert p.nlive == 2
        assert p.live_ranks == (0, 1)
        assert p.modeled_count == 3

    def test_endpoints_strategy(self):
        p = RankGroupPartitioner("endpoints").partition(16)
        names = {g.name for g in p.groups}
        assert names == {"first", "last", "interior"}
        assert p.nlive == 3

    def test_node_role_strategy(self):
        p = RankGroupPartitioner("node-role").partition(64, ranks_per_node=8)
        assert p.nlive == 6  # first/mid/last node x leader/follower
        assert p.nranks == 64

    def test_block3d_strategy_interior_classes(self):
        grid = balanced_block_grid(64)
        dec = BlockDecomposition(nx=grid[0], ny=grid[1], nz=grid[2],
                                 px=grid[0], py=grid[1], pz=grid[2])
        p = RankGroupPartitioner("block3d").partition(64, decomposition=dec)
        assert p.nlive <= 27
        assert p.nranks == 64

    def test_block3d_needs_matching_decomposition(self):
        dec = BlockDecomposition(nx=2, ny=2, nz=2, px=2, py=2, pz=2)
        with pytest.raises(PartitionError, match="communicator has"):
            RankGroupPartitioner("block3d").partition(16, decomposition=dec)

    def test_auto_prefers_decomposition(self):
        dec = BlockDecomposition(nx=2, ny=2, nz=2, px=2, py=2, pz=2)
        p = RankGroupPartitioner().partition(8, decomposition=dec)
        assert len(p.groups) == 8  # every corner is its own class

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PartitionError, match="unknown strategy"):
            RankGroupPartitioner("magic")


def _reference_labels(strategy, nranks, ranks_per_node):
    """The per-rank string labels the class-coded strategies replace."""
    if strategy == "endpoints":
        labels = np.full(nranks, "interior", dtype="<U8")
        labels[-1] = "last"
        labels[0] = "first"
        return labels
    ranks = np.arange(nranks, dtype=np.int64)
    node = ranks // ranks_per_node
    last_node = (nranks - 1) // ranks_per_node
    pos = np.where(node == 0, 0, np.where(node == last_node, 2, 1))
    leader = (ranks % ranks_per_node == 0)
    lut = np.array([f"{p}-{r}" for p in ("first", "mid", "last")
                    for r in ("leader", "follower")])
    return lut[pos * 2 + np.where(leader, 0, 1)]


class TestSharedPartitions:
    @pytest.mark.parametrize("strategy", ["endpoints", "node-role"])
    @pytest.mark.parametrize("nranks", [1, 2, 3, 7, 9, 17, 32768, 72592])
    def test_class_codes_match_string_labels(self, strategy, nranks):
        for rpn in (1, 3, 8):
            for live in (1, 2):
                got = RankGroupPartitioner(strategy, live).partition(
                    nranks, ranks_per_node=rpn)
                ref = partition_from_labels(
                    _reference_labels(strategy, nranks, rpn),
                    live_per_group=live)
                assert got == ref

    def test_one_partition_per_machine_shape(self):
        a = RankGroupPartitioner("endpoints").partition(16)
        assert RankGroupPartitioner("endpoints").partition(16) is a
        assert RankGroupPartitioner("endpoints", 2).partition(16) is not a
        assert RankGroupPartitioner("node-role").partition(
            16, ranks_per_node=8) is not a

    def test_every_build_is_verified_once(self, monkeypatch):
        audited = []
        monkeypatch.setattr("repro.mpisim.partition.verify_assignments",
                            lambda part: audited.append(part.nranks))
        _partition_for_shape.cache_clear()
        try:
            for n in (16, 16, 17, 16):
                RankGroupPartitioner("endpoints").partition(n)
            assert audited == [16, 17]
            with pytest.raises(PartitionError, match="at least one rank"):
                RankGroupPartitioner("endpoints").partition(0)
            assert _partition_for_shape.cache_info().currsize == 2
        finally:
            # drop the partitions built under the stub audit
            _partition_for_shape.cache_clear()

    def test_shared_arrays_are_read_only(self):
        part = RankGroupPartitioner("endpoints", 2).partition(16)
        interior = next(g for g in part.groups if g.name == "interior")
        for arr in (part.group_of, part.weights, *interior.modeled_view):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 99
        assert part.weights.tolist() == [1, 7, 7, 1]

    def test_communicators_on_one_partition_keep_own_faults(self):
        part = RankGroupPartitioner("endpoints").partition(16)
        a = SimComm(16, SLINGSHOT_11, partition=part)
        b = SimComm(16, SLINGSHOT_11,
                       partition=RankGroupPartitioner("endpoints")
                       .partition(16))
        assert a.partition is b.partition
        a.fail_rank(5)   # modelled
        a.fail_rank(15)  # representative
        assert a.machine_alive_count == 14
        assert a.failed_ranks() == [5, 15]
        assert a.rank_weights.tolist() == [1, 13, 1]
        assert b.machine_alive_count == 16
        assert b.failed_ranks() == []
        assert b.rank_weights.tolist() == [1, 14, 1]
        b.allreduce([1.0] * 3, 8.0)  # b's collectives see no failure


class TestGridHelpers:
    def test_balanced_block_grid_cube(self):
        assert balanced_block_grid(64) == (4, 4, 4)

    def test_balanced_block_grid_prime(self):
        assert balanced_block_grid(13) == (1, 1, 13)

    def test_balanced_block_grid_any_count(self):
        for n in (1, 2, 6, 72, 72592):
            px, py, pz = balanced_block_grid(n)
            assert px * py * pz == n
            assert px <= py <= pz

    def test_coords_roundtrip(self):
        dec = BlockDecomposition(nx=4, ny=2, nz=2, px=4, py=2, pz=2)
        for r in range(dec.nranks):
            ix, iy, iz = dec.coords(r)
            assert iz * 8 + iy * 4 + ix == r

    def test_boundary_class_counts(self):
        dec = BlockDecomposition(nx=4, ny=4, nz=4, px=4, py=4, pz=4)
        classes = {dec.boundary_class(r) for r in range(dec.nranks)}
        assert len(classes) == 27
        assert dec.boundary_class(0) == "xlo/ylo/zlo"

    def test_boundary_class_degenerate_axis(self):
        dec = BlockDecomposition(nx=4, ny=1, nz=1, px=4, py=1, pz=1)
        assert dec.boundary_class(1) == "xmid/y*/z*"

    def test_topology_node_roles(self):
        topo = Topology(nranks=16, ranks_per_node=4, fabric=SLINGSHOT_11)
        assert topo.local_rank(5) == 1
        assert topo.is_node_leader(4)
        assert not topo.is_node_leader(5)


# -- representative-rank communicator ------------------------------------------


def _drive(comm):
    """A mixed campaign touching every major op, identical on any comm."""
    n = comm.nranks
    comm.advance_all(1e-4)
    comm.allreduce([1.0] * n, 64.0)
    comm.bcast(3.0, 8.0)
    comm.reduce([2.0] * n, 32.0)
    comm.allgather([1] * n, 16.0)
    comm.reduce_scatter([[1.0] * n for _ in range(n)], 256.0)
    comm.alltoall([[0] * n for _ in range(n)], 128.0)
    _, op = comm.ialltoall([[0] * n for _ in range(n)], 64.0)
    comm.advance_all(5e-5)
    op.wait()
    if n > 1:
        comm.sendrecv(0, 1, None, 512.0)
        comm.isendrecv(0, 1, 2048.0).wait()
    comm.neighbor_exchange(
        lambda r: [(r + 1) % comm.machine_ranks,
                   (r - 1) % comm.machine_ranks], 1024.0)
    comm.barrier()


#: ``_drive`` outputs recorded when exemplar mode was a separate
#: ``ScaledComm`` subclass: every rank's final clock (``float.hex``), the
#: CommStats, and ``load_imbalance`` after ``_skew``.
_DRIVE_GOLDENS = {
    (4, 1): ("0x1.85efe8f5c5d40p-13",
             CommStats(p2p_messages=10, p2p_bytes=10752.0, collectives=8,
                       collective_bytes=4576.0,
                       total_comm_time=0.00015715686956521737),
             "0x1.b30f8b786be41p+0"),
    (8, 4): ("0x1.b6a203e61123cp-13",
             CommStats(p2p_messages=18, p2p_bytes=18944.0, collectives=8,
                       collective_bytes=15296.0,
                       total_comm_time=0.0005582885565217392),
             "0x1.f6f47f8570205p+0"),
    (16, 8): ("0x1.0d7632b150c23p-12",
              CommStats(p2p_messages=34, p2p_bytes=35328.0, collectives=8,
                        collective_bytes=55168.0,
                        total_comm_time=0.002092832139130435),
              "0x1.f9aa0b613613cp+0"),
}
_SCALED16_GOLDEN = (
    "0x1.0d7632b150c23p-12",
    CommStats(p2p_messages=34, p2p_bytes=35328.0, collectives=8,
              collective_bytes=55168.0,
              total_comm_time=0.0020900796521739133),
    "0x1.888d96bd3bd98p+0")


def _skew(comm):
    """Unbalance the clocks: the first live rank and the second-to-last
    index race ahead by different amounts."""
    comm.advance(0, 3e-4)
    comm.advance(comm.nranks - 2, 1e-4)


def _assert_golden(comm, golden):
    clock, stats, imbalance = golden
    _drive(comm)
    assert [float(c).hex() for c in comm.clocks] == [clock] * comm.nranks
    assert comm.stats == stats
    _skew(comm)
    assert float(comm.load_imbalance()).hex() == imbalance


class TestScaledCommIdentity:
    """All-live and exemplar communicators reproduce, bit for bit, the
    outputs recorded before the representative-rank engine folded into
    SimComm."""

    @pytest.mark.parametrize("nranks,rpn", [(4, 1), (8, 4), (16, 8)])
    def test_bit_identity(self, nranks, rpn):
        comm = SimComm(nranks, SLINGSHOT_11, ranks_per_node=rpn,
                       device_buffers=True)
        _assert_golden(comm, _DRIVE_GOLDENS[nranks, rpn])

    def test_exemplar_golden(self, scaled16):
        _assert_golden(scaled16, _SCALED16_GOLDEN)

    def test_traced_edges_per_rank_when_all_live(self):
        tracer = Tracer()
        _drive(SimComm(4, SLINGSHOT_11, device_buffers=True, tracer=tracer))
        assert sorted(tracer.metrics.counters) == [
            "mpisim.collective_bytes", "mpisim.collectives",
            "mpisim.edge[0->1].bytes", "mpisim.edge[0->1].messages"]
        assert {s.tid for s in tracer.spans} == {"collectives", "rank1"}

    def test_traced_edges_per_group_with_exemplars(self):
        tracer = Tracer()
        part = RankGroupPartitioner("endpoints").partition(16)
        _drive(SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True, partition=part, tracer=tracer))
        assert sorted(tracer.metrics.counters) == [
            "mpisim.collective_bytes", "mpisim.collectives",
            "mpisim.group_edge[first->interior].bytes",
            "mpisim.group_edge[first->interior].messages"]

    def test_default_partition_is_all_live(self):
        c = SimComm(6, SLINGSHOT_11)
        assert c.nranks == 6
        assert c.machine_ranks == 6
        assert c.partition is all_live_partition(6)
        assert c.representatives == tuple(range(6))
        assert list(c.rank_weights) == [1] * 6

    def test_partition_size_mismatch_rejected(self):
        with pytest.raises(CommError, match="partition covers"):
            SimComm(8, SLINGSHOT_11, partition=all_live_partition(4))


@pytest.fixture
def scaled16():
    """16 machine ranks, 3 exemplars (endpoints partition)."""
    part = RankGroupPartitioner("endpoints").partition(16)
    return SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                   device_buffers=True, partition=part)


class TestScaledCommModeled:
    def test_shape(self, scaled16):
        assert scaled16.nranks == 3
        assert scaled16.machine_ranks == 16
        assert scaled16.representatives == (0, 1, 15)
        assert int(scaled16.rank_weights.sum()) == 16

    def test_collective_cost_at_full_machine(self, scaled16):
        full = SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True)
        scaled16.allreduce([1.0] * 3, 1024.0)
        full.allreduce([1.0] * 16, 1024.0)
        assert scaled16.elapsed == full.elapsed

    def test_weighted_allreduce_sum(self, scaled16):
        out = scaled16.allreduce([1.0] * 3, 8.0)
        assert len(out) == 3
        assert out[0] == 16.0  # every machine rank contributes

    def test_idempotent_op_not_weighted(self, scaled16):
        out = scaled16.allreduce([3.0, 7.0, 5.0], 8.0, op=np.maximum)
        assert out[0] == 7.0

    def test_weighted_reduce_scatter(self, scaled16):
        out = scaled16.reduce_scatter([[1.0] * 3 for _ in range(3)], 96.0)
        assert out == [16.0, 16.0, 16.0]

    def test_stats_account_full_machine(self, scaled16):
        scaled16.allreduce([1.0] * 3, 8.0)
        assert scaled16.stats.collective_bytes == 8.0 * 16
        assert scaled16.stats.collectives == 1

    def test_group_clocks_mirror_representatives(self, scaled16):
        scaled16.advance_all(np.array([1.0, 2.0, 3.0]))
        groups = {g.name: g for g in scaled16.group_clocks()}
        interior = groups["interior"]
        assert interior.count == 13
        assert interior.min == interior.max == 2.0
        assert interior.sum == 13 * 2.0
        assert interior.mean == 2.0
        # singleton groups have no modelled members
        assert groups["first"].count == 0

    def test_collective_synchronizes_groups(self, scaled16):
        scaled16.advance(1, 5.0)  # the interior exemplar races ahead
        scaled16.barrier()
        groups = {g.name: g for g in scaled16.group_clocks()}
        assert groups["interior"].min == groups["interior"].max
        assert groups["interior"].min == scaled16.elapsed

    def test_load_imbalance_weighted(self, scaled16):
        scaled16.advance_all(np.array([1.0, 1.0, 1.0]))
        assert scaled16.load_imbalance() == pytest.approx(1.0)
        scaled16.advance(0, 1.0)  # one singleton exemplar is slow
        # full-machine mean barely moves: 15 of 16 ranks stayed at 1.0
        assert scaled16.load_imbalance() == pytest.approx(
            2.0 / ((15 * 1.0 + 2.0) / 16))

    def test_elapsed_is_live_max(self, scaled16):
        scaled16.advance(2, 2.5)
        assert scaled16.elapsed == 2.5

    def test_describe(self, scaled16):
        assert scaled16.describe() == "SimComm(P=16, R=3, groups=3)"

    def test_subgroup_collectives_rejected(self, scaled16):
        with pytest.raises(CommError, match="all-live"):
            scaled16._sync_collective(8.0, alltoall_time,
                                      participants=[0, 1], name="x")

    def test_fail_rank_speaks_global_machine_ranks(self, scaled16):
        # rank 5 is modelled (reps are 0, 1, 15): a group-level failure
        scaled16.fail_rank(5)
        assert scaled16.failed_ranks() == [5]
        assert not scaled16.failed.any()  # no exemplar died
        assert scaled16.machine_alive_count == 15
        # the interior group's effective weight dropped by one
        assert scaled16.rank_weights.tolist() == [1, 13, 1]
        scaled16.restore_rank(5)
        assert scaled16.failed_ranks() == []
        assert scaled16.rank_weights.tolist() == [1, 14, 1]

    def test_modelled_failure_detected_at_next_collective(self, scaled16):
        scaled16.fail_rank(7)
        with pytest.raises(RankFailedError) as exc:
            scaled16.allreduce([1.0] * 3, 8.0)
        assert exc.value.ranks == (7,)

    def test_agree_priced_at_machine_survivor_count(self, scaled16):
        full = SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True)
        scaled16.fail_rank(5)
        full.fail_rank(5)
        acc, dead = scaled16.agree()
        acc_full, dead_full = full.agree()
        assert (acc, dead) == (acc_full, dead_full)
        # 15 machine survivors price the consensus on both communicators
        assert scaled16.elapsed == full.elapsed

    def test_agree_weighted_fold(self, scaled16):
        acc, _ = scaled16.agree([1.0] * 3, op=np.add)
        assert acc == 16.0  # exemplars weighted by the machine
        scaled16.fail_rank(5)
        acc, dead = scaled16.agree([1.0] * 3, op=np.add)
        assert acc == 15.0 and dead == (5,)

    def test_shrink_rebuilds_survivor_partition(self, scaled16):
        scaled16.fail_rank(5)
        sub = scaled16.shrink()
        assert sub.machine_ranks == 15
        assert sub.parent_ranks == tuple(
            r for r in range(16) if r != 5)
        # dense renumbering preserved order: old 15 became new 14
        assert sub.representatives == (0, 1, 14)
        assert sub.rank_weights.tolist() == [1, 13, 1]

    def test_shrink_promotes_when_all_reps_die(self, scaled16):
        # rank 1 is the interior group's only representative
        scaled16.advance(1, 2.0)
        scaled16.fail_rank(1)
        sub = scaled16.shrink()
        assert sub.machine_ranks == 15
        # old rank 2 (new rank 1) promoted to carry the interior group
        assert sub.representatives == (0, 1, 14)
        assert sub.rank_weights.tolist() == [1, 13, 1]
        # the promotee inherits the modelled-rank clock estimate, not zero
        assert sub.clocks[1] == pytest.approx(
            scaled16.clocks[scaled16.proxy_live_indices()[2]])

    def test_split_over_machine_ranks(self, scaled16):
        subs = scaled16.split(lambda r: r % 2)
        assert sorted(subs) == [0, 1]
        assert subs[0].machine_ranks == 8 and subs[1].machine_ranks == 8
        assert subs[0].parent_ranks == tuple(range(0, 16, 2))
        total = sum(s.machine_ranks for s in subs.values())
        assert total == scaled16.machine_ranks

    def test_ialltoall_costs_full_machine(self, scaled16):
        full = SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True)
        _, op = scaled16.ialltoall([[0] * 3 for _ in range(3)], 64.0)
        op.wait()
        _, ref = full.ialltoall([[0] * 16 for _ in range(16)], 64.0)
        ref.wait()
        assert scaled16.elapsed == full.elapsed

    def test_alltoallv_conservative_bound(self, scaled16):
        nbytes = [[64.0] * 3 for _ in range(3)]
        scaled16.alltoallv([[0] * 3 for _ in range(3)], nbytes)
        link = scaled16.topology.internode_link(device_buffers=True)
        assert scaled16.elapsed == pytest.approx(15 * link.p2p_time(64.0))

    def test_neighbor_exchange_uses_global_ranks(self, scaled16):
        # ring over the 16 machine ranks; exemplars look up modelled
        # partners through their proxies
        op = scaled16.ineighbor_exchange(
            lambda r: [(r + 1) % 16, (r - 1) % 16], 4096.0)
        op.wait()
        assert scaled16.elapsed > 0
        assert scaled16.stats.p2p_messages == 32  # 2 per machine rank

    def test_group_edge_tracing(self):
        tracer = Tracer()
        part = RankGroupPartitioner("endpoints").partition(16)
        c = SimComm(16, SLINGSHOT_11, ranks_per_node=8,
                       device_buffers=True, partition=part, tracer=tracer)
        c.sendrecv(0, 1, None, 128.0)
        names = set(tracer.metrics.counters)
        assert "mpisim.group_edge[first->interior].messages" in names


# -- SimComm satellites ----------------------------------------------------------


class TestReduceScatter:
    def test_data_semantics(self):
        c = SimComm(3, SLINGSHOT_11)
        blocks = [[10 * src + dst for dst in range(3)] for src in range(3)]
        out = c.reduce_scatter(blocks, 24.0)
        assert out == [0 + 10 + 20, 1 + 11 + 21, 2 + 12 + 22]

    def test_shape_validated(self):
        c = SimComm(2, SLINGSHOT_11)
        with pytest.raises(CommError, match="block matrix"):
            c.reduce_scatter([[1.0]], 8.0)

    def test_clock_and_stats_accounting(self):
        from repro.mpisim import reduce_scatter_time

        c = SimComm(4, SLINGSHOT_11)
        c.reduce_scatter([[1.0] * 4 for _ in range(4)], 4096.0)
        link = c.topology.internode_link()
        assert c.elapsed == pytest.approx(reduce_scatter_time(4, 4096.0, link))
        assert c.stats.collectives == 1
        assert c.stats.collective_bytes == 4096.0 * 4

    def test_ring_decomposition_of_rabenseifner(self):
        """reduce_scatter + allgather(n/p) β-cost equals Rabenseifner's
        allreduce β-cost exactly — the ring decomposition the cost-model
        comments describe."""
        from repro.mpisim import (
            allgather_time,
            allreduce_time,
            reduce_scatter_time,
        )
        from repro.mpisim.costmodel import LinkParameters

        beta_only = LinkParameters(alpha=0.0, beta=1e-10)
        for p in (2, 4, 8, 64):
            n = 1 << 20
            ring = (reduce_scatter_time(p, n, beta_only)
                    + allgather_time(p, n / p, beta_only))
            rab = 2 * (p - 1) / p * n * beta_only.beta
            assert ring == pytest.approx(rab, rel=1e-12)
            # and the modelled allreduce never exceeds the ring build
            assert allreduce_time(p, n, beta_only) <= ring * (1 + 1e-12)


class TestNeighborExchange:
    def test_blocking_ring(self):
        c = SimComm(4, SLINGSHOT_11)
        c.neighbor_exchange(lambda r: [(r + 1) % 4, (r - 1) % 4], 1024.0)
        link = c.topology.internode_link()
        assert c.elapsed == pytest.approx(2 * link.p2p_time(1024.0))
        assert c.stats.p2p_messages == 8

    def test_self_partners_ignored(self):
        c = SimComm(2, SLINGSHOT_11)
        c.neighbor_exchange(lambda r: [r, 1 - r], 64.0)
        assert c.stats.p2p_messages == 2

    def test_overlap_with_compute(self):
        c = SimComm(4, SLINGSHOT_11)
        op = c.ineighbor_exchange(lambda r: [(r + 1) % 4], 1024.0)
        c.advance_all(10.0)  # compute fully hides the exchange
        op.wait()
        assert c.elapsed == pytest.approx(10.0)


class TestSplitStats:
    def test_merge_child_stats(self):
        c = SimComm(4, SLINGSHOT_11)
        subs = c.split(lambda r: r % 2)
        for sub in subs.values():
            sub.allreduce([1.0] * sub.nranks, 8.0)
        assert c.stats.collectives == 0
        c.merge_child_stats(subs)
        assert c.stats.collectives == 2
        assert c.stats.collective_bytes == 8.0 * 4

    def test_shared_stats_children_write_parent(self):
        c = SimComm(4, SLINGSHOT_11)
        subs = c.split(lambda r: r % 2, shared_stats=True)
        for sub in subs.values():
            sub.allreduce([1.0] * sub.nranks, 8.0)
        assert c.stats.collectives == 2
        # merging shared children must not double-count
        c.merge_child_stats(subs)
        assert c.stats.collectives == 2

    def test_split_records_parent_ranks(self):
        c = SimComm(4, SLINGSHOT_11)
        subs = c.split(lambda r: r % 2)
        assert subs[0].parent_ranks == (0, 2)
        assert subs[1].parent_ranks == (1, 3)
