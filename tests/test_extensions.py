"""Tests for the extension modules: refluxing, R2C FFT, APSP paths,
OpenACC, the profiler/compiler tooling, 3-way CCC, SPH."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.amr import FluxRegister, TwoLevelAdvection
from repro.gpu import (
    KernelSpec,
    MathLibrary,
    apply_compiler_fix,
    assembly_report,
    profile_kernels,
)
from repro.graph import (
    explain_relationships,
    floyd_warshall,
    floyd_warshall_with_paths,
    generate_knowledge_graph,
)
from repro.hardware.gpu import MI250X_GCD, V100
from repro.hardware.interconnect import SLINGSHOT_11
from repro.particles import (
    EquationOfState,
    cubic_spline_kernel,
    sph_density,
    sph_pressure_forces,
    uniform_lattice,
)
from repro.progmodel import OpenACCDevice, OpenACCError
from repro.similarity import (
    random_allele_data,
    threeway_counts_bruteforce,
    threeway_counts_gemm,
    threeway_similarity,
)
from repro.spectral import SlabRFFT3D, r2c_traffic_saving


class TestFluxRegister:
    def test_reflux_correction_is_difference(self):
        reg = FluxRegister(n_faces=2, substeps=2)
        reg.add_coarse(np.array([1.0, 2.0]), 1.0)
        reg.add_fine(np.array([0.6, 1.1]), 0.5)
        reg.add_fine(np.array([0.6, 1.1]), 0.5)
        np.testing.assert_allclose(reg.reflux_correction(), [-0.4, -0.9])

    def test_spatial_averaging(self):
        reg = FluxRegister(n_faces=1, fine_faces_per_coarse=2, substeps=1)
        reg.add_coarse(np.array([1.0]), 1.0)
        reg.add_fine(np.array([0.8, 1.2]), 1.0)  # mean = 1.0
        assert reg.reflux_correction()[0] == pytest.approx(0.0)

    def test_missing_substeps_rejected(self):
        reg = FluxRegister(n_faces=1, substeps=2)
        reg.add_coarse(np.array([1.0]), 1.0)
        reg.add_fine(np.array([1.0]), 0.5)
        with pytest.raises(RuntimeError, match="substeps"):
            reg.reflux_correction()

    def test_shape_validation(self):
        reg = FluxRegister(n_faces=2, substeps=1)
        with pytest.raises(ValueError):
            reg.add_coarse(np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            reg.add_fine(np.array([1.0, 2.0, 3.0]), 1.0)


class TestTwoLevelAdvection:
    def _make(self):
        sim = TwoLevelAdvection(n_coarse=32, lo=10, hi=16, ratio=2)
        sim.set_initial(lambda x: np.exp(-0.1 * (x - 8.0) ** 2))
        return sim

    def test_refluxing_conserves_mass_exactly(self):
        sim = self._make()
        m0 = sim.total_mass()
        for _ in range(30):
            sim.step(0.5, reflux=True)
        assert sim.total_mass() == pytest.approx(m0, abs=1e-12)

    def test_without_refluxing_mass_drifts(self):
        sim = self._make()
        m0 = sim.total_mass()
        for _ in range(30):
            sim.step(0.5, reflux=False)
        assert abs(sim.total_mass() - m0) > 1e-3

    def test_solution_stays_bounded(self):
        sim = self._make()
        for _ in range(50):
            sim.step(0.8)
        assert sim.coarse.max() <= 1.01
        assert sim.coarse.min() >= -1e-12

    def test_cfl_validation(self):
        sim = self._make()
        with pytest.raises(ValueError):
            sim.step(1.5)

    def test_region_validation(self):
        with pytest.raises(ValueError):
            TwoLevelAdvection(n_coarse=8, lo=5, hi=3)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=4),
           st.floats(min_value=0.1, max_value=0.9))
    def test_property_conservation(self, ratio, dt):
        sim = TwoLevelAdvection(n_coarse=24, lo=8, hi=12, ratio=ratio)
        sim.set_initial(lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x / 24))
        m0 = sim.total_mass()
        for _ in range(5):
            sim.step(dt, reflux=True)
        assert sim.total_mass() == pytest.approx(m0, rel=1e-12)


class TestSlabRFFT:
    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 16, 16))
        f = SlabRFFT3D(16, 4, fabric=SLINGSHOT_11)
        spec = f.gather_spectrum(f.forward(f.scatter(x)))
        ref = np.fft.fft(np.fft.fft(np.fft.rfft(x, axis=2), axis=1), axis=0)
        np.testing.assert_allclose(spec, ref, atol=1e-10)

    def test_roundtrip(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 12, 12))
        f = SlabRFFT3D(12, 3, fabric=SLINGSHOT_11)
        back = f.gather_slabs(f.inverse(f.forward(f.scatter(x))))
        np.testing.assert_allclose(back, x, atol=1e-12)

    def test_complex_input_rejected(self):
        f = SlabRFFT3D(8, 2, fabric=SLINGSHOT_11)
        with pytest.raises(ValueError, match="real"):
            f.scatter(np.zeros((8, 8, 8), dtype=complex))

    def test_r2c_halves_transpose_traffic(self):
        """The production-code reason to use R2C."""
        from repro.spectral import SlabFFT3D

        c = SlabFFT3D(64, 8, fabric=SLINGSHOT_11)
        r = SlabRFFT3D(64, 8, fabric=SLINGSHOT_11)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(64, 64, 64))
        c.forward(c.scatter(x.astype(complex)))
        r.forward(r.scatter(x))
        ratio = c.stats.bytes_per_rank / r.stats.bytes_per_rank
        assert ratio == pytest.approx(r2c_traffic_saving(64), rel=0.01)
        assert 1.8 < ratio < 2.05


class TestApspPaths:
    @pytest.fixture(scope="class")
    def kg(self):
        return generate_knowledge_graph(60, seed=9)

    def test_distances_match_plain_fw(self, kg):
        d = kg.distance_matrix()
        apsp = floyd_warshall_with_paths(d)
        np.testing.assert_allclose(apsp.dist, floyd_warshall(d))

    def test_paths_match_networkx(self, kg):
        apsp = floyd_warshall_with_paths(kg.distance_matrix())
        for src, dst in ((0, 30), (5, 55), (10, 20)):
            nx_len = nx.shortest_path_length(kg.graph, src, dst, weight="weight")
            assert apsp.dist[src, dst] == pytest.approx(nx_len)
            path = apsp.path(src, dst)
            assert path[0] == src and path[-1] == dst
            # the reconstructed path really has the claimed length
            w = kg.distance_matrix()
            assert apsp.path_length(path, w) == pytest.approx(apsp.dist[src, dst])

    def test_unreachable_returns_none(self):
        d = np.full((3, 3), np.inf)
        np.fill_diagonal(d, 0)
        d[0, 1] = 1.0
        apsp = floyd_warshall_with_paths(d)
        assert apsp.path(0, 2) is None
        assert apsp.path(0, 0) == [0]

    def test_explain_relationships_narrative(self, kg):
        apsp = floyd_warshall_with_paths(kg.distance_matrix())
        hits = explain_relationships(kg, apsp, source_type="compound",
                                     target_type="disease",
                                     max_distance=6.0, top=3)
        for h in hits:
            assert h.narrative.startswith("compound")
            assert "disease" in h.narrative
            assert "-[" in h.narrative
            assert not kg.graph.has_edge(h.source, h.target)

    def test_vertex_validation(self):
        apsp = floyd_warshall_with_paths(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            apsp.path(0, 9)


class TestOpenACC:
    MB = 1 << 20

    def test_data_clauses_move_the_right_bytes(self):
        acc = OpenACCDevice(MI250X_GCD)
        with acc.data(copyin={"a": self.MB}, copyout={"b": 2 * self.MB},
                      copy={"c": 4 * self.MB}, create={"d": 8 * self.MB}):
            pass
        assert acc.ledger.h2d_bytes == 5 * self.MB  # copyin + copy
        assert acc.ledger.d2h_bytes == 6 * self.MB  # copyout + copy

    def test_present_check(self):
        acc = OpenACCDevice(MI250X_GCD)
        with pytest.raises(OpenACCError):
            acc.parallel_loop(KernelSpec(name="k", flops=1e6, bytes_read=1e5),
                              present=("ghost",))

    def test_update_directives(self):
        acc = OpenACCDevice(MI250X_GCD)
        with acc.data(create={"u": self.MB}):
            acc.update_device("u")
            acc.update_self("u")
        assert acc.ledger.h2d_transfers == 1
        assert acc.ledger.d2h_transfers == 1

    def test_openacc_parity_with_native(self):
        """§3.8: the OpenACC prototype performed on par with native."""
        from repro.gpu import Device

        k = KernelSpec(name="k", flops=1e12, bytes_read=1e8)
        native = Device(MI250X_GCD)
        native.launch_sync(k)

        acc = OpenACCDevice(MI250X_GCD)
        with acc.data(create={"u": self.MB}):
            acc.parallel_loop(k, present=("u",))
        ratio = native.elapsed / acc.elapsed
        assert 0.7 < ratio < 1.0  # close, but directives never beat native

    def test_async_and_wait(self):
        acc = OpenACCDevice(MI250X_GCD)
        with acc.data(create={"u": self.MB}):
            acc.parallel_loop(KernelSpec(name="k", flops=1e11, bytes_read=1e7),
                              present=("u",), async_=True)
            before = acc.elapsed
            acc.wait()
            assert acc.elapsed > before

    def test_double_entry_rejected(self):
        acc = OpenACCDevice(MI250X_GCD)
        with acc.data(create={"u": self.MB}):
            with pytest.raises(OpenACCError):
                with acc.data(create={"u": self.MB}):
                    pass


class TestProfiler:
    def test_profile_sorted_and_shares_sum_to_one(self):
        kernels = [
            KernelSpec(name="big", flops=1e12, bytes_read=1e8),
            KernelSpec(name="small", flops=1e9, bytes_read=1e6),
        ]
        rows = profile_kernels(kernels, MI250X_GCD)
        assert rows[0].kernel == "big"
        assert sum(r.share for r in rows) == pytest.approx(1.0)

    def test_assembly_report_detects_spills(self):
        k = KernelSpec(name="tors", flops=1e9, bytes_read=1e7,
                       registers_per_thread=290)
        rep = assembly_report(k, MI250X_GCD)
        assert rep.spills
        assert rep.vgpr_spill_count == 290 - 256
        assert rep.amdhsa_private_segment_fixed_size == 4 * rep.vgpr_spill_count

    def test_compiler_fix_eliminates_spills(self):
        """§3.10.3: the register-allocation fix 'virtually eliminated
        register spills from the key kernels'."""
        k = KernelSpec(name="tors", flops=1e9, bytes_read=1e7,
                       registers_per_thread=290)
        fixed = apply_compiler_fix(k)
        assert not assembly_report(fixed, MI250X_GCD).spills
        # and the fixed kernel is faster
        from repro.gpu import time_kernel

        assert time_kernel(fixed, MI250X_GCD).total_time <= \
            time_kernel(k, MI250X_GCD).total_time

    def test_compiler_fix_validation(self):
        with pytest.raises(ValueError):
            apply_compiler_fix(KernelSpec(name="k", flops=1.0, bytes_read=1.0),
                               fp64_constants=-1)

    def test_math_microbenchmark(self):
        ml = MathLibrary(optimized=False)
        bench = ml.microbenchmark(MI250X_GCD)
        assert bench["fma"] > bench["exp"] > bench["pow"]

    def test_optimized_library_improves_transcendentals(self):
        old = MathLibrary(optimized=False)
        new = MathLibrary(optimized=True)
        for fn in ("pow", "exp", "log"):
            assert new.throughput(fn, MI250X_GCD) > old.throughput(fn, MI250X_GCD)
        # plain FMA is unchanged
        assert new.throughput("fma", V100) == old.throughput("fma", V100)

    def test_math_derate_for_exp_heavy_kernels(self):
        ml = MathLibrary()
        pure_fma = ml.kernel_math_derate(0.0, device=MI250X_GCD)
        exp_heavy = ml.kernel_math_derate(0.5, device=MI250X_GCD)
        assert pure_fma == pytest.approx(1.0)
        assert exp_heavy < 0.5

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            MathLibrary().throughput("erfc", V100)


class TestThreewayCCC:
    def test_gemm_matches_bruteforce(self):
        data = random_allele_data(4, 10, seed=0)
        np.testing.assert_array_equal(
            threeway_counts_gemm(data), threeway_counts_bruteforce(data)
        )

    def test_fp16_exact(self):
        data = random_allele_data(5, 20, seed=1)
        np.testing.assert_array_equal(
            threeway_counts_gemm(data, fp16=True),
            threeway_counts_bruteforce(data),
        )

    def test_counts_sum_to_fields(self):
        data = random_allele_data(4, 17, seed=2)
        counts = threeway_counts_gemm(data)
        np.testing.assert_allclose(counts.sum(axis=(0, 1, 2)), 17.0)

    def test_similarity_bounded_and_symmetric_under_ij_swap(self):
        data = random_allele_data(5, 30, seed=3)
        sim = threeway_similarity(data)
        assert np.all(sim >= 0) and np.all(sim <= 1)
        np.testing.assert_allclose(sim, sim.transpose(1, 0, 2), atol=1e-12)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=4, max_value=16))
    def test_property_vs_bruteforce(self, n, m):
        data = random_allele_data(n, m, seed=n + m)
        np.testing.assert_array_equal(
            threeway_counts_gemm(data, fp16=True),
            threeway_counts_bruteforce(data),
        )


class TestSph:
    def test_kernel_normalization(self):
        """∫W dV = 1: check by dense quadrature."""
        h = 1.0
        r = np.linspace(0, h, 2000)
        w = cubic_spline_kernel(r, h)
        integral = np.trapezoid(4 * np.pi * r**2 * w, r)
        assert integral == pytest.approx(1.0, rel=1e-3)

    def test_kernel_compact_support(self):
        assert cubic_spline_kernel(np.array([1.1]), 1.0)[0] == 0.0
        assert cubic_spline_kernel(np.array([0.0]), 1.0)[0] > 0.0

    def test_uniform_lattice_density_constant(self):
        x, L = uniform_lattice(5, 1.0)
        rho = sph_density(x, np.ones(len(x)), 1.3, box_size=L)
        assert rho.std() / rho.mean() < 1e-10
        # density must approximate the true number density (1 per unit vol)
        assert rho.mean() == pytest.approx(1.0, rel=0.5)

    def test_pressure_forces_conserve_momentum(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 3, size=(25, 3))
        f = sph_pressure_forces(x, np.ones(25), 1.0)
        np.testing.assert_allclose(f.sum(axis=0), 0.0, atol=1e-12)

    def test_compressed_pair_repels(self):
        x = np.array([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0], [10.0, 10.0, 10.0]])
        f = sph_pressure_forces(x, np.ones(3), 1.0)
        assert f[0, 0] < 0 and f[1, 0] > 0  # pushed apart

    def test_eos(self):
        eos = EquationOfState(K=2.0, gamma=2.0)
        assert eos.pressure(np.array([3.0]))[0] == pytest.approx(18.0)
        assert eos.sound_speed(np.array([1.0]))[0] == pytest.approx(2.0)

    def test_lattice_validation(self):
        with pytest.raises(ValueError):
            uniform_lattice(1, 1.0)
        with pytest.raises(ValueError):
            cubic_spline_kernel(np.array([1.0]), 0.0)


class TestTraceExport:
    def test_chrome_trace_is_valid_json_with_all_launches(self):
        import json

        from repro.gpu import Device, KernelSpec, to_chrome_trace

        d = Device(MI250X_GCD)
        for i in range(4):
            d.launch(KernelSpec(name=f"k{i}", flops=1e9, bytes_read=1e7))
        d.synchronize()
        doc = json.loads(to_chrome_trace(d))
        kernels = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(kernels) == 4
        assert all(e["dur"] > 0 for e in kernels)
        # in-order stream: events must not overlap
        spans = sorted((e["ts"], e["ts"] + e["dur"]) for e in kernels)
        assert all(a[1] <= b[0] + 1e-9 for a, b in zip(spans, spans[1:]))

    def test_timeline_stats_detect_launch_gaps(self):
        from repro.gpu import Device, KernelSpec, timeline_stats

        d = Device(MI250X_GCD)
        tiny = KernelSpec(name="tiny", flops=1e4, bytes_read=1e4)
        # synchronous launching exposes per-launch gaps
        for _ in range(10):
            d.launch_sync(tiny)
        stats = timeline_stats(d)
        assert stats.kernels == 10
        assert stats.utilization < 0.9
        assert stats.largest_gap > 0

    def test_async_launching_closes_gaps(self):
        from repro.gpu import Device, KernelSpec, timeline_stats

        d = Device(MI250X_GCD)
        big = KernelSpec(name="big", flops=5e10, bytes_read=1e8)
        for _ in range(10):
            d.launch(big)  # async: enqueue back-to-back
        d.synchronize()
        stats = timeline_stats(d)
        assert stats.utilization > 0.95

    def test_empty_trace(self):
        from repro.gpu import Device, timeline_stats

        stats = timeline_stats(Device(V100))
        assert stats.kernels == 0
        assert stats.utilization == 1.0
