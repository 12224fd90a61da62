"""Tests for the Euler, LSMS SCF, scaling-law and roofline additions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    amdahl_speedup,
    fit_amdahl,
    gustafson_speedup,
    scaling_study,
    weak_scaling_efficiency,
)
from repro.gpu import KernelSpec, place_kernel, roofline_curve, roofline_report
from repro.hardware.gpu import MI250X_GCD, V100, Precision
from repro.hydro import SOD_EXACT, Euler1D, sod_plateau_states
from repro.scattering import build_liz, scf_iterate


class TestEuler1D:
    @pytest.fixture(scope="class")
    def sod_run(self):
        solver = Euler1D.sod(800)
        solver.run_until(0.2)
        return solver

    def test_sod_star_pressure_and_velocity(self, sod_run):
        """p* and u* of the exact Riemann solution are hit to <2 %."""
        st_ = sod_plateau_states(sod_run)
        assert st_["p_star"] == pytest.approx(SOD_EXACT["p_star"], rel=0.02)
        assert st_["u_star"] == pytest.approx(SOD_EXACT["u_star"], rel=0.02)

    def test_sod_contact_densities(self, sod_run):
        """First-order HLL smears the contact: densities within ~15 %."""
        st_ = sod_plateau_states(sod_run)
        assert st_["rho_star_left"] == pytest.approx(
            SOD_EXACT["rho_star_left"], rel=0.15)
        assert st_["rho_star_right"] == pytest.approx(
            SOD_EXACT["rho_star_right"], rel=0.15)

    def test_contact_density_converges_with_resolution(self):
        errs = []
        for n in (200, 800):
            s = Euler1D.sod(n)
            s.run_until(0.2)
            st_ = sod_plateau_states(s)
            errs.append(abs(st_["rho_star_left"] - SOD_EXACT["rho_star_left"]))
        assert errs[1] < errs[0]

    def test_mass_exactly_conserved(self):
        s = Euler1D.sod(400)
        m0 = s.total_mass()
        s.run_until(0.15)
        assert s.total_mass() == pytest.approx(m0, rel=1e-12)

    def test_uniform_state_is_stationary(self):
        n = 64
        s = Euler1D(rho=np.ones(n), mom=np.zeros(n),
                    ener=np.full(n, 2.5), dx=1.0 / n)
        s.run_until(0.1)
        np.testing.assert_allclose(s.rho, 1.0, atol=1e-12)
        np.testing.assert_allclose(s.mom, 0.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Euler1D.sod(4)
        s = Euler1D.sod(64)
        with pytest.raises(ValueError):
            s.step(cfl=1.5)
        with pytest.raises(ValueError):
            s.run_until(-1.0)


class TestScfLoop:
    @pytest.fixture(scope="class")
    def liz(self):
        return build_liz(1.0, 1.4, block_size=8)

    def test_converges(self, liz):
        r = scf_iterate(liz, target_moment=0.4)
        assert r.converged
        assert r.moment == pytest.approx(0.4, abs=1e-7)
        assert r.history.iterations < 50

    def test_solver_choice_does_not_change_physics(self, liz):
        """The §3.2 swap (zblock_lu → getrf) must be bit-compatible."""
        a = scf_iterate(liz, target_moment=0.4, method="getrf")
        b = scf_iterate(liz, target_moment=0.4, method="zblock_lu")
        assert a.potential_strength == pytest.approx(b.potential_strength,
                                                     abs=1e-6)

    def test_residuals_decay(self, liz):
        r = scf_iterate(liz, target_moment=0.4)
        res = r.history.residuals
        assert res[-1] < 1e-8
        assert res[-1] < res[0] / 100

    def test_nonconvergence_reported(self, liz):
        r = scf_iterate(liz, target_moment=0.4, max_iter=2)
        assert not r.converged

    def test_mixing_validated(self, liz):
        with pytest.raises(ValueError):
            scf_iterate(liz, mixing=0.0)


class TestScalingLaws:
    def test_amdahl_limits(self):
        assert amdahl_speedup(1, 0.1) == 1.0
        assert amdahl_speedup(10**6, 0.1) == pytest.approx(10.0, rel=0.01)
        assert amdahl_speedup(8, 0.0) == 8.0

    def test_gustafson_linear_when_fully_parallel(self):
        assert gustafson_speedup(64, 0.0) == 64.0
        assert gustafson_speedup(64, 1.0) == 1.0

    def test_fit_recovers_known_fraction(self):
        s_true = 0.07
        workers = [1, 2, 4, 8, 16, 32]
        speedups = [amdahl_speedup(p, s_true) for p in workers]
        fit = fit_amdahl(workers, speedups)
        assert fit.serial_fraction == pytest.approx(s_true, abs=1e-6)
        assert fit.rms_error < 1e-9

    @settings(max_examples=25)
    @given(st.floats(min_value=0.0, max_value=0.9))
    def test_fit_property(self, s_true):
        workers = [1, 2, 4, 8, 16]
        speedups = [amdahl_speedup(p, s_true) for p in workers]
        fit = fit_amdahl(workers, speedups)
        assert fit.serial_fraction == pytest.approx(s_true, abs=1e-4)

    def test_scaling_study_summary(self):
        times = {1: 100.0, 2: 52.0, 4: 28.0, 8: 16.0}
        st_ = scaling_study(times)
        assert st_["speedups"][0] == 1.0
        assert all(0 < e <= 1.0 for e in st_["efficiencies"])
        assert 0.0 <= st_["serial_fraction"] <= 1.0

    def test_weak_scaling_with_log_comm(self):
        eff = weak_scaling_efficiency(
            1024, compute_time=1.0, comm_time_fn=lambda p: 0.001 * np.log2(max(p, 2))
        )
        assert 0.97 < eff < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            amdahl_speedup(0, 0.1)
        with pytest.raises(ValueError):
            amdahl_speedup(4, 1.5)
        with pytest.raises(ValueError):
            fit_amdahl([1], [1.0])
        with pytest.raises(ValueError):
            scaling_study({2: 50.0})


class TestRoofline:
    def test_curve_shape(self):
        curve = roofline_curve(MI250X_GCD)
        flops = [f for _, f in curve]
        assert all(a <= b + 1e-6 for a, b in zip(flops, flops[1:]))
        assert max(flops) == pytest.approx(MI250X_GCD.peak(Precision.FP64))

    def test_compute_bound_kernel_near_peak_roof(self):
        k = KernelSpec(name="gemm", flops=1e13, bytes_read=1e9,
                       registers_per_thread=64)
        pt = place_kernel(k, MI250X_GCD)
        assert pt.bound == "compute"
        assert pt.roof_flops == pytest.approx(MI250X_GCD.peak(Precision.FP64))
        assert 0.8 < pt.fraction_of_roof <= 1.0

    def test_memory_bound_kernel_on_slanted_roof(self):
        k = KernelSpec(name="triad", flops=1e8, bytes_read=2e9, bytes_written=1e9)
        pt = place_kernel(k, MI250X_GCD)
        assert pt.bound == "memory"
        assert pt.roof_flops < MI250X_GCD.peak(Precision.FP64) / 100

    def test_report_renders(self):
        ks = [KernelSpec(name="a", flops=1e12, bytes_read=1e9)]
        text = roofline_report(ks, V100)
        assert "Roofline on V100" in text
        assert "ridge" in text

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            roofline_curve(V100, n_points=1)
