"""The Figure 2 chemistry stage against references it cannot share errors with.

Batched and scalar BDF run the same method, so comparing them with each
other cannot see that method's error.  These tests check both against a
tight Radau IIA solution, check that a cell's answer does not depend on
the batch it rides in (a lockstep decision leaking across cells would),
and pin the simulated clock: the Figure 2 / Table 2 models must not move
when the solver does.
"""

import numpy as np
import pytest

from repro.apps import pele
from repro.experiments.figure2 import RADAU_TOL_UNITS

CFG = pele.PeleConfig()
DT = 1e-9


@pytest.fixture(scope="module")
def seed5_field():
    T, C0 = pele.chemistry_field(CFG, 4, seed=5)
    return T, C0, pele.radau_reference(CFG, T, C0, DT)


class TestRadauAccuracy:
    """Each cell's final state within RADAU_TOL_UNITS of Radau."""

    def test_batched(self, seed5_field):
        T, C0, ref = seed5_field
        y = pele.integrate_chemistry_batched(CFG, T, C0, DT).y
        units = pele.tolerance_units(y, ref)
        assert units.max() <= RADAU_TOL_UNITS, units

    def test_scalar(self, seed5_field):
        T, C0, ref = seed5_field
        y = pele.integrate_chemistry_scalar(CFG, T, C0, DT)
        units = pele.tolerance_units(y, ref)
        assert units.max() <= RADAU_TOL_UNITS, units

    def test_measured_stage_reports_the_claim(self):
        stage = pele.measured_chemistry_speedup(ncells=2, dt=DT, seed=5)
        assert stage["radau_cells"] == 2
        assert 0.0 < stage["radau_error_units"] <= RADAU_TOL_UNITS


def _batched_final_state(T, C0):
    """The finished batched integration state, per-cell counters included."""
    integ = pele._batched_chemistry_integrator(CFG.mechanism, T)
    state = integ.start(C0, 0.0, DT)
    while not state.finished:
        integ.step_round(state)
    return state


class TestBatchIndependence:
    @pytest.fixture(scope="class")
    def field48(self):
        T, C0 = pele.chemistry_field(CFG, 48, seed=1)
        return T, C0, _batched_final_state(T, C0)

    def test_cell_alone_equals_cell_in_batch(self, field48):
        T, C0, batch = field48
        cells = np.random.default_rng(1).choice(48, 8, replace=False)
        for i in cells:
            alone = _batched_final_state(T[i:i + 1], C0[i:i + 1])
            # the rates kernel rounds a 1-row batch differently from a
            # 48-row one, so the states agree to roundoff, not bitwise;
            # the step sequence itself must not depend on the batch
            assert alone.steps_per_cell[0] == batch.steps_per_cell[i], i
            assert alone.order[0] == batch.order[i], i
            y = batch.Y[i]
            rel = np.abs(alone.Y[0] - y).max() / np.abs(y).max()
            assert rel <= 1e-12, (i, rel)

    def test_two_cell_scalar_matches_batched(self, field48):
        T, C0, batch = field48
        idx = np.sort(np.random.default_rng(1).choice(48, 2, replace=False))
        ref = pele.integrate_chemistry_scalar(CFG, T[idx], C0[idx], DT)
        assert np.abs(batch.Y[idx] - ref).max() / np.abs(ref).max() <= 1e-9


class TestSimulatedClockPinned:
    """Exact values of the modeled clock; no solver change may move them."""

    def test_figure2_history(self):
        assert pele.figure2_history() == [
            ("2018-09", "Cori", "cpp-fortran-cpu", 3.353333333333333e-06),
            ("2019-03", "Theta", "cpp-fortran-cpu", 3.869230769230769e-06),
            ("2019-06", "Eagle", "cpp-fortran-cpu", 4.572727272727273e-06),
            ("2019-12", "Summit", "gpu-port-uvm", 5.684355052503653e-07),
            ("2020-09", "Summit", "cvode-batched", 1.8095249306796e-07),
            ("2021-03", "Summit", "fused-async", 1.7913712958383952e-07),
            ("2023-03", "Frontier", "frontier-tuned",
             4.3820436538719577e-08),
        ]

    def test_figure2_scale_series(self):
        assert pele.figure2_scale_series() == [
            ("2020-09", "Summit", "cvode-batched", 1.8249317024223792e-07),
            ("2021-03", "Summit", "fused-async", 1.7913712958383952e-07),
            ("2023-03", "Frontier", "frontier-tuned",
             4.3820436538719577e-08),
        ]

    def test_total_improvement_and_table2(self):
        assert pele.total_improvement() == 76.52441641858908
        assert pele.speedup() == 4.087981401681259
