"""End-to-end tests: the experiment harnesses reproduce the paper."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.motifs import TABLE1_EXPECTED, PortingMotif
from repro.experiments import (
    ALL_CLAIMS,
    run_figure1,
    run_figure2,
    run_intext,
    run_table1,
    run_table2,
)
from repro.experiments.runner import full_report


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure1()

    def test_thirteen_benchmarks(self, result):
        assert len(result.rows) == 13

    def test_means_match_paper(self, result):
        """§2.1: 'Average normalized HIP performance was 99.8% of CUDA
        performance when considering data transfer costs, 99.9% without.'"""
        assert result.mean_with_transfers == pytest.approx(0.998, abs=0.004)
        assert result.mean_kernel_only == pytest.approx(0.999, abs=0.004)

    def test_all_points_in_figure_range(self, result):
        """The figure's Y-axis spans 0.9-1.05; points sit in ~[0.97, 1.02]."""
        for r in result.rows:
            assert 0.96 < r.relative_with_transfers < 1.03
            assert 0.96 < r.relative_kernel_only < 1.03

    def test_deterministic_given_seed(self):
        a, b = run_figure1(seed=7), run_figure1(seed=7)
        assert a.rows == b.rows

    def test_render_contains_means(self, result):
        text = result.render()
        assert "0.998" in text or "mean" in text
        assert "Figure 1" in text
        assert result.table().count("\n") >= 14


class TestTable1:
    def test_matches_paper_exactly(self):
        result = run_table1()
        assert result.matches_paper()
        assert result.mismatches() == {}

    def test_every_motif_has_applications(self):
        rows = run_table1().rows
        for motif in PortingMotif:
            assert rows[motif], motif
            assert len(rows[motif]) == len(TABLE1_EXPECTED[motif])

    def test_render(self):
        text = run_table1().render()
        assert "Kernel Fusion/Fission" in text
        assert "LAMMPS" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2()

    def test_eight_rows_all_in_band(self, result):
        assert len(result.rows) == 8
        assert result.all_in_band

    def test_who_wins_ordering_preserved(self, result):
        """Shape check: LSMS and COAST lead; ExaSky and Pele trail —
        exactly the paper's ordering extremes."""
        by_app = {r.application: r.measured for r in result.rows}
        top2 = sorted(by_app, key=by_app.get, reverse=True)[:2]
        bottom2 = sorted(by_app, key=by_app.get)[:2]
        assert set(top2) == {"LSMS", "COAST"}
        assert set(bottom2) == {"ExaSky", "Pele"}

    def test_render(self, result):
        text = result.render()
        assert "GAMESS" in text and "OK" in text


class TestFigure2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure2()

    def test_seven_history_points(self, result):
        assert len(result.single_node) == 7
        assert len(result.at_scale) == 3

    def test_all_shape_checks_pass(self, result):
        checks = result.checks()
        assert all(checks.values()), checks

    def test_machines_in_order(self, result):
        machines = [m for _, m, _, _ in result.single_node]
        assert machines == ["Cori", "Theta", "Eagle", "Summit", "Summit",
                            "Summit", "Frontier"]

    def test_render(self, result):
        text = result.render()
        assert "75x" in text
        assert "Frontier" in text


class TestIntext:
    @pytest.fixture(scope="class")
    def result(self):
        return run_intext()

    def test_all_claims_pass(self, result):
        failing = [r.claim.description for r in result.results if not r.ok]
        assert not failing, failing

    def test_claim_coverage(self, result):
        """Every application section contributes at least one claim."""
        sections = {r.claim.section for r in result.results}
        assert {"2.1", "3.1", "3.3", "3.4", "3.5", "3.6", "3.8", "3.9",
                "3.10"} <= sections

    def test_twenty_claims(self):
        assert len(ALL_CLAIMS) == 20

    def test_scaled_claims_present(self):
        descs = [c.description for c in ALL_CLAIMS]
        assert sum("on representative ranks" in d for d in descs) == 3

    def test_render(self, result):
        text = result.render()
        assert "Verdict" in text
        assert "MISS" not in text


class TestFullReport:
    def test_report_generates(self):
        text = full_report()
        assert "Figure 1" in text
        assert "Table 1" in text
        assert "Table 2" in text
        assert "Figure 2" in text
        assert "MISS" not in text

    def test_package_import_leaves_runner_unloaded(self):
        """``python -m repro.experiments.runner`` warns when importing the
        package has already loaded the runner module."""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.experiments; "
             "print('repro.experiments.runner' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.stdout.strip() == "False"


class TestDashboard:
    def test_all_apps_on_track(self):
        from repro.experiments import build_dashboard
        from repro.core.challenge import ReviewVerdict

        d = build_dashboard()
        assert len(d.rows) == 8
        assert d.all_on_track
        for row in d.rows:
            assert row.verdict is ReviewVerdict.ON_TRACK
            assert row.achieved_factor > row.target_factor * 0.9

    def test_render(self):
        from repro.experiments import build_dashboard

        text = build_dashboard().render()
        assert "COE readiness dashboard" in text
        assert "on track" in text
