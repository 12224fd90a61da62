"""Run every experiment and render the paper-vs-measured report."""

from __future__ import annotations

from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.intext import IntextResult, run_intext
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2


def run_all() -> dict[str, object]:
    """Execute every experiment; returns results keyed by artifact name."""
    experiments = (
        ("figure1", run_figure1),
        ("table1", run_table1),
        ("table2", run_table2),
        ("figure2", run_figure2),
        ("intext", run_intext),
    )
    return {name: run() for name, run in experiments}


def full_report() -> str:
    """The EXPERIMENTS.md-style consolidated text report."""
    r = run_all()
    fig1: Figure1Result = r["figure1"]  # type: ignore[assignment]
    tab1: Table1Result = r["table1"]  # type: ignore[assignment]
    tab2: Table2Result = r["table2"]  # type: ignore[assignment]
    fig2: Figure2Result = r["figure2"]  # type: ignore[assignment]
    intext: IntextResult = r["intext"]  # type: ignore[assignment]
    parts = [
        fig1.render(),
        tab1.render(),
        f"Table 1 matches the paper exactly: {tab1.matches_paper()}",
        tab2.render(),
        fig2.render(),
        "Figure 2 shape checks: " + ", ".join(
            f"{k}={'OK' if v else 'MISS'}" for k, v in fig2.checks().items()
        ),
        intext.render(),
    ]
    return "\n\n" + "\n\n".join(parts) + "\n"


if __name__ == "__main__":  # pragma: no cover - CLI entry
    print(full_report())
