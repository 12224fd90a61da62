"""Experiment harnesses: one module per paper table/figure + in-text claims."""

from repro.experiments.earlyaccess import (
    GenerationReport,
    prediction_improves_with_generation,
    run_ladder,
    spock_scaling_study,
)
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.intext import ALL_CLAIMS, IntextResult, run_intext
from repro.experiments.resilience_at_scale import (
    DalySweepResult,
    DalyValidationPoint,
    NodeOverheadPoint,
    OverheadCurveResult,
    run_daly_sweep,
    run_overhead_curve,
)
from repro.experiments.scaling import (
    CometWeakScaling,
    GamessStrongScaling,
    PeleWeakScaling,
    ScalingCurve,
    ScalingPoint,
    ScalingWorkload,
    ValidationPoint,
    check_validation,
    strong_scaling_curve,
    validate_exemplar_vs_full,
    weak_scaling_curve,
)
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2

__all__ = [
    "build_dashboard",
    "DashboardRow",
    "Dashboard",
    "GenerationReport",
    "prediction_improves_with_generation",
    "run_ladder",
    "spock_scaling_study",
    "ALL_CLAIMS",
    "CometWeakScaling",
    "Figure1Result",
    "DalySweepResult",
    "DalyValidationPoint",
    "NodeOverheadPoint",
    "OverheadCurveResult",
    "GamessStrongScaling",
    "IntextResult",
    "PeleWeakScaling",
    "ScalingCurve",
    "ScalingPoint",
    "ScalingWorkload",
    "Table1Result",
    "Table2Result",
    "ValidationPoint",
    "check_validation",
    "strong_scaling_curve",
    "validate_exemplar_vs_full",
    "weak_scaling_curve",
    "run_daly_sweep",
    "run_figure1",
    "run_intext",
    "run_overhead_curve",
    "run_table1",
    "run_table2",
]
from repro.experiments.dashboard import Dashboard, DashboardRow, build_dashboard
