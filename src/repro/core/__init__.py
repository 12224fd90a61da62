"""The paper's application-readiness framework, formalized."""

from repro.core.challenge import (
    AccelerationPlan,
    ChallengeProblem,
    ChallengeTracker,
    ProjectReport,
    ReviewVerdict,
)
from repro.core.fom import FigureOfMerit, FomKind, FomMeasurement, FomTracker
from repro.core.lessons import Channel, KnowledgeBase, Lesson, seed_paper_lessons
from repro.core.motifs import TABLE1_EXPECTED, PortingMotif
from repro.core.registry import (
    ApplicationRecord,
    ApplicationRegistry,
    build_default_registry,
)
from repro.core.report import render_bar, render_series, render_table
from repro.core.speedup import (
    TABLE2_EXPECTED,
    SpeedupMeasurement,
    measure_speedup,
    within_band,
)
from repro.core.timeline import (
    EarlyAccessCampaign,
    IssueRecord,
    ReadinessPhase,
    convergence_to_frontier,
    early_access_generations,
)

__all__ = [
    "weak_scaling_efficiency",
    "scaling_study",
    "gustafson_speedup",
    "fit_amdahl",
    "amdahl_speedup",
    "AmdahlFit",
    "AccelerationPlan",
    "ApplicationRecord",
    "ApplicationRegistry",
    "ChallengeProblem",
    "ChallengeTracker",
    "Channel",
    "EarlyAccessCampaign",
    "FigureOfMerit",
    "FomKind",
    "FomMeasurement",
    "FomTracker",
    "IssueRecord",
    "KnowledgeBase",
    "Lesson",
    "PortingMotif",
    "ProjectReport",
    "ReadinessPhase",
    "ReviewVerdict",
    "SpeedupMeasurement",
    "TABLE1_EXPECTED",
    "TABLE2_EXPECTED",
    "build_default_registry",
    "convergence_to_frontier",
    "early_access_generations",
    "measure_speedup",
    "render_bar",
    "render_series",
    "render_table",
    "seed_paper_lessons",
    "within_band",
]
from repro.core.scaling import (
    AmdahlFit,
    amdahl_speedup,
    fit_amdahl,
    gustafson_speedup,
    scaling_study,
    weak_scaling_efficiency,
)
