"""Hybrid defect content and effectiveness modeling.

Builds quantitative causal models from expert judgment, simulates DDIF/EIF
distributions by Monte Carlo, plans QA activities with risk charts, predicts
defects found from historical data, and validates predictions with LOOCV,
MMRE, and exact Wilcoxon tests.
"""

# the only version literal: io's run manifests and pyproject.toml read it
__version__ = "0.1.0"

from .diagnostics import Diagnostic, InputFormatError, ModelValidationError, Severity
from .elicitation import (
    RankingAnalysis,
    RankingSheet,
    analyze_rankings,
    kendalls_w,
    select_factors,
    summarize_ranks,
    w_significance,
)
from .estimation import (
    BaselineEstimate,
    DefectsFoundPrediction,
    baseline_value,
    estimate_baseline,
    expected_defects_found,
    predict_defects_found,
)
from .evaluation import (
    ALL_VARIANTS,
    PredictionRecord,
    ValidationReport,
    Variant,
    compare_variants,
    loocv,
    mmre,
    run_validation,
    wilcoxon_signed_rank,
)
from .model import (
    CausalModel,
    Factor,
    FactorCategory,
    FactorKind,
    FactorScale,
    HistoricalProject,
    Multiplier,
    ProjectCharacterization,
    validate_characterization,
    validate_model,
)
from .planning import RiskChart, RiskPoint, build_risk_chart, risk_chart_svg, risk_narrative
from .simulation import (
    EmpiricalDistribution,
    SimulationConfig,
    simulate,
)
