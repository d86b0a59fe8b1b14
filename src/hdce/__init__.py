"""Hybrid defect content and effectiveness modeling.

Builds quantitative causal models from expert judgment, simulates DDIF/EIF
distributions by Monte Carlo, plans QA activities with risk charts, predicts
defects found from historical data, and validates predictions with LOOCV,
MMRE, and exact Wilcoxon tests.
"""

# the only version literal: io's run manifests and pyproject.toml read it
__version__ = "0.1.0"

# the README's "Library use" names; everything else is imported from its module
from .estimation import estimate_baseline, predict_defects_found
from .model import SimulationConfig
