"""Hybrid defect content and effectiveness modeling.

Builds quantitative causal models from expert judgment, simulates DDIF/EIF
distributions by Monte Carlo, plans QA activities with risk charts, predicts
defects found from historical data, and validates predictions with LOOCV,
MMRE, and exact Wilcoxon tests.
"""

# the only version literal: io's run manifests and pyproject.toml read it
__version__ = "0.1.0"


def __getattr__(name: str):
    """The README's "Library use" names, each imported from its module on first use, so that
    import hdce loads no submodule; everything else is imported from its module."""
    module = {"SimulationConfig": "model", "estimate_baseline": "estimation",
              "predict_defects_found": "estimation"}.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)
