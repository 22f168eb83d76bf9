"""Branch prediction: direction predictors, a BTB for indirect targets,
and a return-address stack, composed into the :class:`BranchUnit` every
core instantiates."""

from repro.branch.predictors import (
    BranchUnit,
    BranchStats,
    BimodalPredictor,
    GSharePredictor,
    StaticPredictor,
    make_direction_predictor,
)

__all__ = [
    "BranchUnit",
    "BranchStats",
    "BimodalPredictor",
    "GSharePredictor",
    "StaticPredictor",
    "make_direction_predictor",
]
