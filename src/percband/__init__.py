"""Active learning of homogeneous halfspaces on the unit sphere.

A band-querying Perceptron learner with realizable, bounded, and adversarial
labeling oracles, its passive-learning conversion, acute initialization, a
statistical verification suite for the underlying geometric facts, and a
seeded benchmark harness (see ``percband.cli`` for the command line).
"""

from .geometry import (
    DimensionMismatch,
    angle,
    band_mass,
    disagreement_mass,
    sample_uniform_sphere,
)
from .initialization import InitResult, acute_initialize
from .learner import (
    DEFAULT_SCALE_B,
    DEFAULT_SCALE_M,
    THEORY_SCALE_B,
    THEORY_SCALE_M,
    EpochTrace,
    RunReport,
    Schedule,
    active_perceptron,
    make_schedule,
    mod_perceptron_params,
)
from .oracles import LabelingOracle, NoiseModel, adversarial_threshold
from .verify import CheckResult, run_suite

__all__ = [
    "CheckResult",
    "DEFAULT_SCALE_B",
    "DEFAULT_SCALE_M",
    "DimensionMismatch",
    "EpochTrace",
    "InitResult",
    "LabelingOracle",
    "NoiseModel",
    "THEORY_SCALE_B",
    "THEORY_SCALE_M",
    "RunReport",
    "Schedule",
    "acute_initialize",
    "active_perceptron",
    "adversarial_threshold",
    "angle",
    "band_mass",
    "disagreement_mass",
    "make_schedule",
    "mod_perceptron_params",
    "run_suite",
    "sample_uniform_sphere",
]

__version__ = "0.1.0"
