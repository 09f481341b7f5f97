"""Active learning of homogeneous halfspaces on the unit sphere.

A band-querying Perceptron learner with realizable, bounded, and adversarial
labeling oracles, its passive-learning conversion, acute initialization, a
statistical verification suite for the underlying geometric facts, and a
seeded benchmark harness (see ``percband.cli`` for the command line).
"""

from .geometry import (
    Band,
    DimensionMismatch,
    DrawBudgetExceeded,
    angle,
    band_mass,
    conditional_moment_oracle,
    disagreement_mass,
    normalize,
    rejection_sample_band,
    sample_uniform_sphere,
)
from .initialization import InitConfig, InitResult, acute_initialize
from .learner import (
    DEFAULT_SCALE_B,
    DEFAULT_SCALE_M,
    THEORY_SCALE_B,
    THEORY_SCALE_M,
    BudgetExhausted,
    EpochTrace,
    RunReport,
    Schedule,
    active_perceptron,
    make_schedule,
    mod_perceptron,
    mod_perceptron_params,
    modified_perceptron_step,
)
from .oracles import LabelingOracle, NoiseModel, adversarial_threshold
from .passive import LabeledExampleSource
from .verify import CheckResult, run_suite

__all__ = [
    "Band",
    "BudgetExhausted",
    "CheckResult",
    "DEFAULT_SCALE_B",
    "DEFAULT_SCALE_M",
    "DimensionMismatch",
    "DrawBudgetExceeded",
    "EpochTrace",
    "InitConfig",
    "InitResult",
    "LabeledExampleSource",
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
    "conditional_moment_oracle",
    "disagreement_mass",
    "make_schedule",
    "mod_perceptron",
    "mod_perceptron_params",
    "modified_perceptron_step",
    "normalize",
    "rejection_sample_band",
    "run_suite",
    "sample_uniform_sphere",
]

__version__ = "0.1.0"
