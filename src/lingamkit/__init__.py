"""Causal discovery in linear non-Gaussian acyclic models.

Estimators:

* :mod:`lingamkit.direct` — direct recursive root-extraction estimator
  (no algorithmic parameters, fixed step count);
* :mod:`lingamkit.ica` — the original ICA-based pipeline, kept as a
  comparison baseline.

Support: :mod:`lingamkit.synth` generates benchmark data,
:mod:`lingamkit.evaluation` runs sweeps and metrics,
:mod:`lingamkit.bootstrap` computes edge confidence intervals, and
:mod:`lingamkit.cli` is the command-line surface.
"""

__version__ = "0.1.0"

from .bootstrap import BootstrapReport, EdgeInterval, bootstrap_cis
from .core import (
    CausalOrder,
    ConnectionMatrix,
    Dataset,
    center,
    find_strict_lower_permutation,
    permute_matrix,
    simple_residual,
)
from .direct import FittedModel, estimate_order, estimate_strengths, fit, multi_least_squares
from .evaluation import (
    BenchmarkGrid,
    EvaluationReport,
    frobenius_distance,
    order_errors,
    run_benchmark,
)
from .ica import (
    BaselineModel,
    FastIcaConfig,
    b_from_unmixing,
    diagonal_permutation,
    fastica,
    ica_lingam_fit,
    prune_and_order,
)
from .independence import IndependenceConfig, find_most_independent, t_profile, t_statistic
from .synth import GroundTruthModel, SynthConfig, generate, random_model, sample_non_gaussian

__all__ = [
    "BaselineModel",
    "BenchmarkGrid",
    "BootstrapReport",
    "CausalOrder",
    "ConnectionMatrix",
    "Dataset",
    "EdgeInterval",
    "EvaluationReport",
    "FastIcaConfig",
    "FittedModel",
    "GroundTruthModel",
    "IndependenceConfig",
    "SynthConfig",
    "b_from_unmixing",
    "bootstrap_cis",
    "center",
    "diagonal_permutation",
    "estimate_order",
    "estimate_strengths",
    "fastica",
    "find_most_independent",
    "find_strict_lower_permutation",
    "fit",
    "frobenius_distance",
    "generate",
    "ica_lingam_fit",
    "multi_least_squares",
    "order_errors",
    "permute_matrix",
    "prune_and_order",
    "random_model",
    "run_benchmark",
    "sample_non_gaussian",
    "simple_residual",
    "t_profile",
    "t_statistic",
]
