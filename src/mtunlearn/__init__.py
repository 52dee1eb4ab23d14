"""Mean-teacher proximal unlearning on small softmax models.

The package provides:

- linalg: per-step dot products and norms, one per row of a stack
- model: bigram softmax and one-hidden-layer MLP token models
- losses: unlearning losses (nll, ll, nlul, it, npo) with exact gradients
- divergence: proximity terms (kl, qkl, bregman) and their damped forms
- curvature: the Gauss-Newton curvature factor, the damped solve through
  the Gram matrix of its rows, the closed-form bigram damped solve, and the
  exact error of the damped momentum iteration (per eigenmode, a grid of
  cells at once) with its closed-form bound
- optimizer: the mean-teacher proximal update (full-batch and batched)
  and its baselines, all run through lockstep_runs, and the gap of the
  mean teacher to its damped natural-gradient reference
- harness: verification testbeds (trajectory approximation, momentum
  iteration error bound, gradient dynamics, quadratic-order proximity
  checks) and end-to-end unlearning experiments
- cli: the `mtunlearn` command line entry point
- artifacts: deterministic manifests, CSV tables, and parameter dumps
"""

from .artifacts import TOOL_VERSION
from .curvature import (
    bigram_damped_solve,
    gnh_damped_solve,
    ihvp_error_bound,
    momentum_error_traces,
)
from .divergence import (
    CURVATURE_SCALE,
    DIVERGENCE_TAGS,
    DivergenceKind,
    curvature_quadratic_form,
    damped_grad,
    damped_value,
    damped_value_and_grad,
    divergence_value,
    local_quadratic_residual,
)
from .errors import (
    ConfigError,
    MissingArtifactError,
    MTUError,
    PreconditionError,
    TrainingError,
)
from .harness import (
    CorpusSpec,
    LemmaFamily,
    MemorizationReport,
    MethodSpec,
    StopRule,
    build_target,
    corpus_datasets,
    default_dynamics_setup,
    default_theorem_setup,
    default_unlearn_setup,
    generate_corpus,
    gradient_dynamics_study,
    lcs_length,
    memorization_report,
    unlearn_experiment,
    verify_divergence_quadratic,
    verify_lemma,
    verify_theorem1,
)
from .losses import (
    LOSS_TAGS,
    LossKind,
    TeacherLogits,
    batch_grad,
    batch_loss,
    batch_value_and_grad,
)
from .model import (
    BIGRAM,
    MLP,
    ModelSpec,
    TokenDataset,
    dataset_from_sequences,
    greedy_continuation,
    init_params,
    load_jsonl_dataset,
    logit_jacobians,
    param_count,
    sequence_logprob,
)
from .optimizer import (
    AdamParams,
    DerivedNGDParams,
    MTConfig,
    Trajectory,
    lockstep_runs,
)

__version__ = TOOL_VERSION

__all__ = [
    "TOOL_VERSION",
    "__version__",
    "bigram_damped_solve",
    "gnh_damped_solve",
    "ihvp_error_bound",
    "momentum_error_traces",
    "CURVATURE_SCALE",
    "DIVERGENCE_TAGS",
    "DivergenceKind",
    "curvature_quadratic_form",
    "damped_grad",
    "damped_value",
    "damped_value_and_grad",
    "divergence_value",
    "local_quadratic_residual",
    "ConfigError",
    "MissingArtifactError",
    "MTUError",
    "PreconditionError",
    "TrainingError",
    "CorpusSpec",
    "LemmaFamily",
    "MemorizationReport",
    "MethodSpec",
    "StopRule",
    "build_target",
    "corpus_datasets",
    "default_dynamics_setup",
    "default_theorem_setup",
    "default_unlearn_setup",
    "generate_corpus",
    "gradient_dynamics_study",
    "lcs_length",
    "memorization_report",
    "unlearn_experiment",
    "verify_divergence_quadratic",
    "verify_lemma",
    "verify_theorem1",
    "LOSS_TAGS",
    "LossKind",
    "TeacherLogits",
    "batch_grad",
    "batch_loss",
    "batch_value_and_grad",
    "BIGRAM",
    "MLP",
    "ModelSpec",
    "TokenDataset",
    "dataset_from_sequences",
    "greedy_continuation",
    "init_params",
    "load_jsonl_dataset",
    "logit_jacobians",
    "param_count",
    "sequence_logprob",
    "AdamParams",
    "DerivedNGDParams",
    "MTConfig",
    "Trajectory",
    "lockstep_runs",
]
