"""Projected belief networks: feed-forward nets with an exact generative likelihood.

A projected belief network (PBN) reads a standard feed-forward network
backwards: each layer's linear projection z = W'x is paired with a
maximum-entropy prior on the layer input, which yields a tractable
layer-wise log-likelihood.  Samples are reconstructed exactly through
saddle point solves, and training couples that likelihood with a
label-dependent output stage.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    IngestionError,
    JoinError,
    LikelihoodUndefinedError,
    PbnError,
    ReconstructionError,
    ShapeMismatchError,
    SingularityError,
    TrainingError,
)
from .features import (
    extract_directory,
    extract_file,
    load_wav,
    logmel,
    mel_filterbank,
    read_archive,
    split_dataset,
    write_archive_binary,
    write_archive_text,
)
from .linops import ConvMap, DenseMap, GramFactor, LinearMap
from .network import (
    LayerSpec,
    LikelihoodTerms,
    Network,
    OutputPriorConfig,
    build_network,
    label_signal,
    load_model,
    network_from_dict,
    network_to_dict,
    output_shift,
    save_model,
    scaled_uniform_init,
    wordpair_network,
)
from .priors import GAUSSIAN, TRUNCATED_GAUSSIAN, UNIFORM, activation_prior, get_prior
from .reconstruct import (
    backstep,
    invert_output_shift,
    reconstruct_from_layer,
    reconstruction_statistic,
    synthesize,
)
from .saddlepoint import SaddleSolution, log_feature_density, solve_saddle
from .training import (
    Dataset,
    TrainConfig,
    TrainResult,
    evaluate,
    evaluate_logits,
    gradient,
    objective,
    pretrain_discriminative,
    train,
)

__all__ = [
    "ConfigError",
    "ConvMap",
    "Dataset",
    "DenseMap",
    "DomainError",
    "GAUSSIAN",
    "GramFactor",
    "IngestionError",
    "JoinError",
    "LayerSpec",
    "LikelihoodTerms",
    "LikelihoodUndefinedError",
    "LinearMap",
    "Network",
    "OutputPriorConfig",
    "PbnError",
    "ReconstructionError",
    "SaddleSolution",
    "ShapeMismatchError",
    "SingularityError",
    "TRUNCATED_GAUSSIAN",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "UNIFORM",
    "activation_prior",
    "backstep",
    "build_network",
    "evaluate",
    "evaluate_logits",
    "extract_directory",
    "extract_file",
    "get_prior",
    "gradient",
    "invert_output_shift",
    "label_signal",
    "load_model",
    "load_wav",
    "log_feature_density",
    "logmel",
    "mel_filterbank",
    "network_from_dict",
    "network_to_dict",
    "objective",
    "output_shift",
    "pretrain_discriminative",
    "read_archive",
    "reconstruct_from_layer",
    "reconstruction_statistic",
    "save_model",
    "scaled_uniform_init",
    "solve_saddle",
    "split_dataset",
    "synthesize",
    "train",
    "wordpair_network",
    "write_archive_binary",
    "write_archive_text",
]
