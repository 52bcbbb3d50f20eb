"""Sparse selection of trainable coordinates inside adapter modules.

The package trains small transformer classifiers where only an
information-ranked subset of the adapter parameters (and the classifier
head) may move. Public surface:

- :mod:`peftlab.tensor` - reverse-mode autodiff over float32 arrays
- :mod:`peftlab.model` - deterministic transformer backbone and task batches
- :mod:`peftlab.tasks` - synthetic classification datasets
- :mod:`peftlab.peft` - adapter families sharing one flat parameter view
- :mod:`peftlab.fisher` - score estimation and selection strategies
- :mod:`peftlab.optim` - mask-respecting SGD/AdamW and the training loop
- :mod:`peftlab.config` - experiment configs and their JSON form
- :mod:`peftlab.checkpoint` - one binary container for checkpoints, masks
  and scores
- :mod:`peftlab.experiment` / :mod:`peftlab.cli` - drivers
"""

from .checkpoint import (CheckpointState, load_checkpoint, load_mask,
                         load_scores, save_checkpoint, save_mask, save_scores)
from .config import (ExperimentConfig, MaskConfig, TaskConfig, config_hash,
                     from_dict, from_json, to_dict, to_json)
from .errors import (CheckpointError, ConfigError, ContractError,
                     ExperimentError, GraphError, NumericError, PeftLabError,
                     ShapeError)
from .experiment import compare_strategies, run_experiment
from .fisher import (STRATEGIES, FisherEstimate, SparsityMask, budget_to_k,
                     estimate_fisher, mask_gradients, select)
from .model import Batch, ModelConfig, TransformerModel, build_model, forward
from .optim import (EpochRecord, OptimizerState, TrainConfig, TrainReport,
                    compute_ratios, evaluate, train)
from .peft import PeftConfig, PeftModule, ThetaTilde, attach
from .tasks import TASK_KINDS, generate_task
from .tensor import Tensor, backward, no_grad

__version__ = "0.1.0"

__all__ = [
    "Batch", "CheckpointError", "CheckpointState", "ConfigError",
    "ContractError", "EpochRecord", "ExperimentConfig", "ExperimentError",
    "FisherEstimate", "GraphError",
    "MaskConfig", "ModelConfig", "NumericError", "OptimizerState",
    "PeftConfig", "PeftLabError", "PeftModule", "STRATEGIES", "ShapeError",
    "SparsityMask", "TASK_KINDS", "TaskConfig", "Tensor", "ThetaTilde",
    "TrainConfig", "TrainReport", "TransformerModel", "attach",
    "backward", "budget_to_k", "build_model", "compare_strategies",
    "compute_ratios", "config_hash", "estimate_fisher", "evaluate",
    "forward", "from_dict", "from_json", "generate_task", "load_checkpoint",
    "load_mask", "load_scores",
    "mask_gradients", "no_grad", "run_experiment", "save_checkpoint",
    "save_mask", "save_scores", "select", "to_dict", "to_json", "train",
]
