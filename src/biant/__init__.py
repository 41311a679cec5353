"""Bidirectional action-sequence learning for long-term anticipation.

Train a small autoregressive model jointly on a forward task (observed
actions -> future actions) and its reversed twin, then anticipate futures
with forward-only constrained decoding and score them by normalized edit
distance per verb / noun / action axis, minimized over K candidates.
"""

from .config import RunConfig, load_run_config, save_run_config
from .data import ScenarioConfig, SyntheticCorpus, generate_corpus, load_annotations, save_annotations
from .errors import BiantError
from .evaluation import (
    EvalReport,
    edit_distance,
    evaluate,
    score_instance,
)
from .generate import CandidateSet, GenerationConfig, generate_candidates, renormalize_masked
from .model import (
    AdamState,
    LossWeights,
    ModelConfig,
    Parameters,
    forward,
    gradient,
    gradient_check,
    init_adam,
    init_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from .prompt import (
    DETAILED_DESCRIPTION,
    SPECIAL_TOKEN,
    EncodedInstance,
    TokenSpace,
    decode_actions,
    encode_instance,
    target_masks,
)
from .sequence import (
    ACTION_AXIS,
    BACKWARD,
    FORWARD,
    NOUN_AXIS,
    VERB_AXIS,
    AnnotatedVideo,
    AnticipationInstance,
    WindowConfig,
    make_backward_instance,
    make_forward_instances,
)
from .train import TrainConfig, TrainingLog, build_training_set, train
from .vocab import ActionLabel, Vocabulary, demo_vocabulary, load_vocabulary, scaled_vocabulary

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
