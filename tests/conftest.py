import numpy as np
import pytest

from biant.model import ModelConfig, init_params
from biant.prompt import TokenSpace
from biant.sequence import AnnotatedVideo, WindowConfig
from biant.vocab import ActionLabel, demo_vocabulary

# Twelve 30-segment videos and a tiny model: one gen-data -> train -> eval
# run (or one ablation cell) takes about a second.
SMALL_CONFIG = {
    "vocab": "demo",
    "eval_stride": 13,
    "scenario": {"num_videos": 12, "video_len": 30},
    "window": {"stride": 6},
    "train": {"epochs": 1, "batch_size": 16},
    "model": {"embed_dim": 8, "mlp_hidden": 12},
    "gen": {"k": 2},
    "ablate": {"seeds": [0]},
}


@pytest.fixture(scope="session")
def vocab():
    return demo_vocabulary()


@pytest.fixture(scope="session")
def space(vocab):
    return TokenSpace(vocab)


def make_video(vid: str, length: int, seed: int, num_verbs: int = 8, num_nouns: int = 12):
    """Deterministic random-label video used across test modules."""
    rng = np.random.default_rng(seed)
    segments = tuple(
        ActionLabel(int(rng.integers(num_verbs)), int(rng.integers(num_nouns)))
        for _ in range(length)
    )
    return AnnotatedVideo(id=vid, segments=segments)


@pytest.fixture()
def video():
    return make_video("vid0000", 40, seed=7)


@pytest.fixture(scope="session")
def tiny_params(space):
    """Small untrained model over the demo token space."""
    cfg = ModelConfig(vocab_size=space.size, context_len=96, embed_dim=8,
                      num_heads=2, num_layers=1, mlp_hidden=12, seed=3)
    return init_params(cfg)


@pytest.fixture()
def default_window():
    return WindowConfig()
