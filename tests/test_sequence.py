import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biant.errors import ConfigError, InvalidBackwardSplit
from biant.sequence import (
    BACKWARD,
    FORWARD,
    AnnotatedVideo,
    AnticipationInstance,
    WindowConfig,
    make_backward_instance,
    make_forward_instances,
)
from biant.vocab import ActionLabel

from conftest import make_video


def seq(*pairs):
    return tuple(ActionLabel(v, n) for v, n in pairs)


def test_window_defaults_give_published_split():
    cfg = WindowConfig()
    assert (cfg.n_obs_fwd, cfg.z_fwd, cfg.n_obs_bwd) == (8, 20, 16)
    assert cfg.z_bwd == 12
    assert cfg.window_len == 28


def test_window_validation():
    with pytest.raises(ConfigError):
        WindowConfig(n_obs_bwd=0)
    with pytest.raises(ConfigError):
        WindowConfig(n_obs_bwd=28)
    assert WindowConfig(n_obs_bwd=27).z_bwd == 1
    with pytest.raises(ConfigError):
        WindowConfig(stride=0)


def test_single_window_video():
    video = make_video("v", 28, seed=1)
    out = make_forward_instances(video, WindowConfig())
    assert len(out) == 1
    inst = out[0]
    assert inst.direction == FORWARD
    assert inst.stop_index == 7
    assert inst.observed == video.segments[:8]
    assert inst.future == video.segments[8:28]


def test_three_window_video():
    video = make_video("v", 30, seed=2)
    out = make_forward_instances(video, WindowConfig())
    assert [i.stop_index for i in out] == [7, 8, 9]
    for inst in out:
        t = inst.stop_index
        assert inst.observed == video.segments[t - 7 : t + 1]
        assert inst.future == video.segments[t + 1 : t + 21]


def test_too_short_video_yields_empty():
    assert make_forward_instances(make_video("v", 27, seed=3), WindowConfig()) == []


def test_stride_skips_stopping_times():
    video = make_video("v", 40, seed=4)
    out = make_forward_instances(video, WindowConfig(stride=6))
    assert [i.stop_index for i in out] == [7, 13, 19]


@given(n=st.integers(1, 120), stride=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_instance_count_formula(n, stride):
    video = make_video("v", n, seed=5)
    cfg = WindowConfig(stride=stride)
    got = len(make_forward_instances(video, cfg))
    expected = max(0, (n - 28) // stride + 1)
    assert got == expected


def test_backward_reverses_full_window():
    video = make_video("v", 28, seed=6)
    fwd = make_forward_instances(video, WindowConfig())[0]
    bwd = make_backward_instance(fwd, 16)
    window = video.segments  # a1..a28
    assert bwd.direction == BACKWARD
    assert bwd.observed == tuple(reversed(window))[:16]  # a28..a13
    assert bwd.observed[0] == window[27] and bwd.observed[-1] == window[12]
    assert bwd.future == tuple(reversed(window))[16:]  # a12..a1
    assert bwd.future[0] == window[11] and bwd.future[-1] == window[0]
    assert len(bwd.future) == 12
    assert bwd.instance_id == fwd.instance_id + ":b"


def test_backward_four_element_example():
    fwd = AnticipationInstance(
        direction=FORWARD, observed=seq((0, 0), (1, 1)), future=seq((2, 2), (3, 3)),
        source_video="v", stop_index=1,
    )
    bwd = make_backward_instance(fwd, 2)
    assert bwd.observed == seq((3, 3), (2, 2))
    assert bwd.future == seq((1, 1), (0, 0))


def test_backward_split_bounds():
    video = make_video("v", 28, seed=8)
    fwd = make_forward_instances(video, WindowConfig())[0]
    with pytest.raises(InvalidBackwardSplit):
        make_backward_instance(fwd, 28)
    with pytest.raises(InvalidBackwardSplit):
        make_backward_instance(fwd, 0)
    assert len(make_backward_instance(fwd, 27).future) == 1
    assert len(make_backward_instance(fwd, 1).future) == 27


def test_backward_requires_forward_input():
    video = make_video("v", 28, seed=9)
    fwd = make_forward_instances(video, WindowConfig())[0]
    bwd = make_backward_instance(fwd, 16)
    with pytest.raises(ConfigError):
        make_backward_instance(bwd, 4)


@given(n_obs_bwd=st.integers(1, 27), seed=st.integers(0, 50))
@settings(max_examples=60, deadline=None)
def test_backward_reversal_invariants(n_obs_bwd, seed):
    video = make_video("v", 30, seed=seed)
    for fwd in make_forward_instances(video, WindowConfig()):
        bwd = make_backward_instance(fwd, n_obs_bwd)
        assert tuple(reversed(bwd.observed + bwd.future)) == fwd.observed + fwd.future
        assert len(bwd.observed) + len(bwd.future) == 28
        assert len(bwd.future) == 8 + 20 - n_obs_bwd

