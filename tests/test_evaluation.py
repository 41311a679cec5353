import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biant.cli import (
    ABLATION_GRIDS,
    LOSS_WEIGHTS,
    OBS_INTERVAL,
    TOKEN_TYPE,
    run_ablation,
)
from biant.config import RunConfig, apply_overrides, run_config_from_document, train_config
from biant.errors import ConfigError, EmptyReference, EmptyTestSet
from biant.evaluation import (
    AXES,
    EvalReport,
    evaluate,
    score_instance,
)
from biant.generate import CandidateSet, GenerationConfig
from biant.model import LossWeights
from biant.prompt import DETAILED_DESCRIPTION, SPECIAL_TOKEN
from biant.sequence import WindowConfig
from biant.vocab import ActionLabel

from conftest import SMALL_CONFIG, make_video
from reference import bfs_edit_distance, edit_distance, ref_edit_distance


def labels(pairs):
    return tuple(ActionLabel(v, n) for v, n in pairs)


def test_edit_distance_examples():
    assert edit_distance("", "") == 0
    assert edit_distance("", "abc") == 3
    assert edit_distance("abc", "") == 3
    assert edit_distance("abc", "abc") == 0
    assert edit_distance("kitten", "sitting") == 3
    assert edit_distance("abcdef", "azced") == 3
    assert edit_distance([1, 2, 3], [2, 3, 4]) == 2


seqs = st.lists(st.integers(0, 3), max_size=7)


@given(a=seqs, b=seqs)
@settings(max_examples=200, deadline=None)
def test_edit_distance_matches_full_matrix_reference(a, b):
    assert edit_distance(a, b) == ref_edit_distance(a, b)


@given(a=st.lists(st.integers(0, 2), max_size=3), b=st.lists(st.integers(0, 2), max_size=3))
@settings(max_examples=60, deadline=None)
def test_edit_distance_matches_bfs_oracle_on_tiny_inputs(a, b):
    assert edit_distance(a, b) == bfs_edit_distance(a, b)


@given(a=seqs, b=seqs, c=seqs)
@settings(max_examples=150, deadline=None)
def test_edit_distance_metric_axioms(a, b, c):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert (edit_distance(a, b) == 0) == (a == b)
    assert edit_distance(a, b) >= abs(len(a) - len(b))
    assert edit_distance(a, b) <= max(len(a), len(b))
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def normalized_eds(pred, gt):
    """(verb, noun, action) edit distances over |gt| of one prediction."""
    record = score_instance(CandidateSet("i", [pred]), gt)
    return record.ed_verb, record.ed_noun, record.ed_action


def test_normalized_ed_examples():
    gt = labels([(0, 0), (1, 1), (2, 2), (3, 3)])
    assert normalized_eds(gt, gt) == (0.0, 0.0, 0.0)
    one_off = labels([(0, 0), (5, 1), (2, 2), (3, 3)])
    assert normalized_eds(one_off, gt) == (0.25, 0.0, 0.25)
    with pytest.raises(EmptyReference):
        normalized_eds(gt, ())


def test_normalized_ed_normalizers():
    """The denominator is always |gt|, whatever the prediction's length."""
    gt = labels([(0, 0), (1, 1)])
    pred = labels([(0, 0), (1, 1), (2, 2), (3, 3)])
    assert normalized_eds(pred, gt)[0] == 1.0
    assert normalized_eds(gt, pred)[0] == 0.5


@given(data=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 11)), max_size=6),
       other=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 11)), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_action_axis_equals_composite_id_encoding(data, other):
    pred, gt = labels(data), labels(other)
    via_pairs = normalized_eds(pred, gt)[2]
    composite = edit_distance([a.verb * 12 + a.noun for a in pred],
                              [a.verb * 12 + a.noun for a in gt])
    assert via_pairs == composite / len(gt)


def test_score_instance_takes_min_per_axis():
    gt = labels([(i, i) for i in range(10)])
    # Wrong entries use noun 11, which never occurs in gt, so each wrong
    # position costs exactly one substitution: distances 0.4 and 0.3.
    worse = labels([(i, i) for i in range(6)] + [(7, 11)] * 4)
    bad = labels([(1, 11)] * 3 + [(i, i) for i in range(3, 10)])
    score = score_instance(CandidateSet("i", [worse, bad]), gt)
    assert score.ed_action == 0.3
    assert score.best_action == 1
    assert score_instance(CandidateSet("i", [gt, worse]), gt).ed_action == 0.0


def test_score_instance_winners_can_differ_by_axis():
    gt = labels([(0, 0), (1, 1)])
    verbs_right = labels([(0, 5), (1, 7)])
    nouns_right = labels([(5, 0), (7, 1)])
    score = score_instance(CandidateSet("i", [verbs_right, nouns_right]), gt)
    assert score.ed_verb == 0.0 and score.best_verb == 0
    assert score.ed_noun == 0.0 and score.best_noun == 1
    assert score.ed_action == 1.0


def test_score_instance_exact_action_match_pins_other_axes():
    gt = labels([(2, 3), (4, 5), (6, 7)])
    score = score_instance(CandidateSet("i", [gt]), gt)
    assert (score.ed_verb, score.ed_noun, score.ed_action) == (0.0, 0.0, 0.0)


def test_score_instance_more_candidates_never_hurt():
    rng = np.random.default_rng(3)
    gt = labels([(int(rng.integers(8)), int(rng.integers(12))) for _ in range(6)])
    cands = [labels([(int(rng.integers(8)), int(rng.integers(12))) for _ in range(6)])
             for _ in range(6)]
    prev = None
    for k in range(1, 7):
        score = score_instance(CandidateSet("i", cands[:k]), gt)
        if prev is not None:
            assert score.ed_verb <= prev.ed_verb
            assert score.ed_noun <= prev.ed_noun
            assert score.ed_action <= prev.ed_action
        prev = score


small_actions = st.builds(ActionLabel, st.integers(0, 2), st.integers(0, 2))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_score_instance_matches_per_candidate_reference(data):
    """Per axis, the min over candidates of the full-matrix oracle, won by the
    lowest tied index; candidates of any common length, empty included."""
    gt = data.draw(st.lists(small_actions, min_size=1, max_size=6))
    length = data.draw(st.integers(0, 8))
    cands = data.draw(st.lists(st.lists(small_actions, min_size=length, max_size=length)
                               .map(tuple), min_size=1, max_size=20))
    score = score_instance(CandidateSet("i", cands), gt)
    for key, value, winner in ((lambda a: a.verb, score.ed_verb, score.best_verb),
                               (lambda a: a.noun, score.ed_noun, score.best_noun),
                               (lambda a: a, score.ed_action, score.best_action)):
        scores = [ref_edit_distance([key(a) for a in c], [key(a) for a in gt]) / len(gt)
                  for c in cands]
        assert value == min(scores)
        assert winner == scores.index(min(scores))


def test_score_instance_rejects_empty():
    with pytest.raises(ConfigError):
        score_instance(CandidateSet("i", []), labels([(0, 0)]))


def eval_setup():
    videos = [make_video("vidA", 30, seed=50), make_video("vidB", 29, seed=51)]
    return videos, WindowConfig(), GenerationConfig(k=1, seed=0)


def test_evaluate_oracle_candidates_score_zero(space):
    videos, window, gen = eval_setup()
    report = evaluate(None, space, videos, window, gen, SPECIAL_TOKEN,
                      candidate_fn=lambda inst: CandidateSet(inst.instance_id,
                                                             [tuple(inst.future)]))
    assert report.num_instances == 5
    assert report.means == {"verb": 0.0, "noun": 0.0, "action": 0.0}
    ids = [r.instance_id for r in report.records]
    assert ids == sorted(ids)


def test_evaluate_constant_candidates_score_poorly(space):
    videos, window, gen = eval_setup()
    constant = tuple(ActionLabel(0, 0) for _ in range(window.z_fwd))
    report = evaluate(None, space, videos, window, gen, SPECIAL_TOKEN,
                      candidate_fn=lambda inst: CandidateSet(inst.instance_id, [constant]))
    assert report.means["verb"] > 0.5
    assert report.mean_action > 0.7


def test_evaluate_default_path_matches_injected_generator(tiny_params, space):
    videos = [make_video("vidC", 28, seed=52)]
    window, gen = WindowConfig(), GenerationConfig(k=2, seed=4)
    from biant.generate import generate_candidates

    direct = evaluate(tiny_params, space, videos, window, gen, SPECIAL_TOKEN)
    injected = evaluate(tiny_params, space, videos, window, gen, SPECIAL_TOKEN,
                        candidate_fn=lambda inst: generate_candidates(
                            tiny_params, space, inst.observed, window.z_fwd, gen,
                            SPECIAL_TOKEN, instance_id=inst.instance_id))
    assert [vars(r) for r in direct.records] == [vars(r) for r in injected.records]
    assert direct.config["gen"]["k"] == 2
    assert direct.config["window"]["z_fwd"] == 20
    assert direct.config["preamble"] == SPECIAL_TOKEN


def test_evaluate_empty_test_set(space):
    _, window, gen = eval_setup()
    with pytest.raises(EmptyTestSet):
        evaluate(None, space, [make_video("v", 27, seed=1)], window, gen,
                 SPECIAL_TOKEN, candidate_fn=lambda inst: None)


def test_eval_report_round_trip(tmp_path, space):
    videos, window, gen = eval_setup()
    report = evaluate(None, space, videos, window, gen, SPECIAL_TOKEN,
                      candidate_fn=lambda inst: CandidateSet(inst.instance_id,
                                                             [tuple(inst.future)]))
    path = tmp_path / "report.json"
    report.to_json(path)
    loaded = EvalReport.from_json(path)
    assert loaded.num_instances == report.num_instances
    assert loaded.mean_action == report.mean_action
    assert [vars(r) for r in loaded.records] == [vars(r) for r in report.records]

    csv_path = tmp_path / "summary.csv"
    report.summary_csv(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "num_instances,mean_ed_verb,mean_ed_noun,mean_ed_action"
    assert lines[1].startswith("5,")


def test_ablation_grids_match_study_layouts():
    assert ABLATION_GRIDS[OBS_INTERVAL] == {str(n): {"n_obs_bwd": n} for n in (4, 8, 16, 24)}
    assert ABLATION_GRIDS[LOSS_WEIGHTS] == {
        "alpha=1 beta=0.5": {"alpha": 1.0, "beta": 0.5},
        "alpha=1 beta=0.75": {"alpha": 1.0, "beta": 0.75},
        "alpha=1 beta=1": {"alpha": 1.0, "beta": 1.0},
    }
    assert ABLATION_GRIDS[TOKEN_TYPE] == {DETAILED_DESCRIPTION: {"preamble": DETAILED_DESCRIPTION},
                                          SPECIAL_TOKEN: {"preamble": SPECIAL_TOKEN}}


def test_cell_train_cfg_per_grid():
    def cell_train_cfg(grid, label):
        return train_config(apply_overrides(RunConfig(), **ABLATION_GRIDS[grid][label]))

    for grid, cells in ABLATION_GRIDS.items():
        for label in cells:
            cell_train_cfg(grid, label)
    assert cell_train_cfg(OBS_INTERVAL, "4").window.n_obs_bwd == 4
    assert cell_train_cfg(LOSS_WEIGHTS, "alpha=1 beta=0.5").weights == LossWeights(1.0, 0.5)
    assert cell_train_cfg(TOKEN_TYPE, DETAILED_DESCRIPTION).preamble == DETAILED_DESCRIPTION


def test_run_ablation_validation():
    cfg = run_config_from_document(SMALL_CONFIG)
    with pytest.raises(ConfigError):
        run_ablation("optimizer", cfg, [0])
    with pytest.raises(ConfigError):
        run_ablation(LOSS_WEIGHTS, cfg, [])
    with pytest.raises(ConfigError):
        run_ablation(LOSS_WEIGHTS, cfg, [0], cells={})


def test_run_ablation_small_grid(tmp_path):
    cfg = run_config_from_document(SMALL_CONFIG)
    labels = ["alpha=1 beta=0.5", "alpha=1 beta=1"]
    cells = {label: ABLATION_GRIDS[LOSS_WEIGHTS][label] for label in labels}
    table = run_ablation(LOSS_WEIGHTS, cfg, seeds=[0, 1], cells=cells)
    assert table.grid == LOSS_WEIGHTS and table.seeds == [0, 1]
    assert list(table.rows) == labels
    assert all(len(per_seed) == 2 for per_seed in table.rows.values())

    csv_path = tmp_path / "table.csv"
    table.to_csv(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "loss_weights,verb_mean,verb_std,noun_mean,noun_std,action_mean,action_std"
    assert len(lines) == 3
    for line, (label, per_seed) in zip(lines[1:], table.rows.items()):
        label_cell, *stats = line.split(",")
        assert label_cell == label
        for i in range(len(AXES)):
            column = [means[i] for means in per_seed]
            assert float(stats[2 * i]) == np.mean(column)
            assert float(stats[2 * i + 1]) == np.std(column)
            assert 0.0 <= float(stats[2 * i]) <= 2.0

    text = table.render()
    assert "alpha=1 beta=0.5" in text
    assert "+-" in text
