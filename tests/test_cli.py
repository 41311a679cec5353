import json
import shutil

import pytest

from biant import cli
from biant.cli import LOSS_WEIGHTS, main, run_ablation
from biant.config import load_run_config
from biant.vocab import DEMO_NOUNS, DEMO_VERBS
from biant.evaluation import EvalReport

from conftest import SMALL_CONFIG


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One generated corpus + trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(SMALL_CONFIG))
    out = root / "run"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg_path, out


def test_gen_data_artifacts(run_dir, capsys):
    cfg_path, out = run_dir
    for name in ("vocab.json", "corpus.json", "corpus_meta.json",
                 "config_gen-data.json", "checkpoint.json", "train_log.csv",
                 "config_train.json"):
        assert (out / name).exists(), name
    meta = json.loads((out / "corpus_meta.json").read_text())
    assert len(meta["split"]["train"]) == 8
    assert len(meta["split"]["test"]) == 3


def test_eval_and_report(run_dir, capsys):
    cfg_path, out = run_dir
    assert main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "ED verb=" in captured
    assert (out / "eval_report.json").exists()
    assert (out / "eval_summary.csv").exists()
    report = EvalReport.from_json(out / "eval_report.json")
    assert report.num_instances == 3
    assert report.config["gen"]["k"] == 2

    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "eval (3 instances)" in captured
    assert "train: 1 epochs" in captured


def test_eval_k_override(run_dir, capsys):
    cfg_path, out = run_dir
    assert main(["eval", "--config", str(cfg_path), "--out", str(out), "--k", "1"]) == 0
    report = EvalReport.from_json(out / "eval_report.json")
    assert report.config["gen"]["k"] == 1


def test_eval_preamble_mismatch(run_dir, capsys):
    cfg_path, out = run_dir
    code = main(["eval", "--config", str(cfg_path), "--out", str(out),
                 "--preamble", "description"])
    assert code == 3
    assert "preamble" in capsys.readouterr().err


def test_eval_checkpoint_from_other_vocabulary(run_dir, tmp_path, capsys):
    """Reversed verbs keep the token-space size but move every verb token."""
    cfg_path, out = run_dir
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(json.dumps({"verbs": DEMO_VERBS[::-1], "nouns": DEMO_NOUNS}))
    other_cfg = tmp_path / "config.json"
    other_cfg.write_text(json.dumps({**SMALL_CONFIG, "vocab": str(vocab_path)}))
    run = tmp_path / "run"
    run.mkdir()
    for name in ("corpus.json", "corpus_meta.json"):
        shutil.copy(out / name, run / name)
    code = main(["eval", "--config", str(other_cfg), "--out", str(run),
                 "--checkpoint", str(out / "checkpoint.json")])
    _assert_invalid_data(code, capsys, "ConfigError", "different vocabulary")
    assert not (run / "eval_report.json").exists()


def test_eval_missing_checkpoint(run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    code = main(["eval", "--config", str(cfg_path), "--out", str(out),
                 "--checkpoint", str(tmp_path / "nope.json")])
    assert code == 2
    assert "missing file" in capsys.readouterr().err


def _drop_model_config(text):
    doc = json.loads(text)
    del doc["model_config"]
    return json.dumps(doc)


def _meta_array(text):
    doc = json.loads(text)
    doc["meta"] = [doc["meta"]]
    return json.dumps(doc)


def _set(*keys, value):
    """A corruption that sets the JSON value found by ``keys`` to ``value``."""
    def corrupt(text):
        doc = json.loads(text)
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        return json.dumps(doc)
    return corrupt


@pytest.mark.parametrize("corrupt, needle", [
    (_drop_model_config, "model_config"),
    (lambda text: text[: len(text) // 2], "not valid JSON"),
    (_set("arrays", "w_out", 0, 0, value=float("nan")), "'w_out' has non-finite values"),
    (_meta_array, "meta must be an object"),
    (_set("model_config", "embed_dim", value=1000000), "has shape"),
    (_set("model_config", "embed_dim", value=8.0), "must be integers"),
    (_set("model_config", "seed", value=1.5), "must be integers"),
    (_set("model_config", "seed", value=-1), "seed must be >= 0"),
    (_set("version", value=True), "unsupported checkpoint version: True"),
    (_set("arrays", "b_out", 1, value=True), "'b_out' holds a value that is not a number"),
], ids=["no_model_config", "truncated", "nan_w_out", "meta_array", "huge_embed_dim",
        "float_embed_dim", "float_seed", "negative_seed", "bool_version", "bool_in_b_out"])
def test_eval_undecodable_checkpoint_exit_code(run_dir, tmp_path, capsys, corrupt, needle):
    cfg_path, out = run_dir
    bad = tmp_path / "checkpoint.json"
    bad.write_text(corrupt((out / "checkpoint.json").read_text()))
    code = main(["eval", "--config", str(cfg_path), "--out", str(out),
                 "--checkpoint", str(bad)])
    _assert_invalid_data(code, capsys, "ParseError", needle)


def _assert_invalid_data(code, capsys, *needles):
    err = capsys.readouterr().err
    assert code == 3
    assert all(needle in err for needle in needles), err
    assert "Traceback" not in err


def test_train_truncated_corpus_meta_exit_code(run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    bad = tmp_path / "run"
    bad.mkdir()
    shutil.copy(out / "corpus.json", bad / "corpus.json")
    text = (out / "corpus_meta.json").read_text()
    (bad / "corpus_meta.json").write_text(text[: len(text) // 2])
    code = main(["train", "--config", str(cfg_path), "--out", str(bad)])
    _assert_invalid_data(code, capsys, "ParseError", "corpus_meta.json", "not valid JSON")
    assert not (bad / "checkpoint.json").exists()


def test_train_non_array_segments_exit_code(run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    bad = tmp_path / "run"
    bad.mkdir()
    shutil.copy(out / "corpus_meta.json", bad / "corpus_meta.json")
    videos = json.loads((out / "corpus.json").read_text())
    videos[1]["segments"] = 5
    (bad / "corpus.json").write_text(json.dumps(videos))
    code = main(["train", "--config", str(cfg_path), "--out", str(bad)])
    _assert_invalid_data(code, capsys, "ParseError", videos[1]["id"], "'segments'")
    assert not (bad / "checkpoint.json").exists()


def _non_numeric_first_loss(text):
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[1] = "lots"
    return "\n".join([header, ",".join(cells), *rest]) + "\n"


def _drop_means(text):
    doc = json.loads(text)
    del doc["means"]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def evaluated(run_dir, tmp_path_factory):
    """A copy of run_dir after one eval, so it holds an eval_report.json."""
    cfg_path, out = run_dir
    copy = tmp_path_factory.mktemp("evaluated") / "run"
    shutil.copytree(out, copy)
    assert main(["eval", "--config", str(cfg_path), "--out", str(copy)]) == 0
    return cfg_path, copy


@pytest.mark.parametrize("name, corrupt, needle", [
    ("eval_report.json", lambda text: text[: len(text) // 2], "not valid JSON"),
    ("eval_report.json", _drop_means, "KeyError: 'means'"),
    ("eval_report.json", _set("records", value=[]), "no records"),
    ("eval_report.json", _set("means", "verb", value=True), "differ from the records"),
    ("eval_report.json", _set("num_instances", value="3"), "differ from the records"),
    ("eval_report.json", _set("means", "action", value=0.5), "differ from the records"),
    ("eval_report.json", _set("records", 0, "instance_id", value=7), "instance_id must be"),
    ("eval_report.json", _set("records", 1, "ed_noun", value=1.5), "ed_noun must be"),
    ("eval_report.json", _set("records", 2, "best_action", value=True), "best_action must be"),
    ("train_log.csv", _non_numeric_first_loss, "bad train log"),
], ids=["truncated_eval_report", "eval_report_without_means", "eval_report_without_records",
        "bool_mean", "str_num_instances", "mean_not_from_records", "int_instance_id",
        "ed_above_one", "bool_best_action", "non_numeric_train_loss"])
def test_report_undecodable_artifact_exit_code(evaluated, tmp_path, capsys, name, corrupt, needle):
    cfg_path, out = evaluated
    bad = tmp_path / "run"
    bad.mkdir()
    for artifact in ("eval_report.json", "train_log.csv"):
        shutil.copy(out / artifact, bad / artifact)
    (bad / name).write_text(corrupt((bad / name).read_text()))
    code = main(["report", "--config", str(cfg_path), "--out", str(bad)])
    _assert_invalid_data(code, capsys, "ParseError", name, needle)


def test_video_len_checked_against_configured_window(tmp_path, capsys):
    fits = {**SMALL_CONFIG, "scenario": {"num_videos": 12, "video_len": 20},
            "window": {"n_obs_fwd": 4, "z_fwd": 10, "n_obs_bwd": 8, "stride": 6}}
    fits_path = tmp_path / "fits.json"
    fits_path.write_text(json.dumps(fits))
    for command in ("gen-data", "train"):
        assert main([command, "--config", str(fits_path), "--out", str(tmp_path / "fits")]) == 0
    short = {**SMALL_CONFIG, "scenario": {"num_videos": 12, "video_len": 30},
             "window": {"n_obs_fwd": 10, "z_fwd": 25, "stride": 6}}
    short_path = tmp_path / "short.json"
    short_path.write_text(json.dumps(short))
    code = main(["gen-data", "--config", str(short_path), "--out", str(tmp_path / "short")])
    _assert_invalid_data(code, capsys, "ConfigError", "video_len 30", "35-segment window")
    assert not (tmp_path / "short").exists()


@pytest.mark.parametrize("doc", [
    {"eval_stride": "13"},
    {"ablate": {"seeds": [0, "1"]}},
    {"scenario": {"coupling": "0.8"}},
    {"seed": "1"},
    {"gen": {"k": 2.5}},
    {"gen": {"k": True}},
], ids=["str_eval_stride", "str_in_seeds", "str_coupling",
        "str_seed", "float_k", "bool_as_int"])
def test_config_value_of_wrong_type_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")])
    _assert_invalid_data(code, capsys, "ConfigError", "type of its default")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc", [
    {"ed": {"normalizer": "by_z"}},
    {"train": {"label_noise": 0.0}},
    {"train": {"loss_on_structure": True}},
    {"ed": {"allow_transpositions": True}},
    {"gen": {"strategy": "all_sampled"}},
    {"ablate": {"workers": 2}},
    {"scenario": {"num_scene_types": 1000000000000}},
    {"scenario": {"motifs_per_scene": 3}},
    {"scenario": {"motif_len_range": [1, 9223372036854775806]}},
], ids=["ed_normalizer", "train_label_noise", "train_loss_on_structure",
        "ed_allow_transpositions", "gen_strategy", "ablate_workers",
        "scenario.num_scene_types", "scenario.motifs_per_scene", "scenario.motif_len_range"])
def test_config_deleted_key_exit_code(tmp_path, capsys, doc):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    code = main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")])
    _assert_invalid_data(code, capsys, "ConfigError", "unknown keys", next(iter(doc)))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("doc, flags, needle", [
    ({}, ["gen-data", "--seed", "-1"], "seeds must be >= 0"),
    ({"seed": -1}, ["gen-data"], "seeds must be >= 0"),
    ({"ablate": {"seeds": [-1]}}, ["ablate", "--grid", "token_type"], "seeds must be >= 0"),
    ({"train": {"epochs": 0}}, ["gen-data"], "epochs must be >= 1"),
    ({"model": {"num_heads": 3}}, ["gen-data"], "not divisible by num_heads=3"),
    ({"gen": {"temperature": 0}}, ["gen-data"], "temperature must be > 0"),
    ({"gen": {"temperature": float("nan")}}, ["gen-data"], "temperature must be > 0 and finite"),
    ({"train": {"lr": float("nan")}}, ["gen-data"], "lr must be > 0 and finite"),
    ({"train": {"lr": float("inf")}}, ["gen-data"], "lr must be > 0 and finite"),
    ({"weights": {"alpha": float("nan")}}, ["gen-data"], "need finite alpha"),
    ({"weights": {"beta": float("inf")}}, ["gen-data"], "need finite alpha"),
    ({}, ["train", "--alpha", "nan"], "need finite alpha"),
], ids=["seed_flag", "seed_key", "ablate_seed", "zero_epochs", "indivisible_heads",
        "zero_temperature", "nan_temperature", "nan_lr", "inf_lr", "nan_alpha", "inf_beta",
        "nan_alpha_flag"])
def test_config_value_out_of_range_exit_code(tmp_path, capsys, doc, flags, needle):
    """Every section is checked when the config loads, before any work."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main([*flags, "--config", str(path), "--out", str(tmp_path / "o")])
    _assert_invalid_data(code, capsys, "ConfigError", needle)
    assert not (tmp_path / "o").exists()


def test_ablate_bad_flag_fails_before_training(run_dir, tmp_path, capsys, monkeypatch):
    cfg_path, _ = run_dir
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("an ablation cell trained"))
    code = main(["ablate", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--grid", "token_type", "--k", "0"])
    _assert_invalid_data(code, capsys, "ConfigError", "k must be >= 1")


def test_ablate_bad_cell_fails_before_training(tmp_path, capsys, monkeypatch):
    """n_obs_bwd=16 leaves no backward future in a 14-segment window, and the
    grid's earlier cells 4 and 8 are valid: no cell may train, and no file
    be written, before the last one is checked."""
    doc = {**SMALL_CONFIG, "window": {"n_obs_fwd": 4, "z_fwd": 10, "n_obs_bwd": 8, "stride": 6},
           "ablate": {"seeds": [0, 1]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "train", lambda *a, **k: pytest.fail("an ablation cell trained"))
    code = main(["ablate", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--grid", "obs_interval"])
    _assert_invalid_data(code, capsys, "ConfigError", "n_obs_bwd=16")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--out", "{file}"],
    ["gen-data", "--config", "{dir}", "--out", "{dir}/o"],
    ["eval", "--config", "{cfg}", "--out", "{out}", "--checkpoint", "{dir}"],
], ids=["out_is_file", "config_is_dir", "checkpoint_is_dir"])
def test_unusable_path_exit_code(run_dir, tmp_path, capsys, argv):
    """A file where a directory belongs, or the reverse, is exit 2."""
    cfg_path, out = run_dir
    (tmp_path / "file").write_text("")
    paths = {"file": tmp_path / "file", "dir": tmp_path, "cfg": cfg_path, "out": out}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "unreadable file" in err and "Traceback" not in err, err


def test_train_without_corpus(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "empty")]) == 2
    assert "missing file" in capsys.readouterr().err


def test_invalid_config_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    bad.write_text(json.dumps({"optimizer": "adam"}))
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_and_bad_grid_exit_via_argparse(run_dir):
    cfg_path, out = run_dir
    with pytest.raises(SystemExit):
        main(["train", "--learning-rate", "0.1"])
    with pytest.raises(SystemExit):
        main(["ablate", "--grid", "optimizer", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main(["ablate", "--grid", "token_type", "--workers", "2", "--out", str(out)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg_path), "--out", str(out), "--dump-encodings", "-3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_train_dump_encodings(run_dir, capsys):
    cfg_path, out = run_dir
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--dump-encodings", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "[forward]" in lines[0] and "|" in lines[0]
    assert "[backward]" in lines[1]


def test_ablate_token_type(run_dir, tmp_path, capsys):
    cfg_path, _ = run_dir
    out = tmp_path / "fresh"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out),
                 "--grid", "token_type"]) == 0
    captured = capsys.readouterr().out
    assert "token_type" in captured
    csv_path = out / "ablation_token_type.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "token_type,verb_mean,verb_std,noun_mean,noun_std,action_mean,action_std"
    assert (out / "ablation_token_type.txt").exists()


def test_ablation_cell_is_one_cli_run(run_dir, tmp_path):
    cfg_path, _ = run_dir
    out = tmp_path / "run"
    for command, *flags in (("gen-data",), ("train", "--beta", "0.5"), ("eval",)):
        assert main([command, "--config", str(cfg_path), "--out", str(out),
                     "--seed", "1", *flags]) == 0
    means = json.loads((out / "eval_report.json").read_text())["means"]
    table = run_ablation(LOSS_WEIGHTS, load_run_config(cfg_path), [1],
                         cells={"beta=0.5": {"beta": 0.5}})
    assert table.rows["beta=0.5"] == [(means["verb"], means["noun"], means["action"])]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exit_code(run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    div_dir = tmp_path / "div"
    div_dir.mkdir()
    for name in ("corpus.json", "corpus_meta.json"):
        shutil.copy(out / name, div_dir / name)
    doc = dict(SMALL_CONFIG)
    doc["train"] = {"epochs": 2, "batch_size": 16, "lr": 1e200}
    div_cfg = tmp_path / "div.json"
    div_cfg.write_text(json.dumps(doc))
    code = main(["train", "--config", str(div_cfg), "--out", str(div_dir)])
    assert code == 4
    assert "numerical divergence" in capsys.readouterr().err


def test_train_context_overflow_exit_code(run_dir, tmp_path, capsys):
    cfg_path, out = run_dir
    small_dir = tmp_path / "ctx"
    small_dir.mkdir()
    for name in ("corpus.json", "corpus_meta.json"):
        shutil.copy(out / name, small_dir / name)
    doc = dict(SMALL_CONFIG)
    doc["model"] = {**SMALL_CONFIG["model"], "context_len": 40}
    small_cfg = tmp_path / "ctx.json"
    small_cfg.write_text(json.dumps(doc))
    code = main(["train", "--config", str(small_cfg), "--out", str(small_dir)])
    err = capsys.readouterr().err
    assert code == 3
    assert "ContextOverflow" in err and "context_len is 40" in err
    assert "Traceback" not in err
    assert not (small_dir / "checkpoint.json").exists()


def test_gradcheck_command(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck: max relative error" in out
    assert "PASS" in out


def test_report_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 2
    assert main(["report", "--out", str(tmp_path / "missing")]) == 2
