"""End-to-end acceptance gate.

Each test checks one shipped guarantee and prints a [PASS]/[FAIL] line with
the measured numbers, so a bare `pytest tests/test_acceptance.py -v` doubles
as the release checklist. Numbered names keep the report in a fixed order.
"""

import dataclasses
import filecmp
import json
import math
import time

import numpy as np
import pytest

from biant.cli import LOSS_WEIGHTS, OBS_INTERVAL, TOKEN_TYPE, run_ablation
from biant.cli import main as cli_main
from biant.config import run_config_from_document
from biant.generate import GenerationConfig, generate_candidates
from biant.model import (
    LossWeights,
    ModelConfig,
    Parameters,
    batch_objective,
    gradient,
    gradient_check,
    init_adam,
    init_params,
    make_gradcheck_case,
    optimizer_step,
)
from biant.model import _gradient_detailed, _target_losses
from biant.prompt import DETAILED_DESCRIPTION, SPECIAL_TOKEN, TokenSpace, encode_instance
from biant.sequence import (
    WindowConfig,
    make_backward_instance,
    make_forward_instances,
)
from biant.train import TrainConfig, train
from biant.vocab import scaled_vocabulary

import golden
from conftest import SMALL_CONFIG, make_video
from reference import edit_distance, ref_edit_distance


@pytest.fixture
def announce(capsys):
    """Print one verdict line per criterion even under output capture."""

    def _announce(label: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
        assert ok, f"{label}: {detail}"

    return _announce


def small_model(space, seed=1):
    return ModelConfig(vocab_size=space.size, context_len=96, embed_dim=8,
                       num_heads=2, num_layers=1, mlp_hidden=12, seed=seed)


def test_01_edit_distance_matches_independent_reference(announce):
    rng = np.random.default_rng(0)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        a = rng.integers(0, 50, rng.integers(0, 26)).tolist()
        b = rng.integers(0, 50, rng.integers(0, 26)).tolist()
        if edit_distance(a, b) != ref_edit_distance(a, b):
            mismatches += 1
    elapsed = time.monotonic() - t0
    announce(
        "edit distance equals the independently written reference DP",
        mismatches == 0 and elapsed < 5.0,
        f"1000 random pairs (lengths 0-25, alphabet 50), "
        f"{mismatches} mismatches, {elapsed:.2f}s (budget 5s)",
    )


def test_02_analytic_gradient_matches_finite_differences(announce):
    t0 = time.monotonic()
    params, batch, weights = make_gradcheck_case(seed=0)
    err = gradient_check(params, batch, weights)
    elapsed = time.monotonic() - t0
    announce(
        "analytic gradient matches central finite differences",
        err < 1e-4 and elapsed < 60.0,
        f"max relative error {err:.3e} (tolerance 1e-4) on the "
        f"vocab-12/embed-8 model, {elapsed:.2f}s (budget 60s)",
    )


def test_03_joint_loss_linearity_and_forward_only_equivalence(announce, space):
    # The training objective on one (forward, backward) pair is
    # (alpha * l_fwd + beta * l_bwd) / 2, so it must equal
    # alpha * J(1, 0) + beta * J(0, 1) bitwise, and J(1, 0), J(0, 1) must be
    # each direction's own loss over 2.
    rng = np.random.default_rng(1)
    max_diff = 0.0
    direction_ok = True
    pairs = 0
    for pair_space in (space, TokenSpace(scaled_vocabulary())):
        params = init_params(small_model(pair_space))
        for i in range(80):
            fwd = make_forward_instances(make_video("p", 28, seed=800 + i), WindowConfig())[0]
            mode = (SPECIAL_TOKEN, DETAILED_DESCRIPTION)[i % 2]
            pair = [encode_instance(pair_space, inst, mode)
                    for inst in (fwd, make_backward_instance(fwd, 16))]
            alpha, beta = rng.uniform(0.01, 2.0, 2)
            j_fwd = batch_objective(params, pair, LossWeights(1.0, 0.0))
            j_bwd = batch_objective(params, pair, LossWeights(0.0, 1.0))
            got = batch_objective(params, pair, LossWeights(alpha, beta))
            max_diff = max(max_diff, abs(got - (alpha * j_fwd + beta * j_bwd)))
            l_fwd, l_bwd = _gradient_detailed(params, pair, LossWeights())[1].per_instance
            direction_ok = direction_ok and (j_fwd, j_bwd) == (l_fwd / 2, l_bwd / 2)
            pairs += 1
    linear_ok = max_diff == 0.0 and direction_ok

    # A loop with no backward code path at all, snapshotted every epoch.
    videos = [make_video("a0", 30, seed=70), make_video("a1", 29, seed=71)]
    cfg = TrainConfig(weights=LossWeights(1.0, 0.0), epochs=3, batch_size=2, seed=4)
    model_cfg = small_model(space)
    dataset = [encode_instance(space, inst, cfg.preamble)
               for video in videos
               for inst in make_forward_instances(video, cfg.window)]
    params = init_params(model_cfg)
    state = init_adam(params)
    snapshots = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 7, epoch])
        ).permutation(len(dataset))
        for start in range(0, len(order), cfg.batch_size):
            batch = [dataset[i] for i in order[start : start + cfg.batch_size]]
            grads, _ = gradient(params, batch, cfg.weights)
            params, state = optimizer_step(params, grads, state, cfg.lr)
        snapshots.append(params)

    bitwise_ok = True
    for epochs_run, snapshot in enumerate(snapshots, start=1):
        joint, _ = train(videos, dataclasses.replace(cfg, epochs=epochs_run),
                         model_cfg, space)
        for name in joint.arrays:
            if not np.array_equal(joint.arrays[name], snapshot.arrays[name]):
                bitwise_ok = False

    announce(
        "joint loss is linear in (alpha, beta) and beta=0 training is "
        "bitwise forward-only",
        linear_ok and bitwise_ok,
        f"{pairs} (fwd, bwd) pairs at V=42 and V=660, max |J(a,b) - (a*J(1,0) + "
        f"b*J(0,1))| = {max_diff:.1e}, J(1,0) and J(0,1) each one direction's loss: "
        f"{direction_ok}; "
        f"3-epoch trajectory bitwise-equal to the backward-free loop: {bitwise_ok}",
    )


def test_04_reversal_invariants(announce):
    window = WindowConfig()
    checked = 0
    ok = True
    default_shape = None
    for vid_seed in range(12):
        video = make_video(f"r{vid_seed}", 40, seed=100 + vid_seed)
        for fwd in make_forward_instances(video, window):
            for n_obs_bwd in (1, 4, 8, 16, 24, 27):
                bwd = make_backward_instance(fwd, n_obs_bwd)
                full_fwd = list(fwd.observed + fwd.future)
                full_bwd = list(bwd.observed + bwd.future)
                if list(reversed(full_bwd)) != full_fwd:
                    ok = False
                if len(bwd.future) != window.n_obs_fwd + window.z_fwd - n_obs_bwd:
                    ok = False
                checked += 1
                if n_obs_bwd == window.n_obs_bwd:
                    default_shape = (len(bwd.observed), len(bwd.future))
    ok = ok and default_shape == (16, 12)
    announce(
        "backward instances are exact reversals with complementary lengths",
        ok,
        f"{checked} instances: reverse(observed+future) matches, "
        f"backward z = n_obs + z - n_obs_bwd, default split {default_shape}",
    )


def test_05_constrained_decoding_is_grammar_complete(announce, space):
    total = 0
    complete = 0
    t0 = time.monotonic()

    def tally(params, observed, z, k, mode, tag, seed):
        nonlocal total, complete
        cs = generate_candidates(params, space, observed, z,
                                 GenerationConfig(k=k, temperature=1.3, seed=seed),
                                 mode, instance_id=tag)
        total += k
        complete += sum(len(c) == z for c in cs.candidates)

    # Random parameter draws at a hot scale, mixed z and preambles.
    for seed in range(34):
        params = init_params(small_model(space, seed))
        rng = np.random.default_rng(1000 + seed)
        for name, arr in params.arrays.items():
            params.arrays[name] = rng.normal(0.0, 0.6, arr.shape)
        obs = make_video("g", 4, seed=seed).segments
        for z in (1, 2, 4):
            mode = SPECIAL_TOKEN if z % 2 else DETAILED_DESCRIPTION
            tally(params, obs, z, 10, mode, f"rand{seed}:z{z}", seed)

    # A briefly trained model at the full default horizon z=20.
    videos = [make_video(f"t{i}", 40, seed=200 + i) for i in range(6)]
    cfg = TrainConfig(window=WindowConfig(stride=6), epochs=1, batch_size=32, seed=0)
    params, _ = train(videos, cfg, small_model(space), space)
    eval_videos = [make_video("e0", 40, seed=300)]
    for inst in make_forward_instances(eval_videos[0], WindowConfig(stride=2)):
        tally(params, inst.observed, 20, 5, SPECIAL_TOKEN, inst.instance_id, 9)

    elapsed = time.monotonic() - t0
    announce(
        "constrained decoding always yields grammar-complete length-z futures",
        total >= 1000 and complete == total,
        f"{complete}/{total} generations complete "
        f"(random and trained parameters, z in {{1,2,4,20}}), {elapsed:.1f}s",
    )


def test_06_bidirectional_training_beats_or_ties_forward_only(announce):
    t0 = time.monotonic()
    eds = golden.direction_eds()
    deltas = [b - f for f, b in zip(eds["forward_only"], eds["bidirectional"])]
    per_seed = [f"seed{seed}:{delta:+.4f}" for seed, delta in enumerate(deltas)]
    elapsed = time.monotonic() - t0
    mean_delta = float(np.mean(deltas))
    expected = golden.load()["direction_eds"]
    announce(
        "bidirectional training matches or beats forward-only on action ED",
        mean_delta <= 0.01 and elapsed < 900.0 and eds == expected,
        f"mean action-ED delta {mean_delta:+.4f} (criterion <= +0.01) over 5 seeds "
        f"[{', '.join(per_seed)}], {elapsed:.0f}s (budget 900s); per-seed EDs "
        + ("equal golden.json" if eds == expected else
           golden.mismatch("differ from golden.json", eds, expected)),
    )


def test_07_ablation_tables_have_the_study_layouts(announce, tmp_path):
    cfg = run_config_from_document(SMALL_CONFIG)
    expected_rows = {
        OBS_INTERVAL: ["4", "8", "16", "24"],
        LOSS_WEIGHTS: ["alpha=1 beta=0.5", "alpha=1 beta=0.75", "alpha=1 beta=1"],
        TOKEN_TYPE: ["detailed_description", "special_token"],
    }
    ok = True
    details = []
    for grid in (OBS_INTERVAL, LOSS_WEIGHTS, TOKEN_TYPE):
        table = run_ablation(grid, cfg, seeds=[0])
        labels = list(table.rows)
        path = tmp_path / f"ablation_{grid}.csv"
        table.to_csv(path)
        lines = path.read_text().strip().split("\n")
        header_ok = lines[0] == (f"{grid},verb_mean,verb_std,noun_mean,noun_std,"
                                 f"action_mean,action_std")
        values_ok = all(
            0.0 <= float(cell) <= 2.0
            for line in lines[1:] for cell in line.split(",")[1:]
        )
        if labels != expected_rows[grid] or not header_ok or not values_ok:
            ok = False
        details.append(f"{grid}: {len(labels)} rows")
    announce(
        "ablation harness emits the three expected table layouts",
        ok,
        "; ".join(details) + " with per-axis mean/std columns, one small run per cell",
    )


def test_08_pipeline_is_byte_deterministic(announce, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(golden.PIPELINE_CONFIG))
    compared = ["vocab.json", "corpus.json", "corpus_meta.json", "checkpoint.json",
                "eval_report.json", "eval_summary.csv"]
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        for command in ("gen-data", "train", "eval"):
            code = cli_main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0, f"{command} exited {code}"
        outs.append(out)
    identical = [name for name in compared
                 if filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)]
    announce(
        "gen-data -> train -> eval reruns are byte-identical",
        identical == compared,
        f"{len(identical)}/{len(compared)} output artifacts byte-identical "
        f"(config echoes record the run directory and train_log.csv records "
        f"wallclock, so both are excluded)",
    )


def test_09_closed_form_loss_values(announce, space):
    # Uniform: a zero output head predicts 1/V everywhere, so the training
    # objective of one instance (weight 1) is M * ln V. Perfect: one-hot
    # hidden rows through a 1000 * I head put all the mass on each target.
    worst_uniform = 0.0
    worst_perfect = 0.0
    cases = 0
    for loss_space in (space, TokenSpace(scaled_vocabulary())):
        v = loss_space.size
        params = init_params(small_model(loss_space))
        params.arrays["w_out"][:] = 0.0
        params.arrays["b_out"][:] = 0.0
        head = Parameters(params.config, {"w_out": 1000.0 * np.eye(v), "b_out": np.zeros(v)})
        for seed in (0, 1):
            video = make_video("l", 29, seed=600 + seed)
            for fwd in make_forward_instances(video, WindowConfig()):
                for inst in (fwd, make_backward_instance(fwd, 16)):
                    for mode in (SPECIAL_TOKEN, DETAILED_DESCRIPTION):
                        enc = encode_instance(loss_space, inst, mode)
                        targets = enc.tokens[enc.prompt_len :]
                        uniform = batch_objective(params, [enc], LossWeights())
                        worst_uniform = max(worst_uniform,
                                            abs(uniform - len(targets) * math.log(v)))
                        nll, _ = _target_losses(head, np.eye(v)[targets], targets)
                        worst_perfect = max(worst_perfect, abs(float(nll.sum())))
                        cases += 1
    announce(
        "training objective hits its closed forms",
        worst_uniform <= 1e-9 and worst_perfect == 0.0,
        f"{cases} encodings at V=42 and V=660: uniform-head loss within "
        f"{worst_uniform:.1e} of M*ln(V) (tolerance 1e-9), perfect-prediction "
        f"loss at most {worst_perfect:.1e} (must be exactly 0)",
    )
