"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop: one client in one process, and the next
operation starts only after the previous one ends. The benchmark drives
biant through ``biant.cli.main`` in-process (``gen-data``, ``train``,
``eval``), plus ``biant.model`` for a warm-up and for reading checkpoints
back, and looks every entry point up on its module at call time so that a
traced phase sees the wrappers ``Tracer.traced`` installs.

- ``pipeline-demo``: ``gen-data``, ``train`` and ``eval`` on the acceptance
  test_06 config (demo vocab, 200 videos, stride 6, 8 epochs,
  alpha = beta = 1, K = 5, eval_stride 13).
- ``decode-wide``: set-up runs ``gen-data`` and a 1-epoch ``train``; the
  timed operation is ``eval`` with K = 20.
- ``train-scaled``: the 660-token scaled vocabulary; set-up runs
  ``gen-data``; the timed operation is a 3-epoch ``train`` (which saves the
  checkpoint) plus loading the checkpoint back. A greedy K = 1 ``eval``
  after the timed operations supplies its quality number.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Target, Tracer, patched, percentile, self_times, wrapper_cost

cli = importlib.import_module("biant.cli")
config = importlib.import_module("biant.config")
data = importlib.import_module("biant.data")
evaluation = importlib.import_module("biant.evaluation")
generate = importlib.import_module("biant.generate")
model = importlib.import_module("biant.model")
prompt = importlib.import_module("biant.prompt")
sequence = importlib.import_module("biant.sequence")
train_mod = importlib.import_module("biant.train")
vocab_mod = importlib.import_module("biant.vocab")
errors = importlib.import_module("biant.errors")


@dataclass(frozen=True)
class Scale:
    """Workload sizes; FULL is the benchmark, SMOKE exercises every path fast."""

    num_videos: int = 200
    demo_epochs: int = 8
    wide_k: int = 20
    scaled_epochs: int = 3
    setup_reps: int = 3


FULL = Scale()
SMOKE = Scale(num_videos=20, demo_epochs=1, wide_k=2, scaled_epochs=1, setup_reps=2)


# -- checks -------------------------------------------------------------------


class Checks:
    """Counts output checks attempted and keeps a line per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_candidates(checks: Checks, calls) -> None:
    """Each instance: exactly k candidates of exactly z actions that parse."""
    for space, z, k, cands in calls:
        ok = len(cands.candidates) == k
        for cand in cands.candidates:
            try:
                tokens = []
                for i, a in enumerate(cand):
                    last = i == len(cand) - 1
                    tokens += [space.verb_token(a.verb), space.noun_token(a.noun),
                               prompt.EOS if last else prompt.SEP]
                ok = ok and len(cand) == z and prompt.decode_actions(space, tokens) == list(cand)
            except errors.BiantError:
                ok = False
        checks.check(ok, f"candidates of {cands.instance_id!r} are not {k} x {z} "
                         f"grammar-complete actions")


def check_losses(checks: Checks, steps) -> None:
    for i, (loss, _tokens) in enumerate(steps):
        checks.check(bool(np.isfinite(loss)), f"training step {i} loss {loss} is not finite")


def check_records(checks: Checks, records) -> None:
    for r in records:
        eds = (r.ed_verb, r.ed_noun, r.ed_action)
        checks.check(all(0.0 <= e <= 1.0 for e in eds), f"{r.instance_id}: ED {eds} outside [0, 1]")


def check_round_trip(checks: Checks, saved, loaded) -> None:
    same = saved.arrays.keys() == loaded.arrays.keys() and all(
        a.dtype == loaded.arrays[k].dtype and a.shape == loaded.arrays[k].shape
        and a.tobytes() == loaded.arrays[k].tobytes() for k, a in saved.arrays.items())
    checks.check(same and saved.config == loaded.config,
                 "checkpoint load did not return the saved arrays bitwise")


# -- digests and computed FLOPs ------------------------------------------------


def params_digest(params) -> str:
    """sha256 over the float64 bytes of every array, in sorted-name order."""
    h = hashlib.sha256()
    for name in sorted(params.arrays):
        h.update(params.arrays[name].tobytes())
    return h.hexdigest()


def records_digest(records) -> str:
    doc = json.dumps([vars(r) for r in records], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def forward_flops(cfg, batch: int, t: int) -> int:
    """Computed matmul FLOPs (2 per multiply-add) of one forward on (batch, t)."""
    d, m = cfg.embed_dim, cfg.mlp_hidden
    per_layer = 2 * 4 * d * d + 2 * 2 * d * m + 2 * 2 * t * d  # qkvo, mlp, qk^T and attn@v
    return batch * t * (cfg.num_layers * per_layer + 2 * d * cfg.vocab_size)


# -- one phase's outputs ----------------------------------------------------------


@dataclass
class Phase:
    """What one set-up, timed operation or verification produced."""

    seconds: float = 0.0
    train_tokens: int = 0
    train_s: float = 0.0
    decode_tokens: int = 0
    decode_s: float = 0.0
    final_loss: float | None = None
    ed_action: float | None = None
    digests: dict[str, str] = field(default_factory=dict)


class Probe:
    """Keeps what the checks need from every call to a few biant functions.

    Installed for the whole run, so the checks see the program's outputs in
    untraced and traced runs alike; a recorded call costs one list append.
    """

    TARGETS = {
        # training step -> (loss, non-pad tokens through forward, backward and Adam)
        "train_step": (train_mod, "_gradient_detailed", lambda a, k, r: (
            r[1].objective, sum(len(e.tokens) for e in a[1]))),
        # one eval instance -> (token space, z, k, CandidateSet)
        "candidates": (evaluation, "generate_candidates", lambda a, k, r: (a[1], a[3], a[4].k, r)),
        # `biant train` checkpoint write -> (params, path)
        "cli_save": (cli, "save_checkpoint", lambda a, k, r: (a[0], a[1])),
    }

    def __init__(self) -> None:
        self.calls: dict[str, list] = {name: [] for name in self.TARGETS}

    def installed(self):
        def recorder(name, keep):
            def make(fn):
                def recorded(*args, **kwargs):
                    result = fn(*args, **kwargs)
                    self.calls[name].append(keep(args, kwargs, result))
                    return result
                return recorded
            return make
        return patched([(mod, attr, recorder(name, keep))
                        for name, (mod, attr, keep) in self.TARGETS.items()])

    def take(self, name: str) -> list:
        calls, self.calls[name] = self.calls[name], []
        return calls


def _emitted_tokens(candidate_calls) -> int:
    """Every candidate of z actions is 3z emitted tokens: verb, noun, SEP or EOS."""
    return sum(3 * len(c) for *_, cands in candidate_calls for c in cands.candidates)


# -- workloads ---------------------------------------------------------------------


@dataclass
class Run:
    """Per-process context handed to every phase of a workload."""

    seed: int
    scale: Scale
    work: Path
    checks: Checks = field(default_factory=Checks)
    probe: Probe = field(default_factory=Probe)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def warm_up(cfg) -> None:
    """One gradient, Adam step and forward on a random batch of the real shape.

    Calls only ``biant.model`` names that no trace target wraps, so it adds
    no span and no count; it lets lazy allocation and BLAS start-up finish
    before any timed operation.
    """
    space = prompt.TokenSpace(config.resolve_vocab(cfg))
    tcfg = config.train_config(cfg)
    rng = np.random.default_rng(0)
    video = sequence.AnnotatedVideo("warmup", tuple(
        vocab_mod.ActionLabel(int(rng.integers(space.num_verbs)), int(rng.integers(space.num_nouns)))
        for _ in range(tcfg.window.window_len)))
    inst = sequence.make_forward_instances(video, tcfg.window)[0]
    batch = [prompt.encode_instance(space, inst, tcfg.preamble)] * tcfg.batch_size
    params = model.init_params(config.model_config(cfg, space))
    grads, _ = model.gradient(params, batch, tcfg.weights)
    model.optimizer_step(params, grads, model.init_adam(params), tcfg.lr)
    model.forward(params, batch[0].tokens)


CONFIG = "bench_config.json"


def _cli(run: Run, command: str, setup_dir: Path, out: Path) -> float:
    """Run one ``biant`` command in-process on the set-up's config; its wall time."""
    argv = [command, "--config", str(setup_dir / CONFIG), "--out", str(out)]
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    run.checks.check(code == 0, f"`biant {command}` exited {code}")
    return elapsed


def _trained(run: Run, out: Path, phase: Phase, loaded) -> None:
    """Check the `biant train` that just wrote ``out``; record its figures."""
    steps = run.probe.take("train_step")
    check_losses(run.checks, steps)
    phase.train_tokens = sum(tokens for _loss, tokens in steps)
    ((saved, _path),) = run.probe.take("cli_save")
    check_round_trip(run.checks, saved, loaded)
    phase.digests["params"] = params_digest(saved)
    with open(out / "train_log.csv", encoding="utf-8") as fh:
        phase.final_loss = float(list(csv.DictReader(fh))[-1]["mean_loss"])


def _evaluated(run: Run, out: Path, phase: Phase) -> None:
    """Check the `biant eval` that just wrote ``out``; record its figures."""
    cands = run.probe.take("candidates")
    check_candidates(run.checks, cands)
    phase.decode_tokens = _emitted_tokens(cands)
    report = evaluation.EvalReport.from_json(out / "eval_report.json")
    check_records(run.checks, report.records)
    phase.ed_action = report.mean_action
    phase.digests["records"] = records_digest(report.records)


def _load(out: Path):
    return model.load_checkpoint(out / "checkpoint.json")[0]


class Workload:
    """Set-up writes a run config (and may build a corpus and model) into its
    own directory and returns (that directory, Phase or None); ``op`` is the
    timed operation; ``verify`` runs once after the timed operations."""

    name = ""

    def setup(self, run: Run, rep: int) -> tuple[Path, Phase | None]:
        raise NotImplementedError

    def op(self, run: Run, setup_dir: Path, index: int) -> Phase:
        raise NotImplementedError

    def verify(self, run: Run, setup_dir: Path) -> Phase | None:
        return None

    def _prepare(self, run: Run, rep: int, **changes) -> Path:
        """The test_06 config with ``changes``, saved for the CLI, plus a warm-up."""
        cfg = dataclasses.replace(
            config.RunConfig(seed=run.seed, eval_stride=13, window=sequence.WindowConfig(stride=6),
                             scenario=data.ScenarioConfig(num_videos=run.scale.num_videos)),
            **changes)
        setup_dir = run.work / f"setup{rep}"
        setup_dir.mkdir()
        config.save_run_config(cfg, setup_dir / CONFIG)
        warm_up(cfg)
        return setup_dir


class PipelineDemo(Workload):
    name = "pipeline-demo"

    def setup(self, run: Run, rep: int):
        return self._prepare(run, rep, epochs=run.scale.demo_epochs), None

    def op(self, run: Run, setup_dir: Path, index: int) -> Phase:
        out = run.work / f"op{index}"
        phase = Phase()
        t0 = time.perf_counter()
        _cli(run, "gen-data", setup_dir, out)
        phase.train_s = _cli(run, "train", setup_dir, out)
        phase.decode_s = _cli(run, "eval", setup_dir, out)
        phase.seconds = time.perf_counter() - t0
        _trained(run, out, phase, _load(out))
        _evaluated(run, out, phase)
        return phase


class DecodeWide(Workload):
    name = "decode-wide"

    def setup(self, run: Run, rep: int):
        setup_dir = self._prepare(run, rep, epochs=1, k=run.scale.wide_k)
        phase = Phase()
        _cli(run, "gen-data", setup_dir, setup_dir)
        phase.train_s = _cli(run, "train", setup_dir, setup_dir)
        _trained(run, setup_dir, phase, _load(setup_dir))
        return setup_dir, phase

    def op(self, run: Run, setup_dir: Path, index: int) -> Phase:
        phase = Phase()
        phase.seconds = phase.decode_s = _cli(run, "eval", setup_dir, setup_dir)
        _evaluated(run, setup_dir, phase)
        return phase


class TrainScaled(Workload):
    name = "train-scaled"

    def setup(self, run: Run, rep: int):
        setup_dir = self._prepare(run, rep, vocab="scaled", epochs=run.scale.scaled_epochs, k=1)
        _cli(run, "gen-data", setup_dir, setup_dir)
        return setup_dir, None

    def op(self, run: Run, setup_dir: Path, index: int) -> Phase:
        phase = Phase()
        t0 = time.perf_counter()
        phase.train_s = _cli(run, "train", setup_dir, setup_dir)
        loaded = _load(setup_dir)
        phase.seconds = time.perf_counter() - t0
        _trained(run, setup_dir, phase, loaded)
        return phase

    def verify(self, run: Run, setup_dir: Path) -> Phase:
        """Greedy K=1 `biant eval` of the last trained model: ed_action and decode rate."""
        phase = Phase()
        phase.seconds = phase.decode_s = _cli(run, "eval", setup_dir, setup_dir)
        _evaluated(run, setup_dir, phase)
        return phase


WORKLOADS = {w.name: w for w in (PipelineDemo(), DecodeWide(), TrainScaled())}


# -- tracing --------------------------------------------------------------------------


def _gradient_counts(args, _kwargs, _result):
    params, batch = args[0], args[1]
    t_max = max(len(e.tokens) for e in batch)
    return {"model.gradient_calls": 1, "train.tokens": sum(len(e.tokens) for e in batch),
            "model.computed_train_flops": 3 * forward_flops(params.config, len(batch), t_max)}


def _forward_counts(args, _kwargs, _result):
    params, tokens = args[0], args[1]
    b, t = tokens.shape
    return {"model.decode_forward_calls": 1, "model.decode_forward_tokens": b * t,
            "model.computed_decode_flops": forward_flops(params.config, b, t)}


def trace_targets() -> list[Target]:
    """The module-level functions that cli, train, generate and evaluation
    call, under the module name each caller looks them up by."""
    return [
        Target(cli, "cmd_gen_data", "cli.gen_data"),
        Target(cli, "cmd_train", "cli.train"),
        Target(cli, "cmd_eval", "cli.eval"),
        Target(cli, "generate_corpus", "data.generate_corpus"),
        *(Target(cli, f, "data.corpus_io") for f in
          ("save_vocabulary", "save_annotations", "save_corpus_meta", "load_corpus")),
        Target(cli, "train", "train.loop"),
        Target(cli, "evaluate", "evaluation.loop"),
        Target(cli, "save_checkpoint", "model.checkpoint_save",
               count=lambda a, k, r: {"model.checkpoint_bytes": Path(a[1]).stat().st_size}),
        Target(cli, "load_checkpoint", "model.checkpoint_load"),
        Target(model, "load_checkpoint", "model.checkpoint_load"),  # the benchmark's own load
        Target(train_mod, "build_training_set", "train.build_training_set",
               count=lambda a, k, r: {"prompt.encoded_instances": len(r)}),
        Target(train_mod, "_gradient_detailed", "model.gradient",
               group=lambda a, k, n=itertools.count(): f"batch{next(n)}", count=_gradient_counts),
        Target(train_mod, "optimizer_step", "model.optimizer_step",
               count=lambda a, k, r: {"model.optimizer_steps": 1}),
        Target(evaluation, "generate_candidates", "generate.generate_candidates",
               group=lambda a, k: k.get("instance_id", "")),
        Target(evaluation, "score_instance", "evaluation.score_instance",
               count=lambda a, k, r: {"evaluation.scored_candidates": len(a[0].candidates)}),
        Target(generate, "_decode_one", "generate.decode_one",
               count=lambda a, k, r: {"generate.candidates": 1, "generate.emitted_tokens": len(r)}),
        Target(generate, "_forward_batch", "model.decode_forward", count=_forward_counts),
    ]


# Span name -> per-layer self-time metric. Root spans (bench.*) are unspanned time.
SELF_TIME = {
    "cli.gen_data": "cli.gen_data_s",
    "cli.train": "cli.train_s",
    "cli.eval": "cli.eval_s",
    "data.generate_corpus": "data.generate_corpus_s",
    "data.corpus_io": "data.corpus_io_s",
    "train.loop": "train.loop_s",
    "train.build_training_set": "train.build_training_set_s",
    "model.gradient": "model.gradient_s",
    "model.optimizer_step": "model.optimizer_step_s",
    "model.checkpoint_save": "model.checkpoint_save_s",
    "model.checkpoint_load": "model.checkpoint_load_s",
    "model.decode_forward": "model.decode_forward_s",
    "generate.generate_candidates": "generate.self_s",
    "generate.decode_one": "generate.self_s",
    "evaluation.loop": "evaluation.loop_s",
    "evaluation.score_instance": "evaluation.score_s",
}
COUNTS = ("prompt.encoded_instances", "train.tokens", "model.gradient_calls",
          "model.optimizer_steps", "model.checkpoint_bytes", "model.decode_forward_calls",
          "model.decode_forward_tokens", "generate.candidates", "generate.emitted_tokens",
          "evaluation.scored_candidates")


def layer_metrics(tracer: Tracer, untraced_op_s: float) -> dict[str, float]:
    """Per-layer table of one traced pass (set-up, one operation, verification)."""
    selfs = self_times(tracer.spans)
    out = {name: 0.0 for name in SELF_TIME.values()}
    unspanned = wall = traced_op = 0.0
    for span, own in zip(tracer.spans, selfs):
        if span.parent == -1:
            unspanned += own
            wall += span.duration
            if span.name == "bench.op":
                traced_op += span.duration
        else:
            out[SELF_TIME[span.name]] += own

    def durations_ms(name):
        return [1e3 * s.duration for s in tracer.spans if s.name == name]

    counts = {name: tracer.counts.get(name, 0) for name in COUNTS}
    out.update(counts)
    out.update({
        "bench.unspanned_s": unspanned,
        "bench.traced_wall_s": wall,
        "bench.traced_op_s": traced_op,
        "bench.untraced_op_s": untraced_op_s,
        "bench.trace_overhead_s": traced_op - untraced_op_s,
        "bench.trace_overhead_computed_s": wrapper_cost() * len(tracer.spans),
        "bench.spans": len(tracer.spans),
        "model.gradient_ms.p50": percentile(durations_ms("model.gradient"), 50),
        "model.gradient_ms.p95": percentile(durations_ms("model.gradient"), 95),
        "generate.candidate_ms.p50": percentile(durations_ms("generate.decode_one"), 50),
        "generate.candidate_ms.p99": percentile(durations_ms("generate.decode_one"), 99),
        "generate.emitted_per_forward_token": _ratio(counts["generate.emitted_tokens"],
                                                     counts["model.decode_forward_tokens"]),
        "model.computed_flops_per_train_token": _ratio(
            tracer.counts.get("model.computed_train_flops", 0), counts["train.tokens"]),
        "model.computed_flops_per_decode_step": _ratio(
            tracer.counts.get("model.computed_decode_flops", 0),
            counts["model.decode_forward_calls"]),
    })
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- driving one workload ---------------------------------------------------------------


@dataclass
class Outcome:
    metrics: dict[str, float]
    checks: Checks
    digests: dict[str, str]
    spans: list
    ops: int


def _median_rate(phases, tokens: str, seconds: str) -> float:
    rates = [getattr(p, tokens) / getattr(p, seconds) for p in phases if getattr(p, tokens)]
    return statistics.median(rates) if rates else 0.0


def _check_repeats(checks: Checks, phases) -> None:
    """Identical inputs must give bitwise-identical parameters and records."""
    for p in phases[1:]:
        checks.check(p.digests == phases[0].digests,
                     f"rerun digests {p.digests} differ from {phases[0].digests}")


def _first(phases, attr: str) -> float:
    return next(getattr(p, attr) for p in phases if getattr(p, attr) is not None)


def run_untraced(workload: Workload, run: Run, seconds: float) -> Outcome:
    """Set up several times, then run whole operations until ``seconds`` have passed."""
    setups, setup_phases, ops = [], [], []
    with run.probe.installed():
        for rep in range(run.scale.setup_reps):
            (state, phase), elapsed = _timed(workload.setup, run, rep)
            setups.append(elapsed)
            if phase is not None:
                setup_phases.append(phase)
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            ops.append(workload.op(run, state, len(ops)))
        verified = workload.verify(run, state)
    _check_repeats(run.checks, setup_phases)
    _check_repeats(run.checks, ops)
    phases = setup_phases + ops + ([verified] if verified else [])
    checks = run.checks
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.seconds for p in ops),
        "train_tokens_per_s": _median_rate(phases, "train_tokens", "train_s"),
        "decode_tokens_per_s": _median_rate(phases, "decode_tokens", "decode_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks_passed_ratio": (checks.attempted - len(checks.failures)) / max(checks.attempted, 1),
        "ed_action": _first(phases, "ed_action"),
        "final_loss": _first(phases, "final_loss"),
    }
    digests = {}
    for p in phases:
        digests.update(p.digests)
    return Outcome(metrics, checks, digests, [], len(ops))


def run_traced(workload: Workload, run: Run) -> Outcome:
    """One traced set-up, one untraced and one traced operation, then verification."""
    tracer = Tracer()
    targets = trace_targets()
    with run.probe.installed():
        with tracer.traced(targets), tracer.span("bench.setup", "setup0"):
            state, setup_phase = workload.setup(run, 0)
        untraced = workload.op(run, state, 0)
        with tracer.traced(targets), tracer.span("bench.op", "op1"):
            traced = workload.op(run, state, 1)
        with tracer.traced(targets), tracer.span("bench.verify", "verify"):
            verified = workload.verify(run, state)
    _check_repeats(run.checks, [untraced, traced])
    metrics = layer_metrics(tracer, untraced.seconds)
    selfs = sum(metrics[name] for name in set(SELF_TIME.values()))
    run.checks.check(abs(selfs + metrics["bench.unspanned_s"] - metrics["bench.traced_wall_s"]) < 1e-6,
                     "per-layer self times plus unspanned time do not add up to the traced wall")
    digests = {}
    for p in (setup_phase, traced, verified):
        digests.update(p.digests if p else {})
    return Outcome(metrics, run.checks, digests, tracer.spans, 2)
