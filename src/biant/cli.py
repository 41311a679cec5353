"""Command-line pipeline: gen-data -> train -> eval (+ ablate, gradcheck, report).

Every command echoes its fully-resolved config into the run directory, so a
run is reproducible from the artifacts alone; an ablation cell is one such run,
in memory. Exit codes: 0 success, 2 missing or unreadable file, 3 invalid
config or data, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (
    RunConfig,
    apply_overrides,
    eval_window,
    gen_config,
    load_run_config,
    model_config,
    resolve_vocab,
    save_run_config,
    scenario_config,
    train_config,
)
from .data import generate_corpus, load_corpus, save_annotations, save_corpus_meta
from .errors import BiantError, ConfigError, NumericalDivergence, ParseError
from .evaluation import AXES, EvalReport, evaluate
from .model import (
    gradient_check,
    load_checkpoint,
    make_gradcheck_case,
    save_checkpoint,
)
from .prompt import DETAILED_DESCRIPTION, SPECIAL_TOKEN, TokenSpace, dump_encoding
from .train import build_training_set, train
from .vocab import save_vocabulary

GRADCHECK_TOL = 1e-4


def _resolved(args) -> RunConfig:
    cfg = load_run_config(args.config)
    return apply_overrides(
        cfg,
        out=args.out,
        seed=args.seed,
        preamble=getattr(args, "preamble", None),
        alpha=getattr(args, "alpha", None),
        beta=getattr(args, "beta", None),
        n_obs_bwd=getattr(args, "n_obs_bwd", None),
        k=getattr(args, "k", None),
    )


def _prepare_out(cfg: RunConfig, command: str) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    save_run_config(cfg, out / f"config_{command}.json")
    return out


def _load_corpus(cfg: RunConfig, out: Path):
    vocab = resolve_vocab(cfg)
    corpus = load_corpus(out / "corpus.json", out / "corpus_meta.json", vocab)
    return vocab, corpus


OBS_INTERVAL = "obs_interval"
LOSS_WEIGHTS = "loss_weights"
TOKEN_TYPE = "token_type"

# Each grid maps a row label to the CLI-flag overrides of that cell.
ABLATION_GRIDS: dict[str, dict[str, dict]] = {
    OBS_INTERVAL: {str(n): {"n_obs_bwd": n} for n in (4, 8, 16, 24)},
    LOSS_WEIGHTS: {f"alpha=1 beta={b:g}": {"alpha": 1.0, "beta": b} for b in (0.5, 0.75, 1.0)},
    TOKEN_TYPE: {mode: {"preamble": mode} for mode in (DETAILED_DESCRIPTION, SPECIAL_TOKEN)},
}


@dataclass
class AblationTable:
    """One ablation layout: one row per grid cell, holding its (verb, noun,
    action) mean ED per master seed in seed order; the table shows each
    axis's mean and std over the seeds."""

    grid: str
    seeds: list[int]
    rows: dict[str, list[tuple[float, float, float]]]

    def stats(self) -> dict[str, list[tuple[float, float]]]:
        """Per row label, the (mean, std) over seeds of each axis in AXES order."""
        return {label: [(float(col.mean()), float(col.std())) for col in np.asarray(per_seed).T]
                for label, per_seed in self.rows.items()}

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([self.grid, "verb_mean", "verb_std", "noun_mean", "noun_std",
                             "action_mean", "action_std"])
            for label, stats in self.stats().items():
                writer.writerow([label] + [repr(v) for pair in stats for v in pair])

    def render(self) -> str:
        """Aligned text table, one row per cell, mean+-std per axis."""
        header = [self.grid, "verb", "noun", "action"]
        lines = [[label] + [f"{mean:.3f}+-{std:.3f}" for mean, std in stats]
                 for label, stats in self.stats().items()]
        widths = [max(len(r[c]) for r in [header] + lines) for c in range(4)]
        out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        out.append("  ".join("-" * w for w in widths))
        out.extend("  ".join(v.ljust(w) for v, w in zip(line, widths)) for line in lines)
        return "\n".join(out)


def _run_cell(cfg: RunConfig) -> tuple[float, float, float]:
    """gen-data, train and eval of one cell at one master seed, in memory."""
    vocab = resolve_vocab(cfg)
    space = TokenSpace(vocab)
    corpus = generate_corpus(vocab, scenario_config(cfg))
    params, _ = train(corpus.train, train_config(cfg), model_config(cfg, space), space)
    report = evaluate(params, space, corpus.test, eval_window(cfg),
                      gen_config(cfg), cfg.preamble)
    return tuple(report.means[a] for a in AXES)


def _ablation_runs(grid: str, cfg: RunConfig, seeds, cells=None) -> dict[str, list]:
    """One config per master seed per row label, every config built and
    checked; ``cells`` ({label: overrides}) defaults to the grid's."""
    if grid not in ABLATION_GRIDS:
        raise ConfigError(f"unknown ablation grid: {grid!r} (one of {sorted(ABLATION_GRIDS)})")
    cells = ABLATION_GRIDS[grid] if cells is None else cells
    if not seeds or not cells:
        raise ConfigError("need at least one seed and one grid cell")
    return {label: [apply_overrides(cfg, seed=s, **overrides) for s in seeds]
            for label, overrides in cells.items()}


def _ablation_table(grid: str, seeds: list, runs: dict[str, list]) -> AblationTable:
    return AblationTable(grid, seeds, {label: [_run_cell(c) for c in configs]
                                       for label, configs in runs.items()})


def run_ablation(grid: str, cfg: RunConfig, seeds, cells=None) -> AblationTable:
    """One in-memory run per cell ({label: overrides}, the grid's by default)
    per master seed, aggregated into a table. Every cell's config is built
    and checked before the first run starts."""
    seeds = list(seeds)
    return _ablation_table(grid, seeds, _ablation_runs(grid, cfg, seeds, cells))


def cmd_gen_data(args) -> int:
    cfg = _resolved(args)
    out = _prepare_out(cfg, "gen-data")
    vocab = resolve_vocab(cfg)
    corpus = generate_corpus(vocab, scenario_config(cfg))
    save_vocabulary(vocab, out / "vocab.json")
    save_annotations(corpus.videos, vocab, out / "corpus.json")
    save_corpus_meta(corpus, out / "corpus_meta.json")
    print(f"wrote {len(corpus.videos)} videos to {out / 'corpus.json'} "
          f"(split {len(corpus.train_ids)}/{len(corpus.val_ids)}/{len(corpus.test_ids)}, "
          f"early_late_agreement={corpus.sanity['early_late_agreement']:.3f})")
    return 0


def cmd_train(args) -> int:
    cfg = _resolved(args)
    out = _prepare_out(cfg, "train")
    vocab, corpus = _load_corpus(cfg, out)
    space = TokenSpace(vocab)
    tcfg = train_config(cfg)
    if args.dump_encodings:
        for enc in build_training_set(corpus.train, tcfg, space)[: args.dump_encodings]:
            print(dump_encoding(space, enc))
    params, log = train(corpus.train, tcfg, model_config(cfg, space), space)
    meta = {
        "preamble": cfg.preamble,
        "vocab": cfg.vocab,
        "vocab_sha256": vocab.digest(),
        "alpha": cfg.weights.alpha,
        "beta": cfg.weights.beta,
        "n_obs_bwd": cfg.window.n_obs_bwd,
        "seed": cfg.seed,
    }
    save_checkpoint(params, out / "checkpoint.json", meta)
    log.to_csv(out / "train_log.csv")
    print(f"trained {params.num_params} params for {tcfg.epochs} epochs: "
          f"loss {log.first_loss:.4f} -> {log.final_loss:.4f}; "
          f"wrote {out / 'checkpoint.json'}")
    return 0


def _mean_eds(report: EvalReport) -> str:
    return "ED " + " ".join(f"{axis}={mean:.4f}" for axis, mean in report.means.items())


def cmd_eval(args) -> int:
    cfg = _resolved(args)
    out = _prepare_out(cfg, "eval")
    vocab, corpus = _load_corpus(cfg, out)
    space = TokenSpace(vocab)
    ckpt_path = Path(args.checkpoint) if args.checkpoint else out / "checkpoint.json"
    params, meta = load_checkpoint(ckpt_path)
    if params.config.vocab_size != space.size:
        raise ConfigError(
            f"checkpoint token space ({params.config.vocab_size}) does not match "
            f"the configured vocabulary ({space.size})"
        )
    if meta.get("vocab_sha256", vocab.digest()) != vocab.digest():
        raise ConfigError("checkpoint was trained on a different vocabulary "
                          "(same size, other names or order)")
    if meta.get("preamble", cfg.preamble) != cfg.preamble:
        raise ConfigError(
            f"checkpoint was trained with preamble {meta['preamble']!r}; "
            f"pass --preamble to match"
        )
    report = evaluate(params, space, corpus.test, eval_window(cfg),
                      gen_config(cfg), cfg.preamble)
    report.to_json(out / "eval_report.json")
    report.summary_csv(out / "eval_summary.csv")
    print(f"evaluated {report.num_instances} instances: {_mean_eds(report)}; "
          f"wrote {out / 'eval_report.json'}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _resolved(args)
    seeds = list(cfg.ablate_seeds)
    runs = _ablation_runs(args.grid, cfg, seeds)  # checked before OUT is written
    out = _prepare_out(cfg, f"ablate_{args.grid}")
    table = _ablation_table(args.grid, seeds, runs)
    table.to_csv(out / f"ablation_{args.grid}.csv")
    rendered = table.render()
    (out / f"ablation_{args.grid}.txt").write_text(rendered + "\n", encoding="utf-8")
    print(rendered)
    print(f"wrote {out / f'ablation_{args.grid}.csv'}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _resolved(args)
    params, batch, weights = make_gradcheck_case(cfg.seed)
    err = gradient_check(params, batch, weights)
    ok = err < GRADCHECK_TOL
    print(f"gradcheck: max relative error {err:.3e} "
          f"({'PASS' if ok else 'FAIL'}, tolerance {GRADCHECK_TOL:g})")
    return 0 if ok else 4


def _train_losses(path: Path) -> list[float]:
    """The per-epoch ``mean_loss`` column of a train_log.csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return [float(row["mean_loss"]) for row in csv.DictReader(fh)]
        except (csv.Error, KeyError, TypeError, ValueError) as err:
            raise ParseError(f"{path}: bad train log: {type(err).__name__}: {err}") from err


def cmd_report(args) -> int:
    cfg = _resolved(args)
    out = Path(cfg.out)
    if not out.is_dir():
        raise FileNotFoundError(f"run directory not found: {out}")
    shown = False
    report_path = out / "eval_report.json"
    if report_path.exists():
        report = EvalReport.from_json(report_path)
        print(f"eval ({report.num_instances} instances): {_mean_eds(report)}")
        shown = True
    log_path = out / "train_log.csv"
    if log_path.exists():
        losses = _train_losses(log_path)
        if losses:
            print(f"train: {len(losses)} epochs, loss {losses[0]:.4f} -> {losses[-1]:.4f}")
            shown = True
    for grid in ABLATION_GRIDS:
        txt = out / f"ablation_{grid}.txt"
        if txt.exists():
            print(txt.read_text(encoding="utf-8").rstrip())
            shown = True
    if not shown:
        raise FileNotFoundError(f"no artifacts to report in {out}")
    return 0


def _non_negative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biant",
        description="Bidirectional action-sequence training and anticipation benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON run config")
        p.add_argument("--out", metavar="DIR", help="run directory")
        p.add_argument("--seed", type=int, metavar="N", help="master seed")

    p = sub.add_parser("gen-data", help="generate the synthetic corpus")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model on the corpus")
    common(p)
    p.add_argument("--alpha", type=float, metavar="F", help="forward loss weight")
    p.add_argument("--beta", type=float, metavar="F", help="backward loss weight")
    p.add_argument("--n-obs-bwd", type=int, metavar="N", help="backward observed length")
    p.add_argument("--preamble", metavar="MODE",
                   help="special | description (task preamble encoding)")
    p.add_argument("--dump-encodings", type=_non_negative_int, default=0, metavar="N",
                   help="print the first N encoded training instances")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p)
    p.add_argument("--checkpoint", metavar="PATH", help="checkpoint (default: OUT/checkpoint.json)")
    p.add_argument("--k", type=int, metavar="N", help="candidates per instance")
    p.add_argument("--preamble", metavar="MODE",
                   help="special | description (must match the checkpoint)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run one ablation grid")
    common(p)
    p.add_argument("--grid", required=True, choices=sorted(ABLATION_GRIDS),
                   help="which ablation to run")
    p.add_argument("--alpha", type=float, metavar="F")
    p.add_argument("--beta", type=float, metavar="F")
    p.add_argument("--n-obs-bwd", type=int, metavar="N")
    p.add_argument("--preamble", metavar="MODE")
    p.add_argument("--k", type=int, metavar="N")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradient")
    common(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("report", help="summarize artifacts in a run directory")
    common(p)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as err:
        print(f"error: missing file: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # e.g. a directory where a file belongs, or the reverse
        print(f"error: unreadable file: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    except NumericalDivergence as err:
        print(f"error: numerical divergence: {err}", file=sys.stderr)
        return 4
    except BiantError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
