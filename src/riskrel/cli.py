"""Pipeline command line: ingest -> pairs -> train -> embed -> score -> evaluate -> sweep -> report.

Every subcommand is deterministic given its inputs and flags: seeds are
explicit (mandatory for pairs/train) and nothing reads the clock. Outputs
are staged (:mod:`riskrel.outputs`): a failed command leaves the previous
outputs as they were and prints a single machine-parsable
``error: <Kind>: <detail>`` line on stderr. Each output is published by its
own rename, so a kill between two renames can leave some new and some old
(ROADMAP item 8). An output that names one of the command's input files or
directories is such an error, and the input stays as it was.

The tunable values are the keys of :data:`SETTINGS`, each with its type and
default. A command takes its keys as flags or from a flat ``key = value``
file given by ``--config``; an explicit flag wins over the file, and a key
the command does not take is an error.

``ingest --sections`` alone chooses the risk sections: every later stage
reads the paragraphs file whole. ``report`` reads one work directory, the
files the README's commands write there, and writes ``report.md`` beside
them; :mod:`riskrel.scoring` reads and renders its evidence document. A
threshold ``score`` takes, like ``sweep``'s grid start, stop and step, is a
whole number of hundredths in [0, 1]: :func:`riskrel.scoring.hundredths`
decides for both.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from . import corpus, evaluation, pairs as pairgen, scoring, training
from .encoder import load_model, model_fingerprint, save_model
from .errors import EmptyCorpus, RiskRelError
from .outputs import Outputs

def _labels(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


_TRAIN_DEFAULTS = {key: value for key, value in vars(training.TrainConfig()).items()
                   if key != "seed"}

# Every setting a flag or a --config file can give: key -> (type, default).
SETTINGS: dict[str, tuple] = {
    "min_tokens": (int, corpus.DEFAULT_MIN_TOKENS),
    "sections": (_labels, corpus.DEFAULT_SECTIONS),
    "min_span": (int, pairgen.DEFAULT_MIN_SPAN),
    "overlap_cap": (int, pairgen.DEFAULT_OVERLAP_CAP),
    "max_pairs_per_paragraph": (int, pairgen.DEFAULT_MAX_PAIRS_PER_PARAGRAPH),
    "train_count": (int, 140),
    "val_count": (int, 25),
    "threshold": (float, scoring.DEFAULT_THRESHOLD),
    "grid": (str, evaluation.DEFAULT_GRID),
    **{key: (type(value), value) for key, value in _TRAIN_DEFAULTS.items()},
}
_FLAG_NAMES = {"train_count": "train", "val_count": "val"}
# The arguments that name a file or directory a command reads; no output may
# name one of them.
_INPUTS = ("root", "infile", "pairs", "model", "paragraphs", "rrs", "prices", "gics",
           "config")


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    def settings(lines: Iterator[str]) -> Iterator[tuple[str, str]]:
        for line in lines:
            key, equals, value = line.split("#", 1)[0].partition("=")
            if equals:
                yield key.strip(), value.strip()
            elif key.strip():
                raise ValueError(f"expected key = value, got {line.strip()!r}")

    return dict(corpus.read_lines(path, "setting", settings))


def _settings(parser: argparse.ArgumentParser, *keys: str) -> None:
    """Add a flag for each of these settings, and ``--config`` for a file of them."""
    for key in keys:
        cast, default = SETTINGS[key]
        shown = ",".join(default) if isinstance(default, tuple) else default
        parser.add_argument(f"--{_FLAG_NAMES.get(key, key.replace('_', '-'))}",
                            dest=key, type=cast, help=f"default {shown}")
    parser.add_argument("--config", help="file of key = value settings")


def _resolve_settings(args: argparse.Namespace) -> None:
    """Fill each setting no flag gave from the config file, else its default."""
    config = read_config(args.config) if getattr(args, "config", None) else {}
    for key in config:
        if not hasattr(args, key) or key not in SETTINGS:
            raise ValueError(f"unknown setting {key} for {args.command} "
                             f"in config file {args.config}")
    for key, (cast, default) in SETTINGS.items():
        if getattr(args, key, default) is not None:
            continue
        value = config.get(key)
        try:
            setattr(args, key, default if value is None else cast(value))
        except ValueError:
            raise ValueError(f"bad value for {key} in config file {args.config}: "
                             f"{value!r} is not {cast.__name__}") from None


def _require_file(path: str | Path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


# --- subcommands ---

def cmd_ingest(args: argparse.Namespace, outputs: Outputs) -> None:
    paragraphs = corpus.ingest_directory(args.root, sections=args.sections,
                                         min_tokens=args.min_tokens)
    if not paragraphs:
        raise EmptyCorpus(f"no paragraphs in sections {','.join(args.sections)} "
                          f"under {args.root}")
    n = corpus.write_paragraphs(paragraphs, outputs(args.out))
    print(f"ingest: wrote {n} paragraphs from "
          f"{len({p.firm_id for p in paragraphs})} firms to {args.out}")


def cmd_pairs(args: argparse.Namespace, outputs: Outputs) -> None:
    paragraphs = corpus.read_paragraphs(_require_file(args.infile, "paragraph file"))
    views = list(pairgen.VIEWS) if args.view == "both" else [args.view]

    stats: dict[str, int] = {}
    by_view: dict[str, list[pairgen.PositivePair]] = {}
    if pairgen.CHRONOLOGICAL in views:
        by_view[pairgen.CHRONOLOGICAL] = pairgen.build_chronological_pairs(
            paragraphs, args.min_tokens)
    if pairgen.LEXICAL in views:
        by_view[pairgen.LEXICAL] = pairgen.build_lexical_pairs(
            paragraphs, rng_seed=args.seed, min_span=args.min_span,
            max_pairs_per_paragraph=args.max_pairs_per_paragraph,
            overlap_cap=args.overlap_cap, stats=stats)

    train, val = pairgen.split_train_val(by_view, args.train_count, args.val_count,
                                         rng_seed=args.seed)
    out_dir = outputs(args.out)
    out_dir.mkdir()
    # Every view's files, empty for a view not built, so that train, which
    # reads all four, reads none left from an earlier run.
    for view in pairgen.VIEWS:
        for split_name, split in (("train", train), ("val", val)):
            path = pairgen.pair_file(out_dir, view, split_name)
            n = pairgen.write_pairs((p for p in split if p.view == view), path)
            print(f"pairs: wrote {n} {view} {split_name} pairs to {Path(args.out) / path.name}")
    if stats.get("skipped_short"):
        print(f"pairs: skipped {stats['skipped_short']} paragraphs too short "
              f"for the lexical view")


def cmd_train(args: argparse.Namespace, outputs: Outputs) -> None:
    train_config = training.TrainConfig(
        seed=args.seed, **{key: getattr(args, key) for key in _TRAIN_DEFAULTS})

    train_pairs, val_pairs = (
        [pair for view in pairgen.VIEWS for pair in pairgen.read_pairs(
            _require_file(pairgen.pair_file(args.pairs, view, split), "pair file"))]
        for split in ("train", "val"))
    outcome = training.train(train_pairs, val_pairs, train_config)
    save_model(outputs(args.out), outcome.vocab, outcome.params,
               max_len=train_config.max_len)
    if args.report:
        outcome.report.save(outputs(args.report))
    summary = outcome.report
    print(f"train: {len(summary.epochs)} epochs, best epoch {summary.best_epoch} "
          f"(val loss {summary.best_val_loss:.6f}), stop: {summary.stop_reason}; "
          f"model -> {args.out}")


def _load_index(model_path: str, paragraphs_path: str, texts: bool = False
                ) -> tuple[scoring.EmbeddingIndex, dict[str, str] | None]:
    """The paragraphs' embedding index, and each paragraph's text by id if
    ``texts`` (else None)."""
    vocab, params, max_len = load_model(_require_file(model_path, "model file"))
    paragraphs = corpus.read_paragraphs(_require_file(paragraphs_path, "paragraph file"))
    index = scoring.embed_corpus(vocab, params, [paragraphs], max_len=max_len)
    return index, {p.id: p.text for p in paragraphs} if texts else None


def cmd_embed(args: argparse.Namespace, outputs: Outputs) -> None:
    index, _ = _load_index(args.model, args.infile)
    index = replace(index, model_fingerprint=model_fingerprint(args.model))
    scoring.save_embeddings(index, outputs(args.out))
    total = sum(len(ids) for ids, _ in index.firms.values())
    print(f"embed: wrote {total} vectors for {len(index.firms)} firms to {args.out}")


def cmd_score(args: argparse.Namespace, outputs: Outputs) -> None:
    threshold = scoring.hundredths(args.threshold, "threshold",
                                   "score's summary line and report.md") / 100
    index, texts = _load_index(args.model, args.paragraphs, texts=bool(args.out_evidence))

    firms, matrix = scoring.rrs_matrix(index, threshold)
    scoring.write_rrs_csv(firms, matrix, outputs(args.out_matrix))

    if args.out_evidence:
        # A generator, so each pair's file is written before the next search.
        results = (scoring.find_mrps(index, a, b, threshold)
                   for a, b in scoring.firm_pairs(firms))
        written = scoring.write_evidence_files(results, outputs(args.out_evidence), texts)
        print(f"score: wrote {len(written)} evidence files to {args.out_evidence}")
    print(f"score: threshold {scoring.threshold_label(threshold)}, matrix for {len(firms)} firms "
          f"-> {args.out_matrix}")


def cmd_evaluate(args: argparse.Namespace, outputs: Outputs) -> None:
    firms, matrix = scoring.read_rrs_csv(_require_file(args.rrs, "RRS matrix"))
    returns = evaluation.read_prices_dir(args.prices)
    gics = evaluation.read_gics_file(_require_file(args.gics, "GICS file")) \
        if args.gics else None

    cells = scoring.pair_cells(firms, matrix)
    co_movement = evaluation.pairwise_cavdsr(returns, cells)
    excluded = len(cells) - len(co_movement)
    kept = list(co_movement)  # the evaluated pairs, in matrix order
    unmapped = {firm for pair in kept for firm in pair} - gics.keys() if gics is not None else ()
    if unmapped:
        raise ValueError(f"GICS file {args.gics} has no row for firm {min(unmapped)!r}")
    out_dir = outputs(args.out)
    out_dir.mkdir()
    rrs_values = [cells[pair] for pair in kept]
    cavdsr_values = list(co_movement.values())
    gics_flags = {level: [evaluation.gics_binary_rrs(gics, a, b, level) for a, b in kept]
                  for level in ("sector", "industry")} if gics is not None else {}

    corpus.write_csv(out_dir / "pairs.csv",
                     ["firm_a", "firm_b", "rrs", "cavdsr",
                      *(f"gics_{level}" for level in gics_flags)],
                     ((*pair, *row) for pair, *row in zip(kept, rrs_values, cavdsr_values,
                                                          *gics_flags.values())))

    rho = evaluation.alignment_rho(rrs_values, cavdsr_values)
    spearman = evaluation.alignment_rho(rrs_values, cavdsr_values, "spearman")
    metrics = [("n_pairs", len(kept)), ("n_excluded", excluded),
               ("rho_pearson", rho), ("rho_spearman", spearman)]
    for level, flags in gics_flags.items():
        try:
            value = evaluation.alignment_rho(flags, cavdsr_values)
        except evaluation.DegenerateInput:
            value = None  # a constant GICS flag has no correlation
        metrics.append((f"rho_gics_{level}", value))
    corpus.write_csv(out_dir / "metrics.csv", ["metric", "value"], metrics)

    print(f"evaluate: rho = {rho:.6f} over {len(kept)} pairs -> {args.out}")


def cmd_sweep(args: argparse.Namespace, outputs: Outputs) -> None:
    try:
        start, stop, step = map(float, args.grid.split(":"))
    except ValueError:  # a part that is not a number, or not three parts
        raise ValueError(f"grid must be start:stop:step, got {args.grid!r}") from None
    grid = evaluation.make_grid(start, stop, step)
    index, _ = _load_index(args.model, args.paragraphs)
    returns = evaluation.read_prices_dir(args.prices) if args.prices else None

    table = scoring.max_similarity_table(index)
    rows = evaluation.threshold_sweep(table, grid, returns=returns)
    corpus.write_csv(outputs(args.out), ["threshold", "mean_rrs", "total_mrps", "rho"],
                     ((scoring.threshold_label(row.threshold), row.mean_rrs,
                       row.total_mrps, row.rho) for row in rows))
    print(f"sweep: {len(rows)} thresholds -> {args.out}")


def _check_evaluation(eval_dir: Path, metrics: list[list[str]]) -> None:
    """An evaluation is read only whole: ``pairs.csv`` beside ``metrics.csv``
    holds exactly the ``n_pairs`` data rows that ``metrics.csv`` counts."""
    n_pairs = dict(metrics).get("n_pairs", "none")
    pairs_path = eval_dir / "pairs.csv"
    if not pairs_path.is_file():
        found = "pairs.csv is missing"
    else:
        rows = len(corpus.read_csv_body(pairs_path))
        if str(rows) == n_pairs:
            return
        found = f"pairs.csv has {rows} data rows"
    raise ValueError(f"stale evaluation {eval_dir}: metrics.csv has n_pairs {n_pairs}, "
                     f"but {found}")


def cmd_report(args: argparse.Namespace, outputs: Outputs) -> None:
    workdir = Path(args.workdir)
    if not workdir.is_dir():
        raise FileNotFoundError(f"work directory not found: {workdir}")
    rrs_path, evidence_dir = workdir / "rrs.csv", workdir / "evidence"
    metrics_path, sweep_path = workdir / "eval" / "metrics.csv", workdir / "sweep.csv"

    lines = ["# Risk relation report", ""]

    if rrs_path.is_file():
        firms, matrix = scoring.read_rrs_csv(rrs_path)
        pair_scores = [(value, a, b)
                       for (a, b), value in scoring.pair_cells(firms, matrix).items()]
        pair_scores.sort(key=lambda t: (-t[0], t[1], t[2]))
        lines += ["## Top risk relation scores", "",
                  "| rank | pair | RRS |", "| --- | --- | --- |"]
        for rank, (value, a, b) in enumerate(pair_scores[:10], start=1):
            lines.append(f"| {rank} | {a} - {b} | {value:.6f} |")
        lines.append("")
    else:
        pair_scores = []
        lines += ["## Top risk relation scores", "", "_rrs.csv not found._", ""]

    lines += ["## Evidence highlights", ""]
    if not rrs_path.is_file():
        lines += ["_No top pair: rrs.csv not found._", ""]
    elif not pair_scores:
        lines += ["_No top pair: rrs.csv holds one firm._", ""]
    elif not evidence_dir.is_dir():
        lines += ["_No evidence directory._", ""]
    else:
        top, top_a, top_b = pair_scores[0]
        doc_path = scoring.evidence_path(evidence_dir, top_a, top_b)
        if doc_path.is_file():
            lines.append(scoring.read_evidence(doc_path, top))
        else:
            lines += ["_No evidence document for the top pair._", ""]

    lines += ["## Alignment with return co-movement", ""]
    if metrics_path.is_file():
        metrics = corpus.read_csv_body(metrics_path, 2)
        _check_evaluation(metrics_path.parent, metrics)
        lines += ["| metric | value |", "| --- | --- |"]
        lines += ["| " + " | ".join(row) + " |" for row in metrics]
        lines.append("")
    else:
        lines += ["_No evaluation metrics found._", ""]

    lines += ["## Threshold sweep", ""]
    if sweep_path.is_file():
        lines += ["| threshold | mean RRS | total MRPs | rho |",
                  "| --- | --- | --- | --- |"]
        lines += ["| " + " | ".join(row) + " |"
                  for row in corpus.read_csv_body(sweep_path, 4)]
        lines.append("")
    else:
        lines += ["_No sweep table found._", ""]

    out = workdir / "report.md"
    outputs(out).write_text("\n".join(lines), encoding="utf-8")
    print(f"report: wrote {out}")


# --- parser wiring ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskrel",
        description="Inter-firm risk relation mining from annual-report text.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="clean raw filings into paragraph records")
    p.add_argument("--root", required=True, help="directory of <ticker>/<year>.txt files")
    p.add_argument("--out", required=True, help="output paragraphs.jsonl")
    _settings(p, "min_tokens", "sections")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pairs", help="build positive pairs and split train/val")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--view", choices=[*pairgen.VIEWS, "both"], default="both")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    _settings(p, "train_count", "val_count", "min_tokens", "min_span", "overlap_cap",
              "max_pairs_per_paragraph")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("train", help="train the encoder on positive pairs")
    p.add_argument("--pairs", required=True, help="directory of *.train/val.jsonl")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--report", help="output training report (JSONL)")
    _settings(p, *_TRAIN_DEFAULTS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed paragraphs with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("score", help="compute the RRS matrix and evidence files")
    p.add_argument("--model", required=True)
    p.add_argument("--paragraphs", required=True)
    p.add_argument("--out-matrix", dest="out_matrix", required=True)
    p.add_argument("--out-evidence", dest="out_evidence")
    _settings(p, "threshold")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="align RRS with return co-movement")
    p.add_argument("--rrs", required=True)
    p.add_argument("--prices", required=True, help="directory of <ticker>.csv")
    p.add_argument("--gics", help="ticker,sector,industry CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="score across a threshold grid")
    p.add_argument("--model", required=True)
    p.add_argument("--paragraphs", required=True)
    p.add_argument("--prices", help="optional prices directory for rho per threshold")
    p.add_argument("--out", required=True)
    _settings(p, "grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="collate artifacts into one markdown report")
    p.add_argument("--workdir", default=".", help="directory of the pipeline's outputs")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_settings(args)
        inputs = [getattr(args, key) for key in _INPUTS if getattr(args, key, None)]
        with Outputs(inputs) as outputs:
            args.func(args, outputs)
    except (RiskRelError, OSError, ValueError, KeyError) as exc:
        detail = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
