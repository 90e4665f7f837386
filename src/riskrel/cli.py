"""Pipeline command line: ingest -> pairs -> train -> embed -> score -> evaluate -> sweep -> report.

Every subcommand is deterministic given its inputs and flags: seeds are
explicit (mandatory for pairs/train), nothing reads the clock, and a
failed command removes whatever partial outputs it created and prints a
single machine-parsable ``error: <Kind>: <detail>`` line on stderr.

A flat ``key = value`` config file can supply any flag's value; an
explicit flag always wins over the config file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from . import corpus, evaluation, pairs as pairgen, scoring, training
from .encoder import load_model, model_fingerprint, save_model
from .errors import RiskRelError

DEFAULT_TRAIN_COUNT = 140
DEFAULT_VAL_COUNT = 25

# TrainConfig fields settable by flag or config file, with their types.
TRAIN_FLAGS = (("batch_size", int), ("learning_rate", float),
               ("warmup_steps", int), ("max_epochs", int),
               ("patience", int), ("temperature", float),
               ("l2_coeff", float), ("max_len", int),
               ("embed_dim", int), ("vocab_min_freq", int))

_VIEW_ALIASES = {"chrono": pairgen.CHRONOLOGICAL,
                 "chronological": pairgen.CHRONOLOGICAL,
                 "lexical": pairgen.LEXICAL}


class OutputTracker:
    """Remembers paths a command creates so failures leave no partial files."""

    def __init__(self) -> None:
        self._paths: list[Path] = []

    def add(self, path: str | Path) -> Path:
        path = Path(path)
        self._paths.append(path)
        return path

    def cleanup(self) -> None:
        for path in reversed(self._paths):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.exists():
                path.unlink(missing_ok=True)


def read_config(path: str | Path | None) -> dict[str, str]:
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    if path is None:
        return {}
    config: dict[str, str] = {}
    for raw_line in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (expected key = value): {raw_line!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _resolve(args: argparse.Namespace, config: dict[str, str], key: str,
             default, cast=str):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return cast(config[key])
    return default


def _sections(args: argparse.Namespace, config: dict[str, str]) -> tuple[str, ...]:
    """Section labels from --sections or the config file, comma-separated."""
    sections = _resolve(args, config, "sections", ",".join(corpus.DEFAULT_SECTIONS))
    return tuple(s.strip() for s in sections.split(",") if s.strip())


def _require_file(path: str | Path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


# --- subcommands ---

def cmd_ingest(args: argparse.Namespace, tracker: OutputTracker) -> None:
    config = read_config(args.config)
    min_tokens = _resolve(args, config, "min_tokens", corpus.DEFAULT_MIN_TOKENS, int)
    paragraphs = corpus.ingest_directory(args.root, sections=_sections(args, config),
                                         min_tokens=min_tokens)
    out = tracker.add(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    n = corpus.write_paragraphs(paragraphs, out)
    print(f"ingest: wrote {n} paragraphs from "
          f"{len({p.firm_id for p in paragraphs})} firms to {out}")


def cmd_pairs(args: argparse.Namespace, tracker: OutputTracker) -> None:
    config = read_config(args.config)
    paragraphs = corpus.read_paragraphs(_require_file(args.infile, "paragraph file"))
    min_tokens = _resolve(args, config, "min_tokens", corpus.DEFAULT_MIN_TOKENS, int)
    min_span = _resolve(args, config, "min_span", pairgen.DEFAULT_MIN_SPAN, int)
    overlap_cap = _resolve(args, config, "overlap_cap", pairgen.DEFAULT_OVERLAP_CAP, int)
    max_per = _resolve(args, config, "max_pairs_per_paragraph",
                       pairgen.DEFAULT_MAX_PAIRS_PER_PARAGRAPH, int)
    train_count = _resolve(args, config, "train_count", DEFAULT_TRAIN_COUNT, int)
    val_count = _resolve(args, config, "val_count", DEFAULT_VAL_COUNT, int)

    views = ([pairgen.CHRONOLOGICAL, pairgen.LEXICAL] if args.view == "both"
             else [_VIEW_ALIASES[args.view]])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    stats: dict[str, int] = {}
    all_pairs: list[pairgen.PositivePair] = []
    if pairgen.CHRONOLOGICAL in views:
        for firm_corpus in corpus.group_by_firm(paragraphs).values():
            all_pairs.extend(pairgen.build_chronological_pairs(
                firm_corpus, min_tokens=min_tokens))
    if pairgen.LEXICAL in views:
        all_pairs.extend(pairgen.build_lexical_pairs(
            paragraphs, rng_seed=args.seed, min_span=min_span,
            max_pairs_per_paragraph=max_per, overlap_cap=overlap_cap,
            stats=stats))

    train, val = pairgen.split_train_val(all_pairs, train_count, val_count,
                                         rng_seed=args.seed)
    for view in views:
        for split_name, split in (("train", train), ("val", val)):
            path = tracker.add(out_dir / f"{view}.{split_name}.jsonl")
            n = pairgen.write_pairs((p for p in split if p.view == view), path)
            print(f"pairs: wrote {n} {view} {split_name} pairs to {path}")
    if stats.get("skipped_short"):
        print(f"pairs: skipped {stats['skipped_short']} paragraphs too short "
              f"for the lexical view")


def cmd_train(args: argparse.Namespace, tracker: OutputTracker) -> None:
    config = read_config(args.config)
    kwargs = {}
    for key, cast in TRAIN_FLAGS:
        value = _resolve(args, config, key, None, cast)
        if value is not None:
            kwargs[key] = value
    train_config = training.TrainConfig(seed=args.seed, **kwargs)

    pairs_dir = Path(args.pairs)
    if not pairs_dir.is_dir():
        raise FileNotFoundError(f"pairs directory not found: {pairs_dir}")
    train_pairs: list[pairgen.PositivePair] = []
    val_pairs: list[pairgen.PositivePair] = []
    for path in sorted(pairs_dir.glob("*.train.jsonl")):
        train_pairs.extend(pairgen.read_pairs(path))
    for path in sorted(pairs_dir.glob("*.val.jsonl")):
        val_pairs.extend(pairgen.read_pairs(path))
    if not train_pairs:
        raise FileNotFoundError(f"no *.train.jsonl files under {pairs_dir}")

    outcome = training.train(train_pairs, val_pairs, train_config)
    model_path = tracker.add(args.out)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    save_model(model_path, outcome.vocab, outcome.params,
               max_len=train_config.max_len)
    if args.report:
        report_path = tracker.add(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        outcome.report.save(report_path)
    summary = outcome.report
    print(f"train: {len(summary.epochs)} epochs, best epoch {summary.best_epoch} "
          f"(val loss {summary.best_val_loss:.6f}), stop: {summary.stop_reason}; "
          f"model -> {model_path}")


def _load_index(model_path: str, paragraphs_path: str,
                sections: tuple[str, ...]) -> tuple[scoring.EmbeddingIndex,
                                                    dict[str, corpus.Paragraph]]:
    vocab, params, max_len = load_model(_require_file(model_path, "model file"))
    paragraphs = corpus.read_paragraphs(_require_file(paragraphs_path,
                                                      "paragraph file"))
    scored = [p for p in paragraphs if p.section in sections]
    corpora = corpus.group_by_firm(scored).values()
    index = scoring.embed_corpus(vocab, params, corpora, max_len=max_len,
                                 model_fingerprint=model_fingerprint(model_path))
    return index, {p.id: p for p in scored}


def cmd_embed(args: argparse.Namespace, tracker: OutputTracker) -> None:
    config = read_config(args.config)
    index, _ = _load_index(args.model, args.infile, _sections(args, config))
    out = tracker.add(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    scoring.save_embeddings(index, out)
    total = sum(len(ids) for ids, _ in index.firms.values())
    print(f"embed: wrote {total} vectors for {len(index.firms)} firms to {out}")


def cmd_score(args: argparse.Namespace, tracker: OutputTracker) -> None:
    config = read_config(args.config)
    threshold = scoring.ScoreConfig(
        _resolve(args, config, "threshold", scoring.DEFAULT_THRESHOLD, float)).threshold
    index, texts = _load_index(args.model, args.paragraphs, _sections(args, config))

    firms = index.firm_ids()
    _, matrix = scoring.rrs_matrix(index, firms, threshold)
    matrix_path = tracker.add(args.out_matrix)
    matrix_path.parent.mkdir(parents=True, exist_ok=True)
    scoring.write_rrs_csv(firms, matrix, matrix_path)

    if args.out_evidence:
        evidence_dir = Path(args.out_evidence)
        if evidence_dir.exists():
            # Pre-existing directory: track only the files written into it.
            for i, a in enumerate(firms):
                for b in firms[i + 1:]:
                    tracker.add(evidence_dir / f"{a}__{b}.json")
        else:
            tracker.add(evidence_dir)
        # A generator, so each pair's file is written before the next search.
        results = (scoring.find_mrps(index, a, b, threshold)
                   for i, a in enumerate(firms) for b in firms[i + 1:])
        written = scoring.write_evidence_files(results, evidence_dir, texts)
        print(f"score: wrote {len(written)} evidence files to {evidence_dir}")
    print(f"score: threshold {threshold:.2f}, matrix for {len(firms)} firms "
          f"-> {matrix_path}")


def cmd_evaluate(args: argparse.Namespace, tracker: OutputTracker) -> None:
    firms, matrix = scoring.read_rrs_csv(_require_file(args.rrs, "RRS matrix"))
    returns = evaluation.read_prices_dir(args.prices)
    gics = evaluation.read_gics_file(_require_file(args.gics, "GICS file")) \
        if args.gics else None

    out_dir = Path(args.out)
    if out_dir.exists():
        # Pre-existing directory: track only the files written into it.
        for name in ("pairs.csv", "metrics.csv", "summary.md"):
            tracker.add(out_dir / name)
    else:
        tracker.add(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    records: list[evaluation.PairRecord] = []
    rows = []
    excluded = 0
    for i, firm_a in enumerate(firms):
        for j in range(i + 1, len(firms)):
            firm_b = firms[j]
            if firm_a not in returns or firm_b not in returns:
                excluded += 1
                continue
            try:
                co_movement = evaluation.cavdsr(returns[firm_a], returns[firm_b])
            except (evaluation.InsufficientOverlap, evaluation.ZeroVariance):
                excluded += 1
                continue
            record = evaluation.PairRecord(firm_a, firm_b, float(matrix[i, j]),
                                           co_movement)
            records.append(record)
            row = {"firm_a": firm_a, "firm_b": firm_b,
                   "rrs": f"{record.rrs:.6f}", "cavdsr": f"{record.cavdsr:.6f}"}
            if gics is not None:
                row["gics_sector"] = str(evaluation.gics_binary_rrs(
                    gics, firm_a, firm_b, "sector"))
                row["gics_industry"] = str(evaluation.gics_binary_rrs(
                    gics, firm_a, firm_b, "industry"))
            rows.append(row)

    columns = list(rows[0]) if rows else ["firm_a", "firm_b", "rrs", "cavdsr"]
    with open(out_dir / "pairs.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row[c] for c in columns) + "\n")

    metrics: list[tuple[str, str]] = [("n_pairs", str(len(records))),
                                      ("n_excluded", str(excluded))]
    rho = evaluation.alignment_rho(records)
    metrics.append(("rho_pearson", f"{rho:.6f}"))
    metrics.append(("rho_spearman",
                    f"{evaluation.alignment_rho(records, 'spearman'):.6f}"))
    if gics is not None:
        for level in ("sector", "industry"):
            baseline = [evaluation.PairRecord(
                r.firm_a, r.firm_b,
                float(evaluation.gics_binary_rrs(gics, r.firm_a, r.firm_b, level)),
                r.cavdsr) for r in records]
            try:
                value = f"{evaluation.alignment_rho(baseline):.6f}"
            except evaluation.DegenerateInput:
                value = ""
            metrics.append((f"rho_gics_{level}", value))
    with open(out_dir / "metrics.csv", "w", encoding="utf-8") as fh:
        fh.write("metric,value\n")
        for key, value in metrics:
            fh.write(f"{key},{value}\n")

    lines = ["# Evaluation summary", "",
             f"Firm pairs evaluated: {len(records)} "
             f"(excluded for missing/short return data: {excluded})", "",
             "| metric | value |", "| --- | --- |"]
    lines.extend(f"| {key} | {value} |" for key, value in metrics[2:])
    (out_dir / "summary.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"evaluate: rho = {rho:.6f} over {len(records)} pairs -> {out_dir}")


def cmd_sweep(args: argparse.Namespace, tracker: OutputTracker) -> None:
    config = read_config(args.config)
    index, _ = _load_index(args.model, args.paragraphs, _sections(args, config))
    grid_arg = _resolve(args, config, "grid", "0.6:0.9:0.05")
    parts = [float(x) for x in grid_arg.split(":")]
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {grid_arg!r}")
    grid = evaluation.make_grid(*parts)
    returns = evaluation.read_prices_dir(args.prices) if args.prices else None

    rows = evaluation.threshold_sweep(index, index.firm_ids(), grid,
                                      returns=returns)
    out = tracker.add(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("threshold,mean_rrs,total_mrps,rho\n")
        for row in rows:
            rho_cell = "" if row.rho is None else f"{row.rho:.6f}"
            fh.write(f"{row.threshold:.2f},{row.mean_rrs:.6f},"
                     f"{row.total_mrps},{rho_cell}\n")
    print(f"sweep: {len(rows)} thresholds -> {out}")


def _read_csv_rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    if not lines:
        raise ValueError(f"empty CSV file: {path}")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def cmd_report(args: argparse.Namespace, tracker: OutputTracker) -> None:
    workdir = Path(args.workdir)
    rrs_path = Path(args.rrs) if args.rrs else workdir / "rrs.csv"
    evidence_dir = Path(args.evidence_dir) if args.evidence_dir else workdir / "evidence"
    metrics_path = Path(args.metrics) if args.metrics else workdir / "eval" / "metrics.csv"
    sweep_path = Path(args.sweep) if args.sweep else workdir / "sweep.csv"

    lines = ["# Risk relation report", ""]

    if rrs_path.is_file():
        firms, matrix = scoring.read_rrs_csv(rrs_path)
        pair_scores = [(matrix[i, j], firms[i], firms[j])
                       for i in range(len(firms)) for j in range(i + 1, len(firms))]
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
    if pair_scores and evidence_dir.is_dir():
        _, top_a, top_b = pair_scores[0]
        doc_path = evidence_dir / f"{top_a}__{top_b}.json"
        if doc_path.is_file():
            doc = json.loads(doc_path.read_text(encoding="utf-8"))
            lines.append(f"Strongest pair {top_a} - {top_b}: "
                         f"RRS {doc['rrs']:.6f} at threshold {doc['threshold']:.2f}, "
                         f"{len(doc['evidence'])} evidence pairs.")
            lines.append("")
            for entry in doc["evidence"][:3]:
                lines.append(f"- similarity {entry['similarity']:.4f}: "
                             f"`{entry['id_a']}` / `{entry['id_b']}`")
                if "text_a" in entry:
                    lines.append(f"    - {entry['text_a'][:220]}")
                    lines.append(f"    - {entry['text_b'][:220]}")
            lines.append("")
        else:
            lines += ["_No evidence document for the top pair._", ""]
    else:
        lines += ["_No evidence directory._", ""]

    lines += ["## Alignment with return co-movement", ""]
    if metrics_path.is_file():
        lines += ["| metric | value |", "| --- | --- |"]
        for row in _read_csv_rows(metrics_path):
            lines.append(f"| {row['metric']} | {row['value']} |")
        lines.append("")
    else:
        lines += ["_No evaluation metrics found._", ""]

    lines += ["## Threshold sweep", ""]
    if sweep_path.is_file():
        lines += ["| threshold | mean RRS | total MRPs | rho |",
                  "| --- | --- | --- | --- |"]
        for row in _read_csv_rows(sweep_path):
            lines.append(f"| {row['threshold']} | {row['mean_rrs']} | "
                         f"{row['total_mrps']} | {row.get('rho', '')} |")
        lines.append("")
    else:
        lines += ["_No sweep table found._", ""]

    out = tracker.add(args.out if args.out else workdir / "report.md")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines), encoding="utf-8")
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
    p.add_argument("--min-tokens", dest="min_tokens", type=int)
    p.add_argument("--sections", dest="sections")
    p.add_argument("--config")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("pairs", help="build positive pairs and split train/val")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--view", choices=["chrono", "chronological", "lexical", "both"],
                   default="both")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train", dest="train_count", type=int)
    p.add_argument("--val", dest="val_count", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--min-tokens", dest="min_tokens", type=int)
    p.add_argument("--min-span", dest="min_span", type=int)
    p.add_argument("--overlap-cap", dest="overlap_cap", type=int)
    p.add_argument("--max-pairs-per-paragraph", dest="max_pairs_per_paragraph", type=int)
    p.add_argument("--config")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("train", help="train the encoder on positive pairs")
    p.add_argument("--pairs", required=True, help="directory of *.train/val.jsonl")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--report", help="output training report (JSONL)")
    p.add_argument("--config")
    for key, cast in TRAIN_FLAGS:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=cast)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed paragraphs with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sections", dest="sections")
    p.add_argument("--config")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("score", help="compute the RRS matrix and evidence files")
    p.add_argument("--model", required=True)
    p.add_argument("--paragraphs", required=True)
    p.add_argument("--threshold", dest="threshold", type=float)
    p.add_argument("--out-matrix", dest="out_matrix", required=True)
    p.add_argument("--out-evidence", dest="out_evidence")
    p.add_argument("--sections", dest="sections")
    p.add_argument("--config")
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
    p.add_argument("--grid", dest="grid", help="start:stop:step, default 0.6:0.9:0.05")
    p.add_argument("--prices", help="optional prices directory for rho per threshold")
    p.add_argument("--out", required=True)
    p.add_argument("--sections", dest="sections")
    p.add_argument("--config")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="collate artifacts into one markdown report")
    p.add_argument("--workdir", default=".")
    p.add_argument("--rrs")
    p.add_argument("--evidence-dir", dest="evidence_dir")
    p.add_argument("--metrics")
    p.add_argument("--sweep")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    tracker = OutputTracker()
    try:
        args.func(args, tracker)
    except (RiskRelError, OSError, ValueError, KeyError) as exc:
        tracker.cleanup()
        detail = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
