"""riskrel pipeline benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload fixture|wide|evidence --seed N --seconds S --trace 0|1

Each workload is a closed loop: one client in this process runs the eight
CLI stages (ingest -> pairs -> train -> embed -> score -> evaluate ->
sweep -> report) in order, then starts again, until the time budget is
spent. Stage times are reported as medians over those pipelines, each
read from a clock that corrects for the CPU's changing speed
(see ReferenceClock).
The outputs of the first pipeline are checked (see checks.py) and every
later pipeline must reproduce its artifacts byte for byte.

With ``--trace 1`` untraced and traced pipelines alternate; the traced ones
record spans around riskrel's public functions (see spans.py) and the run
reports per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads; one thread keeps the small
# GEMMs free of scheduling noise on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from generate import CorpusSpec, generate, tree_digest  # noqa: E402
from spans import SpanRecorder, maxrss_mb  # noqa: E402

STAGES = ("ingest", "pairs", "train", "embed", "score", "evaluate", "sweep", "report")
THRESHOLD = 0.75
SETUP_REPEATS = 5
HASH_SEED = "0"


# --- CPU speed ---

# The CPU of a shared virtual machine changes speed by up to 1.5x, in phases
# that last from a fraction of a second to minutes, and CPU time moves with
# wall time. So every time the benchmark reports is read from a reference
# clock: while a run measures, SIGALRM interrupts the process every
# SAMPLE_PERIOD_S seconds of wall time and times a fixed kernel of the
# benchmark's own (an interpreter loop plus small GEMMs, the pipeline's mix).
# Until the next sample, the clock advances by wall time x CAL_REF_S / (that
# kernel time), and it stands still while the kernel runs. A reported time is
# thus seconds of work at the speed at which the kernel takes CAL_REF_S; on
# the 2-vCPU Xeon the baseline was measured on, about the wall time.
CAL_REF_S = 0.00115
SAMPLE_PERIOD_S = 0.025
_CAL_A = np.random.default_rng(0).standard_normal((120, 64))
_CAL_B = np.random.default_rng(1).standard_normal((64, 120))


def kernel_s() -> float:
    """Wall time of the fixed calibration kernel (about 1 ms)."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(3750):
        acc += i * i % 7
        table[i % 97] = acc
    for _ in range(4):
        c = _CAL_A @ _CAL_B
        np.tanh(c, out=c)
        c.sum(axis=1)
    return time.perf_counter() - t0


class ReferenceClock:
    """Seconds of work at the reference speed, sampled by SIGALRM."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        # (reference seconds, wall time they were read at, current speed);
        # one attribute, so a reader never sees half of an update.
        self._state = (0.0, time.perf_counter(), CAL_REF_S / kernel_s())
        self._busy = False

    def now(self) -> float:
        ref, wall, speed = self._state
        return ref + (time.perf_counter() - wall) * speed

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        ref = self.now()
        speed = CAL_REF_S / kernel_s()
        self._state = (ref, time.perf_counter(), speed)
        self.speeds.append(speed)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: CorpusSpec | None      # None: the bundled fixture
    evidence: bool               # score writes evidence files
    train_flags: tuple[str, ...]
    oracle_pairs: int | None     # firm pairs the oracle checks; None: all


# The generated workloads use one pinned corpus each, like the bundled
# fixture: the number of paragraph pairs that clear the threshold, and so the
# work in score and sweep, depends on the corpus seed, so a varying corpus
# would make the times measure the seed rather than the code. --seed picks
# the firm pairs the oracle samples. For the same reason they train a fixed
# five epochs (early stopping takes 8 to 17, depending on the corpus).
CORPUS_SEED = 1
FIXED_EPOCHS = ("--max-epochs", "5", "--patience", "5")

WORKLOADS = {w.name: w for w in (
    Workload("fixture", None, True, (), None),
    Workload("wide", CorpusSpec(n_firms=60, n_groups=12, group_size=2), False,
             FIXED_EPOCHS, 40),
    Workload("evidence", CorpusSpec(n_firms=16, n_groups=4, group_size=4), True,
             FIXED_EPOCHS, 24),
)}

# SHA-256 of each workload's inputs (generate.tree_digest). A mismatch means
# the inputs drifted: riskrel.synthetic for the fixture, generate.py or
# numpy's generator for the others. The run header prints the current one.
INPUT_SHA256 = {
    "fixture": "34b86e5761bafef2760fcaca90d93849269fb634823ba72fe489e58991c087be",
    "wide": "b35e0f0eb5c6fec22d058d409d150a8f4f83ec3a79e1d4161a1dee45463f8140",
    "evidence": "c8de432d339582a48184d206ef794122db129b2b054f10aecef8ada91d1a1ada",
}

# name -> (unit, better); the order is the print order.
END_TO_END = {
    "setup_s": ("s", "lower"), "pipeline_s": ("s", "lower"),
    **{f"{s}_s": ("s", "lower") for s in STAGES if s != "report"},
    "peak_rss_mb": ("MiB", "lower"), "best_val_loss": ("nats", "lower"),
    "rho_pearson": ("1", "higher"),
    "planted_ndcg": ("1", "higher"), "pass_ratio": ("ratio", "higher"),
}


# --- inputs ---

@dataclass
class Inputs:
    filings: Path
    prices: Path
    gics: Path
    planted: tuple[tuple[str, str], ...]


def make_inputs(workload: Workload, root: Path) -> Inputs:
    if workload.spec is None:
        from riskrel.synthetic import write_fixture
        m = write_fixture(root)
        return Inputs(m.filings_dir, m.prices_dir, m.gics_path, (m.planted_pair,))
    m = generate(root, workload.spec, CORPUS_SEED)
    return Inputs(m.filings_dir, m.prices_dir, m.gics_path, m.planted_pairs)


# --- the pipeline ---

def stage_argv(workload: Workload, inputs: Inputs, work: Path) -> list[list[str]]:
    """The README's command lines, with the workload's flags."""
    w = str(work)
    score = ["score", "--model", f"{w}/model.bin", "--paragraphs", f"{w}/paragraphs.jsonl",
             "--threshold", str(THRESHOLD), "--out-matrix", f"{w}/rrs.csv"]
    if workload.evidence:
        score += ["--out-evidence", f"{w}/evidence"]
    return [
        ["ingest", "--root", str(inputs.filings), "--out", f"{w}/paragraphs.jsonl",
         "--min-tokens", "20", "--sections", "1A,7A"],
        ["pairs", "--in", f"{w}/paragraphs.jsonl", "--view", "both", "--seed", "7",
         "--train", "140", "--val", "25", "--out", f"{w}/pairs"],
        ["train", "--pairs", f"{w}/pairs", "--seed", "0", "--out", f"{w}/model.bin",
         "--report", f"{w}/train_report.jsonl", *workload.train_flags],
        ["embed", "--model", f"{w}/model.bin", "--in", f"{w}/paragraphs.jsonl",
         "--out", f"{w}/embeddings.bin"],
        score,
        ["evaluate", "--rrs", f"{w}/rrs.csv", "--prices", str(inputs.prices),
         "--gics", str(inputs.gics), "--out", f"{w}/eval"],
        ["sweep", "--model", f"{w}/model.bin", "--paragraphs", f"{w}/paragraphs.jsonl",
         "--grid", "0.6:0.9:0.05", "--prices", str(inputs.prices), "--out", f"{w}/sweep.csv"],
        ["report", "--workdir", w],
    ]


@dataclass
class PipelineRun:
    times: dict[str, float]   # reference seconds
    failed: list[str]
    attempted: int
    digest: str


def run_pipeline(workload: Workload, inputs: Inputs, work: Path, keep: bool = False,
                 clock: Callable[[], float] = time.perf_counter) -> PipelineRun:
    """Run the eight stages in ``work``; its artifacts are deleted unless kept."""
    from riskrel import cli

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    times: dict[str, float] = {}
    failed: list[str] = []
    attempted = 0
    sink = io.StringIO()
    for argv in stage_argv(workload, inputs, work):
        stage = argv[0]
        attempted += 1
        t0 = clock()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed stage, not a crash
            code = f"{type(exc).__name__}: {exc}"
        times[f"{stage}_s"] = clock() - t0
        if code != 0:
            failed.append(f"{stage}: {code} {sink.getvalue()[-300:]!r}")
            break
    times["pipeline_s"] = sum(times.values())
    digest = tree_digest(work)
    if not keep:
        # Deleting at once keeps one pipeline's pending writes out of the next.
        shutil.rmtree(work)
    return PipelineRun(times, failed, attempted, digest)


def training_probe(work: Path, clock: Callable[[], float]) -> dict[str, float]:
    """Per-batch objective and gradient time on the run's own training batches."""
    from riskrel.encoder import load_model, pad_batch
    from riskrel.pairs import read_pairs
    from riskrel.training import TrainConfig, TrainingBatch, batch_objective, compute_gradients

    vocab, params, max_len = load_model(work / "model.bin")
    config = TrainConfig()
    pairs = [p for path in sorted((work / "pairs").glob("*.train.jsonl"))
             for p in read_pairs(path)]
    b = config.batch_size
    objective, gradients, positions = [], [], []
    for start in range(0, len(pairs) - b + 1, b):
        chunk = pairs[start:start + b]
        batch = TrainingBatch(pad_batch([vocab.indices(p.left_tokens, max_len) for p in chunk]),
                              pad_batch([vocab.indices(p.right_tokens, max_len) for p in chunk]))
        t0 = clock()
        batch_objective(params, batch, config)
        t1 = clock()
        compute_gradients(params, batch, config)
        t2 = clock()
        objective.append(t1 - t0)
        gradients.append(t2 - t1)
        positions.append(int((batch.anchors != 0).sum() + (batch.positives != 0).sum()))
    n_params = params.embed.size + params.proj_w.size + params.proj_b.size
    return {
        "training.objective_s": statistics.median(objective),
        "training.gradients_s": statistics.median(gradients),
        "training.scatter_positions_per_step": statistics.mean(positions),
        # Dense Adam reads value, grad, m, v and writes value, m, v: 7 float64 per parameter.
        "training.adam_bytes_per_step": 7 * 8 * n_params,
        "training.batch_size": b,
    }


# --- per-layer metrics from the traced runs ---

# metric -> (unit, span-derived key); keys ending in _s/_calls come from spans.
LAYER_SOURCES = {
    "corpus.strip_markup_s": ("s", "corpus.strip_markup_s"),
    "corpus.extract_sections_s": ("s", "corpus.extract_sections_s"),
    "corpus.segment_s": ("s", "corpus.segment_paragraphs_s"),
    "corpus.filings": ("count", "corpus.filings"),
    "corpus.bytes_in": ("B", "corpus.bytes_in"),
    "corpus.paragraphs": ("count", "corpus.paragraphs"),
    "corpus.write_paragraphs_s": ("s", "corpus.write_paragraphs_s"),
    "corpus.read_paragraphs_s": ("s", "corpus.read_paragraphs_s"),
    "corpus.read_paragraphs_calls": ("count", "corpus.read_paragraphs_calls"),
    "corpus.self_s": ("s", "corpus.self_s"),
    "pairs.chronological_s": ("s", "pairs.build_chronological_pairs_s"),
    "pairs.date_scan_calls": ("count", "pairs.scan_tokens_calls"),
    "pairs.lexical_s": ("s", "pairs.build_lexical_pairs_s"),
    "pairs.split_s": ("s", "pairs.split_train_val_s"),
    "pairs.write_s": ("s", "pairs.write_pairs_s"),
    "pairs.read_s": ("s", "pairs.read_pairs_s"),
    "pairs.chronological_pairs": ("count", "pairs.chronological_pairs"),
    "pairs.lexical_pairs": ("count", "pairs.lexical_pairs"),
    "pairs.lexical_skipped": ("count", "pairs.lexical_skipped"),
    "pairs.self_s": ("s", "pairs.self_s"),
    "encoder.vocab_size": ("count", "encoder.vocab_size"),
    "encoder.build_vocab_s": ("s", "encoder.build_vocab_s"),
    "encoder.save_model_s": ("s", "encoder.save_model_s"),
    "encoder.load_model_s": ("s", "encoder.load_model_s"),
    "encoder.load_model_calls": ("count", "encoder.load_model_calls"),
    "encoder.fingerprint_s": ("s", "encoder.model_fingerprint_s"),
    "encoder.encode_calls": ("count", "encoder.encode_calls"),
    "encoder.encode_s": ("s", "encoder.encode_s"),
    "encoder.self_s": ("s", "encoder.self_s"),
    "training.train_s": ("s", "training.train_s"),
    "training.epochs": ("count", "training.epochs"),
    "training.steps": ("count", "training.adam_step_calls"),
    "training.pairs_per_s": ("1/s", None),
    "training.adam_step_s": ("s", "training.adam_step_s"),
    "training.objective_s": ("s", "training.objective_s"),
    "training.gradients_s": ("s", "training.gradients_s"),
    "training.scatter_positions_per_step": ("count", "training.scatter_positions_per_step"),
    "training.touched_rows_per_step": ("count", "training.touched_rows_per_step"),
    "training.touched_row_ratio": ("ratio", None),
    "training.adam_bytes_per_step": ("B", "training.adam_bytes_per_step"),
    "training.self_s": ("s", "training.self_s"),
    "scoring.embed_corpus_s": ("s", "scoring.embed_corpus_s"),
    "scoring.embed_corpus_calls": ("count", "scoring.embed_corpus_calls"),
    "scoring.paragraphs_encoded": ("count", "scoring.paragraphs_encoded"),
    "scoring.find_mrps_s": ("s", "scoring.find_mrps_s"),
    "scoring.find_mrps_calls": ("count", "scoring.find_mrps_calls"),
    "scoring.find_mrps_calls_per_pair": ("count", None),
    "scoring.sim_entries": ("count", "scoring.sim_entries"),
    "scoring.gemm_flops": ("flop", "scoring.gemm_flops"),
    "scoring.evidence_pairs": ("count", "scoring.evidence_pairs"),
    "scoring.hit_ratio": ("ratio", None),
    "scoring.rrs_matrix_s": ("s", "scoring.rrs_matrix_s"),
    "scoring.write_evidence_s": ("s", "scoring.write_evidence_files_s"),
    "scoring.evidence_files": ("count", "scoring.evidence_files"),
    "scoring.evidence_bytes": ("B", "scoring.evidence_bytes"),
    "scoring.save_embeddings_s": ("s", "scoring.save_embeddings_s"),
    "scoring.embeddings_bytes": ("B", "scoring.embeddings_bytes"),
    "scoring.self_s": ("s", "scoring.self_s"),
    "evaluation.read_prices_s": ("s", "evaluation.read_prices_dir_s"),
    "evaluation.cavdsr_s": ("s", "evaluation.cavdsr_s"),
    "evaluation.cavdsr_calls": ("count", "evaluation.cavdsr_calls"),
    "evaluation.threshold_sweep_s": ("s", "evaluation.threshold_sweep_s"),
    "evaluation.sweep_thresholds": ("count", "evaluation.sweep_thresholds"),
    "evaluation.alignment_rho_s": ("s", "evaluation.alignment_rho_s"),
    "evaluation.rho_spearman": ("1", None),
    "evaluation.self_s": ("s", "evaluation.self_s"),
    "cli.report_s": ("s", "cli.cmd_report_s"),
    "cli.self_s": ("s", "cli.self_s"),
    **{f"cli.{s}_maxrss_mb": ("MiB", f"cli.{s}_maxrss_mb") for s in STAGES},
    "trace.overhead_ratio": ("ratio", None),
    "trace.spans": ("count", "trace.spans"),
}


def layer_metrics(raw: dict[str, float], n_firms: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline, derived ones included."""
    out = {name: raw.get(key, 0.0) for name, (_, key) in LAYER_SOURCES.items() if key}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["training.pairs_per_s"] = ratio(out["training.steps"] * raw.get("training.batch_size", 0),
                                        out["training.train_s"])
    out["training.touched_row_ratio"] = ratio(out["training.touched_rows_per_step"],
                                              out["encoder.vocab_size"])
    out["scoring.find_mrps_calls_per_pair"] = ratio(out["scoring.find_mrps_calls"],
                                                    n_firms * (n_firms - 1) / 2)
    out["scoring.hit_ratio"] = ratio(out["scoring.evidence_pairs"], out["scoring.sim_entries"])
    return out


# --- reporting ---

def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles, the highest percentile with ten samples beyond it, count."""
    s = sorted(values)
    n = len(s)
    q = statistics.quantiles(s, n=4) if n >= 2 else [s[0]] * 3
    out = {"median": statistics.median(s), "q1": q[0], "q3": q[2], "n": n, "max": s[-1]}
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        out[f"p{p}"] = statistics.quantiles(s, n=100)[p - 1]
    return out


def print_table(rows: dict[str, list[float]], units: dict[str, str],
                better: dict[str, str]) -> None:
    for name, values in rows.items():
        st = summarize(values)
        tail = " ".join(f"{k} {v:.6g}" for k, v in st.items() if k not in ("median", "n"))
        direction = f"{better[name]} is better; " if name in better else ""
        print(f"  {name:<38} {st['median']:>14.6g} {units[name]:<6} "
              f"({direction}n={st['n']}; {tail})")


# --- main ---

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (REPO / "src" / "riskrel" / "__init__.py").is_file():
        print(f"error: riskrel sources not found under {REPO / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO / "src"))
    import riskrel.cli  # noqa: F401

    run_dir = BENCH_DIR / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    clock = ReferenceClock()
    clock.start()
    try:
        return measure(workload, args, run_dir, clock)
    finally:
        clock.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def fresh_import() -> None:
    """A fresh interpreter that imports riskrel.cli, as a CLI user starts one."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    # No timeout: with one, Popen.wait polls every 50 ms, which would round
    # the time up to the poll.
    subprocess.run([sys.executable, "-c", "import riskrel.cli"], env=env, cwd=REPO,
                   check=True)


def measure(workload: Workload, args: argparse.Namespace, run_dir: Path,
            clock: ReferenceClock) -> int:
    from checks import CheckResult, planted_ndcg, quality, run_checks

    checks: list[CheckResult] = []

    # Set-up, repeated: a fresh interpreter's imports plus writing the inputs.
    # Every generation of the inputs must be identical.
    setup_times, digests = [], []
    for k in range(SETUP_REPEATS):
        root = run_dir / f"inputs{k}"
        t0 = clock.now()
        fresh_import()
        made = make_inputs(workload, root)
        setup_times.append(clock.now() - t0)
        digests.append(tree_digest(root))
        if k:
            shutil.rmtree(root)
        else:
            inputs = made
    checks.append(CheckResult("inputs reproducible", len(set(digests)) == 1, str(set(digests))))
    checks.append(CheckResult("inputs match INPUT_SHA256",
                              digests[0] == INPUT_SHA256[workload.name], digests[0]))

    recorder = SpanRecorder(clock.now) if args.trace else None
    runs: list[PipelineRun] = []
    traced: list[tuple[PipelineRun, dict[str, float]]] = []
    stage_attempts = stage_failures = 0
    reference = run_dir / "run0"
    deadline = time.perf_counter() + args.seconds
    step_times: list[float] = []
    while True:
        t_step = time.perf_counter()
        i = len(runs)
        # In a traced run the order alternates, traced first on even steps, so
        # the first pipeline of the process is traced (its per-stage RSS
        # high-water marks are its own) and order effects cancel in the overhead.
        for traced_now in ((True, False) if i % 2 == 0 else (False, True)):
            gc.collect()
            if not traced_now:
                runs.append(run_pipeline(workload, inputs, reference if i == 0 else run_dir / "run",
                                         keep=i == 0, clock=clock.now))
            elif recorder is not None:
                recorder.run_id = i
                recorder.install()
                try:
                    result = run_pipeline(workload, inputs, run_dir / "traced", keep=True,
                                          clock=clock.now)
                finally:
                    recorder.uninstall()
                raw = recorder.run_metrics(i)
                if not result.failed:
                    raw.update(training_probe(run_dir / "traced", clock.now))
                shutil.rmtree(run_dir / "traced")
                traced.append((result, raw))
        step_times.append(time.perf_counter() - t_step)
        enough = len(runs) >= (1 if recorder is not None else 2)
        if enough and time.perf_counter() + statistics.median(step_times) > deadline:
            break
    peak_rss = maxrss_mb()

    for k, run in enumerate(runs + [r for r, _ in traced]):
        stage_attempts += run.attempted
        stage_failures += len(run.failed)
        for failure in run.failed:
            print(f"stage failed (pipeline {k}): {failure}", file=sys.stderr)
        if k:
            checks.append(CheckResult(f"pipeline {k} byte-identical",
                                      run.digest == runs[0].digest))

    checks += run_checks(reference, THRESHOLD, workload.evidence, workload.oracle_pairs,
                         args.seed)
    for c in checks:
        if not c.ok:
            print(f"check failed: {c.name}: {c.detail}", file=sys.stderr)
    attempted = stage_attempts + len(checks)
    failed = stage_failures + sum(not c.ok for c in checks)

    print(f"riskrel benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} nproc={os.cpu_count()} "
          f"blas_threads={BLAS_THREADS} hash_seed={os.environ.get('PYTHONHASHSEED')} "
          f"input_sha256={digests[0]}")
    print(f"  {len(runs)} untraced pipelines, {len(traced)} traced; "
          f"{attempted} stage runs and checks attempted, {failed} failed")
    sq = statistics.quantiles(clock.speeds, n=4)
    print(f"  times in reference seconds (CAL_REF_S={CAL_REF_S}); speed over "
          f"{len(clock.speeds)} samples: median {sq[1]:.4f}, quartiles {sq[0]:.4f}-{sq[2]:.4f}")

    try:
        q = quality(reference)
        q["planted_ndcg"] = planted_ndcg(reference, inputs.planted)
    except Exception as exc:  # the checks above already count the broken artifact
        print(f"quality unreadable: {type(exc).__name__}: {exc}", file=sys.stderr)
        q = {"rho_pearson": 0.0, "rho_spearman": 0.0, "best_val_loss": 0.0,
             "planted_ndcg": 0.0}
    if recorder is None:
        rows = {"setup_s": setup_times}
        for key in ["pipeline_s"] + [f"{s}_s" for s in STAGES]:
            rows[key] = [r.times[key] for r in runs if key in r.times]
        rows.update({"peak_rss_mb": [peak_rss], "best_val_loss": [q["best_val_loss"]],
                     "rho_pearson": [q["rho_pearson"]], "planted_ndcg": [q["planted_ndcg"]],
                     "pass_ratio": [(attempted - failed) / attempted],
                     "failed_ratio": [failed / attempted],
                     "rho_spearman": [q["rho_spearman"]]})
        units = {k: u for k, (u, _) in END_TO_END.items()}
        units.update(report_s="s", failed_ratio="ratio", rho_spearman="1")
        print_table(rows, units, {k: v[1] for k, v in END_TO_END.items()})
        metrics = {k: {"value": statistics.median(rows[k]) if rows[k] else 0.0,
                       "unit": unit} for k, (unit, _) in END_TO_END.items()}
    else:
        n_firms = len(list(inputs.filings.iterdir()))
        per_run = []
        for (result, raw), untraced in zip(traced, runs):
            m = layer_metrics(raw, n_firms)
            m["trace.overhead_ratio"] = (result.times["pipeline_s"]
                                         / untraced.times["pipeline_s"])
            m["evaluation.rho_spearman"] = q["rho_spearman"]
            per_run.append(m)
        rows = {k: [m[k] for m in per_run] for k in LAYER_SOURCES}
        # RSS high-water marks only rise, so only the first pipeline's are per stage.
        rows.update({k: rows[k][:1] for k in rows if k.endswith("_maxrss_mb")})
        print_table(rows, {k: u for k, (u, _) in LAYER_SOURCES.items()}, {})
        write_spans(recorder, workload.name)
        metrics = {k: {"value": statistics.median(v), "unit": LAYER_SOURCES[k][0]}
                   for k, v in rows.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_spans(recorder, workload: str) -> None:
    """The last traced run's spans: [index, name, start, end, parent, run id] per line."""
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}.jsonl", "w", encoding="utf-8") as fh:
        for index, span in enumerate(recorder.spans):
            if span[4] == recorder.run_id:
                fh.write(json.dumps([index, *span]) + "\n")


if __name__ == "__main__":
    # str hashes, and with them the order of set iteration, change with every
    # interpreter unless PYTHONHASHSEED is set. The pairs stage took 0.071 s
    # under some seeds and 0.091 s under others, so the run pins it.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])
    sys.exit(main())
