"""Span recorder that traces riskrel's public functions from outside.

Every public function defined in a traced module is replaced, in every
loaded ``riskrel`` module that refers to it, by a wrapper that records a
span (name, start, end, parent, run id) in memory. Hooks attached to some
functions add counts at the same boundaries (bytes in, similarity entries,
files written, ...). Nothing under ``src/`` is modified: the wrappers are
installed for a traced iteration and removed afterwards, so untraced
iterations run the original functions.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

LAYERS = ("corpus", "pairs", "encoder", "training", "scoring", "evaluation", "cli")


class SpanRecorder:
    """In-memory spans plus counters for one or more traced runs."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter[tuple[int, str]] = Counter()
        self.samples: defaultdict[tuple[int, str], list[float]] = defaultdict(list)
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    # --- recording ---

    def count(self, name: str, value: float = 1) -> None:
        self.counts[(self.run_id, name)] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[(self.run_id, name)].append(value)

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.run_id))
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.run_id)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    # --- installation ---

    def install(self) -> None:
        """Wrap every public function of the traced modules, wherever it is bound."""
        if self._patched:
            return
        package = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "riskrel" or n.startswith("riskrel."))]
        for layer in LAYERS:
            module = sys.modules[f"riskrel.{layer}"]
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn, HOOKS.get(f"{layer}.{attr}"))
                for holder in package:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, name, wrapper)
                            self._patched.append((holder, name, fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patched):
            setattr(holder, name, fn)
        self._patched.clear()

    # --- analysis ---

    def run_metrics(self, run_id: int) -> dict[str, float]:
        """Per-function inclusive time and calls, per-layer self time, counters."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in spans:
            out[f"{name}_s"] += end - start
            out[f"{name}_calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += end - start - child_time[i]
        for (rid, name), value in self.counts.items():
            if rid == run_id:
                out[name] += value
        for (rid, name), values in self.samples.items():
            if rid == run_id:
                out[name] = sum(values) / len(values)
        out["trace.spans"] = len(spans)
        return dict(out)


# --- hooks: counts taken where the work happens ---

def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ingest_filing(rec, args, kwargs, result):
    rec.count("corpus.filings")
    rec.count("corpus.bytes_in", len(args[2].encode("utf-8")))


def _ingest_directory(rec, args, kwargs, result):
    rec.count("corpus.paragraphs", len(result))


def _chronological(rec, args, kwargs, result):
    rec.count("pairs.chronological_pairs", len(result))


def _lexical(rec, args, kwargs, result):
    rec.count("pairs.lexical_pairs", len(result))
    stats = kwargs.get("stats")
    if stats is not None:
        rec.count("pairs.lexical_skipped", stats.get("skipped_short", 0))


def _build_vocab(rec, args, kwargs, result):
    rec.counts[(rec.run_id, "encoder.vocab_size")] = len(result)


def _train(rec, args, kwargs, result):
    rec.count("training.epochs", len(result.report.epochs))


def _adam_step(rec, args, kwargs, result):
    grads = args[1]
    rec.sample("training.touched_rows_per_step", int((grads.embed != 0).any(axis=1).sum()))


def _embed_corpus(rec, args, kwargs, result):
    rec.count("scoring.paragraphs_encoded", sum(len(ids) for ids, _ in result.firms.values()))


def _find_mrps(rec, args, kwargs, result):
    entries = result.n_a * result.n_b
    rec.count("scoring.sim_entries", entries)
    rec.count("scoring.gemm_flops", 2 * args[0].d * entries)
    rec.count("scoring.evidence_pairs", len(result.evidence))


def _write_evidence(rec, args, kwargs, result):
    rec.count("scoring.evidence_files", len(result))
    rec.count("scoring.evidence_bytes", sum(p.stat().st_size for p in result))


def _save_embeddings(rec, args, kwargs, result):
    rec.count("scoring.embeddings_bytes", Path(args[1]).stat().st_size)


def _threshold_sweep(rec, args, kwargs, result):
    rec.count("evaluation.sweep_thresholds", len(result))


def _stage_rss(stage: str) -> Callable:
    def hook(rec, args, kwargs, result):
        rec.counts[(rec.run_id, f"cli.{stage}_maxrss_mb")] = maxrss_mb()
    return hook


HOOKS: dict[str, Callable] = {
    "corpus.ingest_filing": _ingest_filing,
    "corpus.ingest_directory": _ingest_directory,
    "pairs.build_chronological_pairs": _chronological,
    "pairs.build_lexical_pairs": _lexical,
    "encoder.build_vocab": _build_vocab,
    "training.train": _train,
    "training.adam_step": _adam_step,
    "scoring.embed_corpus": _embed_corpus,
    "scoring.find_mrps": _find_mrps,
    "scoring.write_evidence_files": _write_evidence,
    "scoring.save_embeddings": _save_embeddings,
    "evaluation.threshold_sweep": _threshold_sweep,
}
HOOKS.update({f"cli.cmd_{stage}": _stage_rss(stage)
              for stage in ("ingest", "pairs", "train", "embed", "score",
                            "evaluate", "sweep", "report")})
