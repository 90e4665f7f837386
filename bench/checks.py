"""Output checks for one pipeline run, written independently of riskrel.

Each check reads the artifacts a run left in its work directory and
recomputes what it can from first principles: the MRP oracle re-encodes
paragraphs with plain numpy from the model's parameters (mean-pool ->
affine -> tanh -> cosine >= threshold), the correlation is recomputed
from ``eval/pairs.csv``, and the sweep is tied back to the score matrix.
Only ``load_model`` is borrowed from the package, to read the model file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

# A similarity this close to the threshold may fall on either side
# depending on summation order, so the oracle accepts both outcomes.
AMBIGUOUS = 1e-9
SECTIONS = ("1A", "7A")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def failed_ratio(results: Iterable[CheckResult]) -> float:
    results = list(results)
    return sum(not r.ok for r in results) / len(results)


def run_check(name: str, fn: Callable[[], str | None]) -> CheckResult:
    """Run one check; a returned string or any exception is a failure."""
    try:
        problem = fn()
    except Exception as exc:  # a broken artifact must count, not crash the run
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, problem is None, problem or "")


# --- artifact readers ---

def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    firms = lines[0].split(",")[1:]
    labels = [line.split(",", 1)[0] for line in lines[1:]]
    if labels != firms:
        raise ValueError("row labels differ from the header")
    matrix = np.array([[float(c) for c in line.split(",")[1:]] for line in lines[1:]])
    return firms, matrix


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def read_scored_tokens(path: Path) -> dict[str, list[tuple[str, list[str]]]]:
    """Scored paragraphs per firm, in file order: (id, tokens)."""
    firms: dict[str, list[tuple[str, list[str]]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["section"] in SECTIONS:
                firms.setdefault(rec["firm"], []).append((rec["id"], rec["tokens"]))
    return firms


# --- brute-force MRP oracle ---

class Oracle:
    """Unit paragraph vectors per firm, encoded without riskrel's encoder."""

    def __init__(self, workdir: Path) -> None:
        from riskrel.encoder import load_model

        vocab, params, max_len = load_model(workdir / "model.bin")
        lookup = vocab.token_to_index
        self.firms: dict[str, tuple[list[str], np.ndarray]] = {}
        for firm, paras in read_scored_tokens(workdir / "paragraphs.jsonl").items():
            rows = []
            for _, tokens in paras:
                ids = [lookup.get(t, 1) for t in tokens[:max_len]]
                ids = [i for i in ids if i != 0]
                h = params.embed[ids].sum(axis=0) / len(ids)
                rows.append(np.tanh(params.proj_w @ h + params.proj_b))
            vectors = np.array(rows)
            vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
            self.firms[firm] = ([pid for pid, _ in paras], vectors)

    def pair(self, a: str, b: str, threshold: float) -> dict:
        """Sure and possible MRP sets and evidence pairs for firms a < b."""
        ids_a, va = self.firms[a]
        ids_b, vb = self.firms[b]
        sims = va @ vb.T
        sure = sims >= threshold + AMBIGUOUS
        possible = sims >= threshold - AMBIGUOUS
        n = len(ids_a) + len(ids_b)
        out = {"n": n, "sims": sims, "ids_a": ids_a, "ids_b": ids_b}
        for kind, hits in (("sure", sure), ("possible", possible)):
            out[f"{kind}_a"] = {ids_a[i] for i in np.flatnonzero(hits.any(axis=1))}
            out[f"{kind}_b"] = {ids_b[j] for j in np.flatnonzero(hits.any(axis=0))}
            out[f"{kind}_pairs"] = {(ids_a[i], ids_b[j]) for i, j in zip(*np.nonzero(hits))}
            out[f"{kind}_rrs"] = (len(out[f"{kind}_a"]) + len(out[f"{kind}_b"])) / n
        return out


def _within(lo: set, got: set, hi: set) -> bool:
    return lo <= got <= hi


# --- the checks ---

def check_matrix(workdir: Path) -> str | None:
    firms, m = read_matrix(workdir / "rrs.csv")
    if m.shape != (len(firms), len(firms)):
        return f"shape {m.shape} for {len(firms)} firms"
    if not np.array_equal(m, m.T):
        return "matrix is not symmetric"
    if not np.all(np.diag(m) == 1.0):
        return "diagonal is not 1"
    off = m[~np.eye(len(firms), dtype=bool)]
    if off.min() < 0.0 or off.max() > 1.0:
        return "off-diagonal value outside [0, 1]"
    return None


def check_oracle_pair(oracle: Oracle, matrix: tuple[list[str], np.ndarray],
                      evidence_dir: Path | None, a: str, b: str,
                      threshold: float) -> str | None:
    firms, m = matrix
    got = m[firms.index(a), firms.index(b)]
    ref = oracle.pair(a, b, threshold)
    lo, hi = round(ref["sure_rrs"], 6), round(ref["possible_rrs"], 6)
    if not lo - 1e-12 <= got <= hi + 1e-12:
        return f"rrs.csv {got:.6f}, oracle {lo:.6f}..{hi:.6f}"
    if evidence_dir is None:
        return None
    doc = json.loads((evidence_dir / f"{a}__{b}.json").read_text(encoding="utf-8"))
    if not _within(ref["sure_a"], set(doc["mrps_a"]), ref["possible_a"]):
        return "evidence mrps_a differ from the oracle"
    if not _within(ref["sure_b"], set(doc["mrps_b"]), ref["possible_b"]):
        return "evidence mrps_b differ from the oracle"
    pairs = [(e["id_a"], e["id_b"]) for e in doc["evidence"]]
    if len(pairs) != len(set(pairs)) or not _within(ref["sure_pairs"], set(pairs),
                                                    ref["possible_pairs"]):
        return "evidence pairs differ from the oracle"
    sims = [e["similarity"] for e in doc["evidence"]]
    if any(x < y for x, y in zip(sims, sims[1:])):
        return "evidence not sorted by similarity"
    pos_a = {pid: i for i, pid in enumerate(ref["ids_a"])}
    pos_b = {pid: j for j, pid in enumerate(ref["ids_b"])}
    worst = max((abs(e["similarity"] - ref["sims"][pos_a[e["id_a"]], pos_b[e["id_b"]]])
                 for e in doc["evidence"]), default=0.0)
    if worst > 1e-9:
        return f"evidence similarity off by {worst:.2e}"
    return None


def check_evidence_files(workdir: Path) -> str | None:
    firms, _ = read_matrix(workdir / "rrs.csv")
    expected = {f"{a}__{b}.json" for a, b in combinations(firms, 2)}
    found = {p.name for p in (workdir / "evidence").glob("*.json")}
    if found != expected:
        return f"{len(expected - found)} evidence files missing, {len(found - expected)} extra"
    return None


def check_sweep(workdir: Path, threshold: float) -> str | None:
    firms, m = read_matrix(workdir / "rrs.csv")
    counts = {f: len(p) for f, p in read_scored_tokens(workdir / "paragraphs.jsonl").items()}
    rows = read_csv(workdir / "sweep.csv")
    means = [float(r["mean_rrs"]) for r in rows]
    totals = [int(r["total_mrps"]) for r in rows]
    if any(x < y for x, y in zip(means, means[1:])):
        return "mean_rrs increases with the threshold"
    if any(x < y for x, y in zip(totals, totals[1:])):
        return "total_mrps increases with the threshold"
    row = next(r for r in rows if math.isclose(float(r["threshold"]), threshold))
    iu = np.triu_indices(len(firms), 1)
    mean = float(m[iu].mean())
    total = sum(round(m[i, j] * (counts[firms[i]] + counts[firms[j]])) for i, j in zip(*iu))
    if abs(float(row["mean_rrs"]) - mean) > 1e-6:
        return f"sweep mean_rrs {row['mean_rrs']} vs matrix mean {mean:.7f}"
    if int(row["total_mrps"]) != total:
        return f"sweep total_mrps {row['total_mrps']} vs matrix total {total}"
    return None


def check_rho(workdir: Path) -> str | None:
    firms, m = read_matrix(workdir / "rrs.csv")
    rows = read_csv(workdir / "eval" / "pairs.csv")
    for r in rows:
        if abs(float(r["rrs"]) - m[firms.index(r["firm_a"]), firms.index(r["firm_b"])]) > 5e-7:
            return f"pairs.csv rrs differs from rrs.csv for {r['firm_a']}/{r['firm_b']}"
    x = np.array([float(r["rrs"]) for r in rows])
    y = np.array([float(r["cavdsr"]) for r in rows])
    dx, dy = x - x.mean(), y - y.mean()
    rho = float(dx @ dy / math.sqrt((dx @ dx) * (dy @ dy)))
    reported = float(quality(workdir)["rho_pearson"])
    if abs(rho - reported) > 1e-6:
        return f"rho_pearson {reported} vs recomputed {rho:.8f}"
    return None


def run_checks(workdir: Path, threshold: float, evidence: bool,
               sample_pairs: int | None, seed: int) -> list[CheckResult]:
    """All output checks on one run's artifacts."""
    results = [run_check("rrs_matrix", lambda: check_matrix(workdir)),
               run_check("sweep", lambda: check_sweep(workdir, threshold)),
               run_check("rho_pearson", lambda: check_rho(workdir))]
    if evidence:
        results.append(run_check("evidence_files", lambda: check_evidence_files(workdir)))
    try:
        oracle = Oracle(workdir)
        matrix = read_matrix(workdir / "rrs.csv")
    except Exception as exc:
        return results + [CheckResult("oracle", False, f"{type(exc).__name__}: {exc}")]
    evidence_dir = workdir / "evidence" if evidence else None
    pairs = list(combinations(sorted(oracle.firms), 2))
    if sample_pairs is not None and sample_pairs < len(pairs):
        rng = np.random.default_rng(seed)
        pairs = [pairs[k] for k in sorted(rng.choice(len(pairs), sample_pairs, replace=False))]
    for a, b in pairs:
        results.append(run_check(f"oracle {a}/{b}", lambda a=a, b=b: check_oracle_pair(
            oracle, matrix, evidence_dir, a, b, threshold)))
    return results


# --- quality numbers ---

def quality(workdir: Path) -> dict[str, float]:
    metrics = {r["metric"]: r["value"] for r in read_csv(workdir / "eval" / "metrics.csv")}
    summary = json.loads((workdir / "train_report.jsonl").read_text(
        encoding="utf-8").splitlines()[-1])
    return {"rho_pearson": float(metrics["rho_pearson"]),
            "rho_spearman": float(metrics["rho_spearman"]),
            "best_val_loss": float(summary["best_val_loss"])}


def planted_ndcg(workdir: Path, planted: Iterable[tuple[str, str]]) -> float:
    """NDCG@P of the P planted pairs among all firm pairs ranked by RRS."""
    firms, m = read_matrix(workdir / "rrs.csv")
    planted = {tuple(sorted(p)) for p in planted}
    ranked = sorted(((-m[i, j], firms[i], firms[j])
                     for i, j in combinations(range(len(firms)), 2)))
    p = len(planted)
    dcg = sum(1.0 / math.log2(r + 2) for r, (_, a, b) in enumerate(ranked[:p])
              if (a, b) in planted)
    return dcg / sum(1.0 / math.log2(r + 2) for r in range(p))
