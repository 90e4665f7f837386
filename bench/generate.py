"""Seeded corpus generator for the scaled benchmark workloads.

Writes the same tree layout the bundled fixture uses, so the pipeline
receives only files:

    <root>/filings/<ticker>/<year>.txt   HTML-wrapped filings, Item 1A/7A
    <root>/prices/<ticker>.csv           daily closes, date,close
    <root>/gics.csv                      ticker,sector,industry

Each firm discusses one theme. A theme is a lexicon of content words drawn
from a shared pool of pseudo-words, so themes overlap only by chance while
every pool word occurs in several themes and therefore reaches the
vocabulary the encoder is trained on. Firms in one planted group share a
theme and load on one co-movement factor in their prices; the planted
pairs are every pair of firms within a group.

The generator lives beside the benchmark rather than in ``riskrel`` so a
change to the package cannot change a workload's inputs. It is a pure
function of (spec, seed), single-process, and uses only numpy.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a generated corpus."""

    n_firms: int
    n_groups: int          # planted groups; the other firms get a theme each
    group_size: int        # firms per planted group


@dataclass
class Manifest:
    """What the generator wrote and where the planted signal lives."""

    root: Path
    firms: tuple[str, ...]
    planted_pairs: tuple[tuple[str, str], ...]

    @property
    def filings_dir(self) -> Path:
        return self.root / "filings"

    @property
    def prices_dir(self) -> Path:
        return self.root / "prices"

    @property
    def gics_path(self) -> Path:
        return self.root / "gics.csv"


_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "be", "du",
              "fa", "go", "hi", "ja", "ke", "lu", "mo", "na", "pe", "qu",
              "ri", "so", "tu", "va", "we", "xi", "yo", "ze", "bra", "cle",
              "dri", "flo", "gra", "pli", "sto", "tra")
# Three filings of 16 + 4 paragraphs per firm, like the bundled fixture.
_YEARS = (2021, 2022, 2023)
_PARAGRAPHS_1A = 16
_PARAGRAPHS_7A = 4
_DAYS = 250
_POOL_SIZE = 720
_THEME_WORDS = 30
_EVENT_WORDS = 6

_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")
# Event dates are never a quarter end, so they always justify a pair.
_EVENT_DAYS = ((1, 17), (2, 9), (4, 11), (5, 23), (7, 8), (8, 14), (10, 5), (11, 19))
_SECTORS = ("Industrials", "Energy", "Financials", "Utilities", "Materials",
            "Health Care", "Information Technology", "Consumer Staples")


def _pool(rng: np.random.Generator) -> list[str]:
    words: set[str] = set()
    while len(words) < _POOL_SIZE:
        k = int(rng.integers(2, 4))
        words.add("".join(_SYLLABLES[int(i)] for i in rng.integers(0, len(_SYLLABLES), k)))
    return sorted(words)


def _sentence(rng: np.random.Generator, lexicon: list[str]) -> str:
    # Content words only: a word every theme used would pull unrelated
    # paragraphs towards the threshold and make hit counts seed-sensitive.
    text = " ".join(lexicon[int(i)] for i in rng.choice(len(lexicon), 11, replace=False))
    return text[0].upper() + text[1:] + "."


def _paragraph(rng: np.random.Generator, pool: list[str], n_sentences: int,
               prefix: str | None) -> str:
    sentences = [pool[int(i)] for i in rng.choice(len(pool), n_sentences, replace=False)]
    if prefix:
        sentences.insert(int(rng.integers(0, len(sentences) + 1)), prefix)
    return " ".join(sentences)


def _filing(firm: str, year: int, body_1a: list[str], body_7a: list[str]) -> str:
    """Markup that ingestion must strip: tables, block tags, entities."""
    chunks = ["<html><head><title>Annual Report</title></head><body>",
              f"<p>{firm} HOLDINGS &amp; SUBSIDIARIES &mdash; ANNUAL REPORT</p>",
              "<p>Item 1. Business</p>",
              "<p>We operate through regional offices and distribution partners.</p>",
              "<table><tr><th>Segment</th><th>Revenue</th></tr>"
              "<tr><td>Products</td><td>482</td></tr></table>",
              "<p>Item 1A. Risk Factors</p>"]
    chunks += [f"<p>{text}</p>" for text in body_1a]
    chunks.append("<p>Item 7A. Quantitative and Qualitative Disclosures About Market Risk</p>")
    chunks += [f"<div>{text}</div>" for text in body_7a]
    chunks.append("<p>Item 8. Financial Statements</p>")
    chunks.append("<p>The audited statements follow the signatures page.</p>")
    chunks.append("</body></html>")
    return "\n".join(chunks)


def generate(root: str | Path, spec: CorpusSpec, seed: int) -> Manifest:
    """Write one corpus under ``root``; the same (spec, seed) gives the same bytes."""
    root = Path(root)
    rng = np.random.default_rng([seed, spec.n_firms, spec.n_groups, spec.group_size])
    pool = _pool(rng)
    firms = tuple(f"T{k:03d}" for k in range(spec.n_firms))

    order = rng.permutation(spec.n_firms)
    planted = [sorted(firms[i] for i in order[g * spec.group_size:(g + 1) * spec.group_size])
               for g in range(spec.n_groups)]
    theme_of: dict[str, int] = {}
    for g, group in enumerate(planted):
        for firm in group:
            theme_of[firm] = g
    next_theme = spec.n_groups
    for firm in firms:
        if firm not in theme_of:
            theme_of[firm] = next_theme
            next_theme += 1

    # Per theme: a lexicon, a risk-sentence pool, a market-risk pool and four
    # event descriptions.
    themes = []
    for _ in range(next_theme):
        lexicon = [pool[int(i)] for i in rng.choice(len(pool), _THEME_WORDS, replace=False)]
        themes.append(([_sentence(rng, lexicon) for _ in range(10)],
                       [_sentence(rng, lexicon) for _ in range(5)],
                       [" ".join(lexicon[int(i)] for i in rng.choice(len(lexicon), _EVENT_WORDS,
                                                                     replace=False))
                        for _ in range(4)]))

    manifest = Manifest(root=root, firms=firms,
                        planted_pairs=tuple(pair for group in planted
                                            for pair in combinations(group, 2)))
    for f_idx, firm in enumerate(firms):
        risk_pool, quant_pool, events = themes[theme_of[firm]]
        firm_dir = manifest.filings_dir / firm
        firm_dir.mkdir(parents=True, exist_ok=True)
        for year in _YEARS:
            body_1a = []
            for k in range(_PARAGRAPHS_1A):
                # Pairs of adjacent paragraphs share an event date and its
                # description: the chronological view's positives.
                group = k // 2
                month, day = _EVENT_DAYS[(f_idx + 3 * group + year) % len(_EVENT_DAYS)]
                event = events[(f_idx + group + year) % len(events)]
                prefix = f"On {_MONTHS[month - 1]} {day}, {year}, {event}."
                body_1a.append(_paragraph(rng, risk_pool, 5, prefix))
            body_7a = [_paragraph(rng, quant_pool, int(rng.integers(2, 5)), None)
                       for _ in range(_PARAGRAPHS_7A)]
            (firm_dir / f"{year}.txt").write_text(_filing(firm, year, body_1a, body_7a),
                                                  encoding="utf-8")

    _write_prices(manifest, planted, rng)
    with open(manifest.gics_path, "w", encoding="utf-8") as fh:
        fh.write("ticker,sector,industry\n")
        for firm in firms:
            s = int(rng.integers(0, len(_SECTORS)))
            fh.write(f"{firm},{_SECTORS[s]},{_SECTORS[s]} {int(rng.integers(1, 4))}\n")
    return manifest


def _write_prices(manifest: Manifest, planted: list[list[str]],
                  rng: np.random.Generator) -> None:
    """Closes from a market factor, one spiky factor per planted group, and noise."""
    dates = []
    day = np.datetime64("2023-01-02")
    while len(dates) < _DAYS:
        if (day.astype("int64") - 4) % 7 < 5:
            dates.append(str(day))
        day += 1
    market = rng.normal(0.0, 0.007, _DAYS)
    factor_of = {}
    for group in planted:
        spikes = rng.random(_DAYS) < 0.15
        factor = rng.normal(0.0, 0.004, _DAYS) + spikes * rng.normal(0.0, 0.05, _DAYS)
        factor_of.update({firm: factor for firm in group})
    manifest.prices_dir.mkdir(parents=True, exist_ok=True)
    for rank, firm in enumerate(manifest.firms):
        returns = 0.5 * market + rng.normal(0.0, 0.006, _DAYS)
        if firm in factor_of:
            returns = returns + factor_of[firm]
        closes = (40.0 + 0.5 * rank) * np.cumprod(1.0 + returns)
        with open(manifest.prices_dir / f"{firm}.csv", "w", encoding="utf-8") as fh:
            fh.write("date,close\n")
            fh.writelines(f"{d},{c:.4f}\n" for d, c in zip(dates, closes))


def tree_digest(root: str | Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    root = Path(root)
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
