"""Positive-pair construction for contrastive training.

Two complementary views over risk-section paragraphs:

* chronological — two same-firm paragraphs that mention an identical
  calendar date (quarter-end accounting dates excluded) form a pair, with
  every date mention deleted from both sides so the encoder cannot match
  on the dates themselves. The four date forms are the rows of one table,
  ``_DATE_FORMS``; one scanner, :func:`scan_tokens`, tries them only at the
  positions where a date can start (a month name, or the token before a
  "/" or "-"), and each paragraph's mentions are found once and then
  deleted. A side left with no token makes no pair;
* lexical — two overlapping spans of a single paragraph form a pair,
  exploiting the boilerplate phrasing of annual reports.

All generation is deterministic given the corpus, the seed and the config.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import (DEFAULT_MIN_TOKENS, Paragraph, interned_strings, read_jsonl,
                     typed_field, write_jsonl)
from .errors import InsufficientPairs

CHRONOLOGICAL = "chronological"
LEXICAL = "lexical"
VIEWS = (CHRONOLOGICAL, LEXICAL)

DEFAULT_MIN_SPAN = 32
DEFAULT_OVERLAP_CAP = 128
DEFAULT_MAX_PAIRS_PER_PARAGRAPH = 1

# Quarter/fiscal period boundaries repeat in every filing and carry no
# event signal, so they never justify a chronological pair.
ACCOUNTING_DATES = frozenset({(3, 31), (6, 30), (9, 30), (12, 31)})

_MONTHS = {
    "january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
    "june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
    "november": 11, "december": 12,
}
_SEPARATORS = frozenset({"/", "-"})
# The tokens at or just after which a date form can start.
_DATE_STARTS = frozenset(_MONTHS) | _SEPARATORS


@dataclass(frozen=True)
class DateMention:
    """A date expression found in a token sequence."""

    token_span: tuple[int, int]  # half-open [start, end)
    normalized: str              # ISO YYYY-MM-DD, day 01 when absent
    is_accounting: bool


@dataclass(frozen=True)
class PositivePair:
    """A training pair: two token views of related text.

    Equal tokens are one interned ``str``: the builders cut pairs from
    paragraph tokens, and :func:`read_pairs` interns the tokens it reads.
    """

    view: str
    left_tokens: tuple[str, ...]
    right_tokens: tuple[str, ...]
    provenance: tuple[str, ...]
    seed_info: tuple[int, int] | None = None  # lexical (i, j) draw, 1-indexed


def _valid_date(year: int, month: int, day: int) -> str | None:
    try:
        return datetime.date(year, month, day).isoformat()
    except ValueError:
        return None


def _is_year(tok: str) -> bool:
    return len(tok) == 4 and tok.isdecimal()


def _is_day(tok: str) -> bool:
    return len(tok) <= 2 and tok.isdecimal()


# The date forms, first match first: a test for each token, then the
# positions of year, month (a name or a number) and day among them
# (None: day 1).
_DATE_FORMS = (
    ((_MONTHS.__contains__, _is_day, ",".__eq__, _is_year), 3, 0, 1),  # july 8 , 2024
    ((_MONTHS.__contains__, _is_year), 1, 0, None),                     # july 2024
    ((_is_day, "/".__eq__, _is_day, "/".__eq__, _is_year), 4, 0, 2),   # 07/08/2024
    ((_is_year, "-".__eq__, _is_day, "-".__eq__, _is_day), 0, 2, 4),   # 2024-07-08
)


def _match_date(tokens: Sequence[str], i: int) -> tuple[int, str] | None:
    """The span end and ISO date of the first form at ``tokens[i]`` that
    names a real date, or None."""
    window = tokens[i:i + 5]  # the longest form
    for tests, year, month, day in _DATE_FORMS:
        if len(window) < len(tests):
            continue
        for test, tok in zip(tests, window):
            if not test(tok):
                break
        else:  # every token passed its test
            iso = _valid_date(int(window[year]),
                              _MONTHS.get(window[month]) or int(window[month]),
                              1 if day is None else int(window[day]))
            if iso:
                return i + len(tests), iso
    return None


def scan_tokens(tokens: Sequence[str]) -> list[DateMention]:
    """Scan a token sequence for date expressions, left to right.

    Recognized forms are the rows of ``_DATE_FORMS``, tried in turn:
    "july 8 , 2024", "july 2024", "07/08/2024" and "2024-07-08".
    Bare years are deliberately not dates. Unparseable near-dates
    (e.g. february 30) are ignored.

    A date can start only at a month name or just before a "/" or "-", so
    only those positions are tried; a paragraph holding none of these
    tokens is dismissed by one set check.
    """
    if _DATE_STARTS.isdisjoint(tokens):
        return []
    mentions: list[DateMention] = []
    # Non-decreasing; a separator at token 0 gives -1, which end skips.
    starts = [k - (tok in _SEPARATORS)
              for k, tok in enumerate(tokens) if tok in _DATE_STARTS]
    end = 0  # the scan resumes here after a hit
    for i in starts:
        if i >= end and (hit := _match_date(tokens, i)):
            end, iso = hit
            month_day = (int(iso[5:7]), int(iso[8:10]))
            mentions.append(DateMention(
                token_span=(i, end),
                normalized=iso,
                is_accounting=month_day in ACCOUNTING_DATES,
            ))
    return mentions


def _strip_date_tokens(tokens: Sequence[str],
                       mentions: Sequence[DateMention]) -> tuple[str, ...]:
    """Delete the spans of ``mentions`` (the scan of ``tokens``), then of every
    date left, repeating until none remain.

    Deletion can juxtapose tokens into a new date pattern ("december"
    followed by a freed year token), so the shortened tokens are scanned
    again, to a fixpoint.
    """
    current = tuple(tokens)
    while mentions:
        kept: tuple[str, ...] = ()
        resume = 0
        for m in mentions:
            start, stop = m.token_span
            kept += current[resume:start]
            resume = stop
        current = kept + current[resume:]
        mentions = scan_tokens(current)
    return current


def build_chronological_pairs(paragraphs: Sequence[Paragraph],
                              min_tokens: int = DEFAULT_MIN_TOKENS) -> list[PositivePair]:
    """Pair paragraphs of one firm that share a non-accounting date.

    All date mentions are removed from both sides before the pair is
    emitted; pairs whose either side drops below ``max(min_tokens, 1)``
    tokens are discarded, so no side is empty. One pair per unordered
    paragraph-id pair. Pairs come firm by firm in sorted order, then date
    by date, then in paragraph order.
    """
    mentions_by_para = {p.id: scan_tokens(p.tokens) for p in paragraphs}

    by_date: dict[tuple[str, str], list[Paragraph]] = {}
    for p in paragraphs:
        for d in {m.normalized for m in mentions_by_para[p.id] if not m.is_accounting}:
            by_date.setdefault((p.firm_id, d), []).append(p)

    min_side = max(min_tokens, 1)
    stripped: dict[str, tuple[str, ...]] = {}
    pairs: list[PositivePair] = []
    seen: set[tuple[str, str]] = set()
    for _, group in sorted(by_date.items()):
        for two in combinations(group, 2):
            key = tuple(sorted(p.id for p in two))
            if key[0] == key[1] or key in seen:
                continue
            seen.add(key)
            for p in two:
                if p.id not in stripped:
                    stripped[p.id] = _strip_date_tokens(p.tokens, mentions_by_para[p.id])
            left, right = stripped[key[0]], stripped[key[1]]
            if len(left) < min_side or len(right) < min_side:
                continue
            pairs.append(PositivePair(
                view=CHRONOLOGICAL,
                left_tokens=left,
                right_tokens=right,
                provenance=key,
            ))
    return pairs


def build_lexical_pairs(paragraphs: Iterable[Paragraph], rng_seed: int,
                        min_span: int = DEFAULT_MIN_SPAN,
                        max_pairs_per_paragraph: int = DEFAULT_MAX_PAIRS_PER_PARAGRAPH,
                        overlap_cap: int = DEFAULT_OVERLAP_CAP,
                        stats: dict | None = None) -> list[PositivePair]:
    """Build overlapping-span pairs from single paragraphs.

    For tokens [w_1..w_n], indices i < j are drawn and the pair is
    ([w_1..w_j], [w_i..w_n]); the spans overlap on [w_i..w_j]. Paragraphs
    with fewer than 2*min_span tokens are skipped silently (counted under
    ``stats["skipped_short"]`` when a dict is passed). Deterministic for a
    fixed seed and paragraph order.
    """
    if min_span < 2:
        raise ValueError("min_span must be >= 2")
    if overlap_cap < 1:
        raise ValueError("overlap_cap must be >= 1")
    if max_pairs_per_paragraph < 1:
        raise ValueError("max_pairs_per_paragraph must be >= 1")
    rng = np.random.default_rng(rng_seed)
    pairs: list[PositivePair] = []
    skipped = 0
    for p in paragraphs:
        n = len(p.tokens)
        if n < 2 * min_span:
            skipped += 1
            continue
        drawn: set[tuple[int, int]] = set()
        for _ in range(max_pairs_per_paragraph):
            # 1-indexed draw: i in [min_span, n-min_span], j in (i, min(i+cap, n-1)],
            # never empty: cap >= 1 and i <= n - 2
            i = int(rng.integers(min_span, n - min_span + 1))
            j = int(rng.integers(i + 1, min(i + overlap_cap, n - 1) + 1))
            if (i, j) in drawn:
                continue
            drawn.add((i, j))
            pairs.append(PositivePair(
                view=LEXICAL,
                left_tokens=p.tokens[:j],
                right_tokens=p.tokens[i - 1:],
                provenance=(p.id,),
                seed_info=(i, j),
            ))
    if stats is not None:
        stats["skipped_short"] = stats.get("skipped_short", 0) + skipped
    return pairs


def split_train_val(by_view: Mapping[str, Sequence[PositivePair]], train_count: int,
                    val_count: int, rng_seed: int) -> tuple[list[PositivePair], list[PositivePair]]:
    """Seeded disjoint train/validation split of each view's pairs:
    ``by_view`` maps a view to the pairs its builder made.

    ``train_count``/``val_count`` (each >= 0, else a ``ValueError``) apply to
    each view of ``by_view``; too few pairs in one is :class:`InsufficientPairs`.
    Views split in sorted order from one ``default_rng(rng_seed)``. No source
    paragraph id appears in both splits of the same view; validation
    candidates touching a training paragraph are passed over.
    """
    for name, count in (("train_count", train_count), ("val_count", val_count)):
        if count < 0:
            raise ValueError(f"{name} must be >= 0")
    rng = np.random.default_rng(rng_seed)
    train: list[PositivePair] = []
    val: list[PositivePair] = []
    for view in sorted(by_view):
        view_pairs = by_view[view]
        if len(view_pairs) < train_count + val_count:
            raise InsufficientPairs(
                f"view {view}: {len(view_pairs)} pairs available, "
                f"{train_count}+{val_count} requested")
        order = rng.permutation(len(view_pairs))
        shuffled = [view_pairs[k] for k in order]
        view_train = shuffled[:train_count]
        train_ids = {pid for pair in view_train for pid in pair.provenance}
        view_val = []
        for pair in shuffled[train_count:]:
            if len(view_val) == val_count:
                break
            if any(pid in train_ids for pid in pair.provenance):
                continue
            view_val.append(pair)
        if len(view_val) < val_count:
            raise InsufficientPairs(
                f"view {view}: only {len(view_val)} validation pairs are "
                f"paragraph-disjoint from the training split, {val_count} requested")
        train.extend(view_train)
        val.extend(view_val)
    return train, val


def pair_file(directory: str | Path, view: str, split: str) -> Path:
    """The file of one view's ``train`` or ``val`` pairs: ``<view>.<split>.jsonl``."""
    return Path(directory) / f"{view}.{split}.jsonl"


def write_pairs(pairs: Iterable[PositivePair], path: str | Path) -> int:
    """Write pairs as line-delimited JSON records. Returns the count."""
    def record(pair: PositivePair) -> dict:
        rec = {"view": pair.view, "left_tokens": list(pair.left_tokens),
               "right_tokens": list(pair.right_tokens),
               "provenance": list(pair.provenance)}
        if pair.seed_info is not None:
            rec["seed_info"] = list(pair.seed_info)
        return rec

    return write_jsonl(map(record, pairs), path)


def read_pairs(path: str | Path) -> list[PositivePair]:
    """Read pairs written by :func:`write_pairs`, tokens interned.

    A record whose ``view`` is not one of :data:`VIEWS`, whose token list is
    empty, or whose ``seed_info`` is neither absent, null nor a list of two
    ints is a ``malformed record`` error naming the file and the line.
    """
    def pair(rec: dict) -> PositivePair:
        view = typed_field(rec, "view", str)
        if view not in VIEWS:
            raise ValueError(f"view must be one of {', '.join(VIEWS)}")
        left, right = (interned_strings(rec, key) for key in ("left_tokens", "right_tokens"))
        if not (left and right):
            raise ValueError("left_tokens and right_tokens must not be empty")
        seed_info = rec.get("seed_info")  # type(), as a JSON true is an int instance
        if seed_info is not None and not (isinstance(seed_info, list)
                                          and list(map(type, seed_info)) == [int, int]):
            raise TypeError("seed_info must be null or a list of two ints")
        return PositivePair(
            view=view,
            left_tokens=left,
            right_tokens=right,
            provenance=interned_strings(rec, "provenance"),
            seed_info=None if seed_info is None else tuple(seed_info))

    return read_jsonl(path, pair)
