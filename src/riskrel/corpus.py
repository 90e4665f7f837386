"""Filing ingestion: markup stripping, risk-section extraction, paragraph segmentation.

Raw annual-report text (one file per firm and fiscal year) is cleaned of
HTML/XBRL markup and tables, split into "Item"-labelled sections, and the
risk sections are segmented into tokenized paragraphs. All functions here
are pure; the same input always produces the same paragraphs and ids.

Tokens are interned (``sys.intern``) wherever they are made: by
:func:`segment_paragraphs` at ingest and by :func:`interned_strings` when
a paragraph or pair file is read. A corpus repeats a few hundred distinct
tokens hundreds of thousands of times, so equal tokens sharing one ``str``
keeps paragraph memory growing with the vocabulary and the text rather than
the token count, and the dictionary lookups of vocabulary indexing, date
scanning and lexical overlap reuse the cached hash and match by identity.
"""

from __future__ import annotations

import csv
import html
import json
import re
import sys
from dataclasses import dataclass
from itertools import chain, filterfalse, groupby
from json.encoder import encode_basestring
from operator import length_hint
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import EmptyCorpus

T = TypeVar("T")

DEFAULT_MIN_TOKENS = 20
DEFAULT_SECTIONS = ("1A", "7A")

# Tags whose boundaries mark a paragraph break once markup is gone.
_BLOCK_TAGS = r"p|div|br|tr|li|h[1-6]|blockquote|section|article"

_TABLE_RE = re.compile(r"<table\b[^>]*>(?:(?!<table\b).)*?</table\s*>",
                       re.IGNORECASE | re.DOTALL)
_BLOCK_TAG_RE = re.compile(rf"</?(?:{_BLOCK_TAGS})\b[^>]*>?", re.IGNORECASE)
# Any remaining tag-like run, including unterminated ones ("<em unclosed...").
_TAG_RE = re.compile(r"<[/!?a-zA-Z][^>]*>?")
_XML_DECL_RE = re.compile(r"<\?[^>]*\?>")

_TOKEN_RE = re.compile(r"[^\W\d_]+|\d+|[^\w\s]|_")

# json.dumps(..., ensure_ascii=False) builds an encoder per call; one serves all.
_encode_json = json.JSONEncoder(ensure_ascii=False).encode

# What a firm id may not hold: it names evidence files (<a>__<b>.json), is
# an unquoted CSV cell and starts every paragraph id (firm:year:section:ordinal).
_BAD_FIRM_ID_RE = re.compile(r"[/\\,:\"\s\x00-\x1f\x7f-\x9f]|__")

# "Item 1A", "ITEM 7A.", "Item 7A —" ... optional punctuation after the code.
# It starts with a literal so that a search skips ahead to each "i"; the
# lookbehind is the "\b" of "\bitem", as every case of "i" (I, İ, ı) is a
# word character.
_ITEM_HEADING_RE = re.compile(r"i(?<!\w.)tem\s+(\d{1,2})([a-z])?\b\s*[.:;\-–—]?\s*",
                              re.IGNORECASE)

# A filing is <root>/<ticker>/<year>.txt, the year four ASCII digits.
_FILING_YEAR_RE = re.compile(r"[0-9]{4}")

_scan_json = json.JSONDecoder().scan_once
_LINE_ENDS = frozenset(("", "\n", "\r\n", "\r"))


@dataclass(frozen=True)
class Paragraph:
    """One risk-section paragraph with provenance.

    ``tokens`` is always exactly ``tokenize(text)``, each an interned
    ``str``, so equal tokens across paragraphs are one object; the id
    encodes (firm, year, section, ordinal) and is unique within a corpus.
    """

    id: str
    firm_id: str
    year: int
    section: str
    text: str
    tokens: tuple[str, ...]

    @staticmethod
    def make_id(firm_id: str, year: int, section: str, ordinal: int) -> str:
        return f"{firm_id}:{year}:{section}:{ordinal:04d}"


def check_firm_id(firm_id: str) -> str:
    """``firm_id``, if it is safe as a file name, a CSV cell and an id prefix.

    An empty id, ``.``, ``..``, or one holding ``/``, ``\\``, ``,``, ``:``,
    ``"``, ``__``, whitespace or a control character is a ``ValueError``.
    """
    if firm_id in ("", ".", "..") or _BAD_FIRM_ID_RE.search(firm_id):
        raise ValueError(f"firm_id {firm_id!r} must be non-empty, not '.' or '..', and hold "
                         "no '/', '\\', ',', ':', '\"', '__', whitespace or control character")
    return firm_id


def _check_year(year: int) -> int:
    """``year``, if it is a fiscal year in [1990, 2100]. A ``bool``, which
    Python counts an int, is 0 or 1 and so out of range."""
    if not 1990 <= year <= 2100:
        raise ValueError(f"fiscal_year {year} out of range [1990, 2100]")
    return year


def tokenize(text: str) -> list[str]:
    """Lowercase word-level tokenization.

    Splits on whitespace, emits punctuation characters as standalone tokens
    and keeps digit runs intact, so "Net loss, 2023." becomes
    ["net", "loss", ",", "2023", "."].

    This is ``_TOKEN_RE.findall(text.lower())`` run per whitespace chunk:
    ``re``'s ``\\s`` is ``str.isspace``, as is ``str.split``'s, so no token
    spans whitespace, and an alphabetic chunk is exactly one letter run. A
    chunk that is a letter run and one last character no letter run holds
    (a ``\\d``, ``_`` or a non-word character, as in "loss,") is those two
    tokens, without the regex.
    """
    tokens: list[str] = []
    for chunk in text.lower().split():
        if chunk.isalpha():
            tokens.append(chunk)
        elif chunk[:-1].isalpha() and (chunk[-1].isdecimal() or not chunk[-1].isalnum()):
            tokens += chunk[:-1], chunk[-1]
        else:
            tokens += _TOKEN_RE.findall(chunk)
    return tokens


def strip_markup(raw: str) -> str:
    """Remove HTML/XBRL tags and tables from raw filing text.

    Table elements are dropped with their contents, remaining tags are
    stripped (block-level tag boundaries become paragraph breaks), entity
    references are decoded, and whitespace runs collapse to single spaces.
    Runs of two or more newlines survive as one blank-line paragraph break.
    """
    text = raw.replace("\r\n", "\n").replace("\r", "\n")

    # Innermost-first so nested tables disappear completely.
    prev = None
    while prev != text:
        prev = text
        text = _TABLE_RE.sub(" ", text)

    text = _XML_DECL_RE.sub(" ", text)
    text = _BLOCK_TAG_RE.sub("\n\n", text)
    text = _TAG_RE.sub(" ", text)
    # Entity decoding can resurrect tag-like sequences ("&lt;b&gt;");
    # strip once more so no '<'+letter survives, but never double-decode.
    text = html.unescape(text)
    text = _TAG_RE.sub(" ", text)

    # A blank or all-whitespace line ends a paragraph. str.split() and
    # str.isspace() test whitespace as the regex \s does.
    blocks = groupby(text.split("\n"), key=lambda line: not line or line.isspace())
    return "\n\n".join(" ".join(" ".join(lines).split())
                       for blank, lines in blocks if not blank)


def extract_sections(cleaned: str,
                     sections: Iterable[str] = DEFAULT_SECTIONS) -> dict[str, str]:
    """Extract the requested "Item <code>" sections from markup-free filing text.

    Each section runs from its heading to the next Item heading. Only the
    codes in ``sections`` (by default 1A and 7A) are returned; absent
    headings are simply omitted. When a heading occurs more than once
    (tables of contents repeat them), the occurrence with the longest body
    wins.
    """
    wanted = set(sections)
    matches = list(_ITEM_HEADING_RE.finditer(cleaned))
    found: dict[str, str] = {}
    best_len: dict[str, int] = {}
    for idx, m in enumerate(matches):
        code = m.group(1) + (m.group(2) or "").upper()
        if code not in wanted:
            continue
        end = matches[idx + 1].start() if idx + 1 < len(matches) else len(cleaned)
        body = cleaned[m.end():end].strip()
        if len(body) > best_len.get(code, -1):
            found[code] = body
            best_len[code] = len(body)
    return found


def segment_paragraphs(section: str, firm_id: str, year: int, label: str,
                       min_tokens: int = DEFAULT_MIN_TOKENS) -> list[Paragraph]:
    """Split section text on blank lines into tokenized paragraphs.

    Fragments with fewer than ``min_tokens`` tokens (headings, page numbers)
    are discarded; ordinals are assigned in document order over the kept
    paragraphs. The kept paragraphs' tokens are interned.
    """
    paragraphs = []
    ordinal = 0
    for block in re.split(r"\n\s*\n", section):
        text = block.strip()
        if not text:
            continue
        tokens = tokenize(text)
        if len(tokens) < min_tokens:
            continue
        paragraphs.append(Paragraph(
            id=Paragraph.make_id(firm_id, year, label, ordinal),
            firm_id=firm_id,
            year=year,
            section=label,
            text=text,
            tokens=tuple(map(sys.intern, tokens)),
        ))
        ordinal += 1
    return paragraphs


def ingest_filing(firm_id: str, year: int, raw_text: str,
                  sections: Iterable[str] = DEFAULT_SECTIONS,
                  min_tokens: int = DEFAULT_MIN_TOKENS) -> list[Paragraph]:
    """Clean one raw filing and segment its requested sections, in that order.

    Section labels are upper-cased, as heading codes are, so ``1a`` asks
    for Item 1A and the ids say ``1A``.
    """
    check_firm_id(firm_id)
    _check_year(year)
    sections = tuple(dict.fromkeys(label.upper() for label in sections))
    extracted = extract_sections(strip_markup(raw_text), sections)
    return [p for label in sections if label in extracted
            for p in segment_paragraphs(extracted[label], firm_id, year, label,
                                        min_tokens=min_tokens)]


def ingest_directory(root: str | Path, sections: Iterable[str] = DEFAULT_SECTIONS,
                     min_tokens: int = DEFAULT_MIN_TOKENS) -> list[Paragraph]:
    """Ingest a ``<root>/<ticker>/<year>.txt`` tree of raw filings.

    Firms and years are processed in sorted order so the output is stable.
    Hidden entries, whose names start with ``.`` (``.ipynb_checkpoints/``,
    ``._2021.txt``), are neither firms nor filings and are skipped.
    A filing whose name is not four ASCII digits and ``.txt``, that is a
    directory or not UTF-8, or that :func:`ingest_filing` rejects, is a
    ``ValueError`` naming it; so no two filings of a firm name one year.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"filing root is not a directory: {root}")
    paragraphs: list[Paragraph] = []
    for firm_dir in sorted(p for p in root.iterdir() if p.is_dir() and not _hidden(p)):
        for filing_path in sorted(filterfalse(_hidden, firm_dir.glob("*.txt"))):
            if not _FILING_YEAR_RE.fullmatch(filing_path.stem):
                raise ValueError(
                    f"filing name must be <year>.txt, got: {filing_path}")
            try:
                if filing_path.is_dir():
                    raise ValueError("is a directory, not a file")
                raw = filing_path.read_text(encoding="utf-8")
                paragraphs.extend(ingest_filing(firm_dir.name, int(filing_path.stem), raw,
                                                sections=sections, min_tokens=min_tokens))
            except ValueError as exc:  # UnicodeDecodeError is one
                raise ValueError(f"bad filing {filing_path}: {exc}") from None
    return paragraphs


def _hidden(path: Path) -> bool:
    return path.name.startswith(".")


def group_by_firm(paragraphs: Iterable[Paragraph]) -> dict[str, list[Paragraph]]:
    """Each firm's paragraphs, in input order, by ``firm_id``; firms in sorted order."""
    grouped: dict[str, list[Paragraph]] = {}
    for p in paragraphs:
        grouped.setdefault(p.firm_id, []).append(p)
    return dict(sorted(grouped.items()))


def write_paragraphs(paragraphs: Iterable[Paragraph], path: str | Path) -> int:
    """Write paragraphs as line-delimited JSON records. Returns the count.

    Each line is the one :func:`write_jsonl` writes for the record ``{"id",
    "firm", "year", "section", "text", "tokens"}``, put together from the
    string escaper ``json.dumps`` uses, which is faster than encoding the
    record as a dict.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for p in paragraphs:
            fh.write(f'{{"id": {encode_basestring(p.id)}, '
                     f'"firm": {encode_basestring(p.firm_id)}, "year": {int.__repr__(p.year)}, '
                     f'"section": {encode_basestring(p.section)}, '
                     f'"text": {encode_basestring(p.text)}, '
                     f'"tokens": [{", ".join(map(encode_basestring, p.tokens))}]}}\n')
            n += 1
    return n


def write_jsonl(records: Iterable[dict], path: str | Path) -> int:
    """Write each record as ``json.dumps(record, ensure_ascii=False)`` and a
    newline. Returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(_encode_json(record) + "\n")
            n += 1
    return n


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header and each row as a line of :func:`_csv_cell` cells and commas."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(_csv_cell, row)) + "\n" for row in chain([header], rows))


def _csv_cell(value: object) -> str:
    """A ``float`` (``np.float64`` is one) at six decimals, ``None`` empty, anything
    else by ``str``. No cell is quoted, so none may hold a comma, quote or line end."""
    if isinstance(value, float):
        return f"{value:.6f}"
    return "" if value is None else str(value)


def read_paragraphs(path: str | Path) -> list[Paragraph]:
    """Read paragraphs written by :func:`write_paragraphs`; a well-formed
    record whose id an earlier line has is a ``malformed record`` error."""
    seen: set[str] = set()

    def parse(rec: dict) -> Paragraph:
        paragraph = Paragraph(
            id=typed_field(rec, "id", str),
            firm_id=check_firm_id(typed_field(rec, "firm", str)),
            year=_check_year(typed_field(rec, "year", int)),
            section=typed_field(rec, "section", str),
            text=typed_field(rec, "text", str),
            tokens=interned_strings(rec, "tokens"))
        if paragraph.id in seen:
            raise ValueError(f"paragraph id {paragraph.id!r} repeated")
        seen.add(paragraph.id)
        return paragraph

    paragraphs = read_jsonl(path, parse)
    if not paragraphs:
        raise EmptyCorpus(f"no paragraph records in {path}")
    return paragraphs


def typed_field(record: dict, key: str, kind: type) -> object:
    """``record[key]``, which must be a ``kind``."""
    value = record[key]
    if not isinstance(value, kind):
        raise TypeError(f"{key} must be {kind.__name__}")
    return value


def interned_strings(record: dict, key: str) -> tuple[str, ...]:
    """``record[key]``, which must be a list of strings, as a tuple of the
    interned strings: equal strings of every record read are one object."""
    value = record[key]
    if isinstance(value, list):
        try:
            return tuple(map(sys.intern, value))
        except TypeError:  # sys.intern takes nothing but a str
            pass
    raise TypeError(f"{key} must be a list of strings")


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """The records of a JSON-lines file, one per non-blank line, mapped by ``parse``.

    A line that is not JSON, or whose record ``parse`` rejects, is a
    ``malformed record`` error of :func:`read_lines`.
    """
    return read_lines(path, "record", lambda lines: map(parse, map(_json_line, lines)))


def read_csv_body(path: str | Path, fields: int | None = None,
                  parse: Callable[[list[str]], object] | None = None) -> list:
    """The rows after a CSV file's header, ``fields`` each (by default the
    header's width), mapped by ``parse``.

    Whitespace-only lines are skipped, as :func:`read_lines` skips them. An
    empty file is a ``ValueError`` naming the file; a row the CSV reader
    cannot split, a row of another width (``""`` is one field), or a row
    ``parse`` rejects is a ``malformed CSV row`` error of :func:`read_lines`.
    """
    width: list[int] = []  # the header's, once it is read

    def rows(lines: Iterator[str]) -> Iterator:
        for row in csv.reader(lines):  # one reader for the file: rows may span lines
            if not width:
                width.append(fields or len(row))
            elif len(row) != width[0]:
                raise ValueError(f"expected {width[0]} fields, got {len(row)}")
            else:
                yield row if parse is None else parse(row)

    body = read_lines(path, "CSV row", rows)
    if not width:
        raise ValueError(f"empty CSV file: {path}")
    return body


def _json_line(line: str) -> object:
    """``json.loads(line)``, from one scanner call when the value starts the
    line and only a line end follows it. The scan and ``json.loads`` agree
    on such a line; any other line (a leading space or BOM, extra data,
    malformed JSON) goes to ``json.loads`` itself for its value or error."""
    try:
        value, end = _scan_json(line, 0)
        if line[end:] in _LINE_ENDS:
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(line)


def read_lines(path: str | Path, kind: str,
               parse: Callable[[Iterator[str]], Iterable[T]]) -> list[T]:
    """``list(parse(lines))`` over the non-blank lines of a UTF-8 text file.

    Lines end at LF, CR or CR LF and keep their ends; each is decoded only
    when ``parse`` pulls it, so an undecodable byte is reported on its own
    line. An undecodable line, or a ``KeyError``, ``TypeError``, ``ValueError``,
    ``RecursionError`` (JSON nested too deep) or ``csv.Error`` raised in
    ``parse``, is a ``ValueError``: ``malformed <kind> in <path> line <n>:
    <detail>``, n being the last line pulled.
    """
    raw = Path(path).read_bytes().splitlines(keepends=True)
    # map and filterfalse pull one line at a time: the lines left in pending
    # give the number of the last one pulled.
    pending = iter(raw)
    try:
        return list(parse(filterfalse(str.isspace, map(bytes.decode, pending))))
    except (KeyError, TypeError, ValueError, RecursionError, csv.Error) as exc:
        number = len(raw) - length_hint(pending)
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed {kind} in {path} line {number}: {detail}") from None
