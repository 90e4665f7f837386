"""Exception hierarchy for the riskrel pipeline.

Every stage raises a subclass of RiskRelError so callers (and the CLI)
can catch one base type and still report a precise failure kind.
"""


class RiskRelError(Exception):
    """Base class for all riskrel errors."""


# --- corpus / encoding ---

class EmptyCorpus(RiskRelError):
    """No paragraphs were supplied where at least one is required."""


class EmptyParagraph(RiskRelError):
    """A paragraph has no usable tokens after mapping/truncation
    (``row``: its index in a batch, when known)."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


# --- pair generation ---

class InsufficientPairs(RiskRelError):
    """Fewer positive pairs are available than the requested split/batch needs."""


# --- training ---

class NonFiniteSimilarity(RiskRelError):
    """A similarity matrix contains NaN or infinity."""


class NonFiniteGradient(RiskRelError):
    """A computed gradient contains NaN or infinity."""


# --- scoring ---

class EmptyFirm(RiskRelError):
    """A firm has no paragraphs in the embedding index."""


class DimensionMismatch(RiskRelError):
    """Embedding vectors of different widths were mixed."""


class UnknownParagraphId(RiskRelError):
    """An evidence entry references a paragraph id not present in the corpus."""


# --- evaluation ---

class InsufficientOverlap(RiskRelError):
    """Two return series share fewer common dates than the required floor."""


class DegenerateInput(RiskRelError):
    """A correlation is undefined: a constant input, or fewer than two firm pairs."""


class UnknownFirm(RiskRelError):
    """A firm is missing from the sector/industry mapping."""


class EmptyRelevanceSet(RiskRelError):
    """A ranked list was supplied without any relevant documents."""
