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


class ZeroVector(RiskRelError):
    """Cosine similarity requested for a vector with near-zero norm."""


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

class NonPositivePrice(RiskRelError):
    """A close price of zero or below cannot produce a return."""


class TooShort(RiskRelError):
    """A price series has fewer than two observations."""


class InsufficientOverlap(RiskRelError):
    """Two return series share fewer common dates than the required floor."""


class ZeroVariance(RiskRelError):
    """A correlation input is constant."""


class DegenerateInput(RiskRelError):
    """Correlation across firm pairs is undefined (too few records or no variance)."""


class UnknownFirm(RiskRelError):
    """A firm is missing from the sector/industry mapping."""


class EmptyRelevanceSet(RiskRelError):
    """A ranked list was supplied without any relevant documents."""
