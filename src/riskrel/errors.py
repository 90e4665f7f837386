"""Exception kinds for the riskrel pipeline.

A :class:`RiskRelError` subclass names a condition of the data that the
pipeline can meet. A malformed argument raises the built-in ``ValueError`` or
``KeyError`` that its sibling checks raise, and a fault in an input file is a
``ValueError`` that names the file. The CLI reports each as one ``error:`` line.
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
    """A training step's gradient or optimizer state overflows or holds NaN or inf."""


# --- evaluation ---

class InsufficientOverlap(RiskRelError):
    """Two return series share fewer common dates than the required floor."""


class DegenerateInput(RiskRelError):
    """A correlation is undefined: a constant input, or fewer than two firm pairs."""
