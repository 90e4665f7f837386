"""riskrel: inter-firm risk relation mining from annual-report text.

Pipeline: clean filings and segment risk-section paragraphs (corpus),
build chronological/lexical positive pairs (pairs), train a contrastive
paragraph encoder with InfoNCE (training, encoder), score firm pairs by
the fraction of mutual risk paragraphs above a similarity threshold
(scoring), and evaluate against stock-return co-movement (evaluation).

Each public name has one import path, its module: ``from riskrel import
scoring`` then ``scoring.rrs_matrix``. The modules are ``corpus``,
``pairs``, ``encoder``, ``training``, ``scoring``, ``evaluation``,
``synthetic`` (the bundled fixture), ``outputs`` (staged output files),
``errors`` and ``cli`` (the ``riskrel`` command).
"""

__version__ = "0.1.0"

import os

# One BLAS thread before numpy loads: threads reorder sums, so model.bin would vary.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS"), "1"))
del os
