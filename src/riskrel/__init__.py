"""riskrel: inter-firm risk relation mining from annual-report text.

Pipeline: clean filings and segment risk-section paragraphs (corpus),
build chronological/lexical positive pairs (pairs), train a contrastive
paragraph encoder with InfoNCE (training, encoder), score firm pairs by
the fraction of mutual risk paragraphs above a similarity threshold
(scoring), and evaluate against stock-return co-movement (evaluation).
"""

from .corpus import (
    FirmCorpus,
    Paragraph,
    extract_sections,
    group_by_firm,
    ingest_directory,
    ingest_filing,
    read_paragraphs,
    segment_paragraphs,
    strip_markup,
    tokenize,
    write_paragraphs,
)
from .encoder import (
    EncoderParams,
    Vocabulary,
    build_vocab,
    encode,
    init_params,
    load_model,
    model_fingerprint,
    save_model,
)
from .evaluation import (
    RankedList,
    ReturnSeries,
    SweepRow,
    alignment_rho,
    cavdsr,
    daily_returns,
    gics_binary_rrs,
    make_grid,
    pearson,
    retrieval_metrics,
    spearman,
    threshold_sweep,
)
from .pairs import (
    DateMention,
    PositivePair,
    build_chronological_pairs,
    build_lexical_pairs,
    detect_date_tokens,
    read_pairs,
    split_train_val,
    write_pairs,
)
from .scoring import (
    EmbeddingIndex,
    MaxSimTable,
    MrpResult,
    ScoreConfig,
    embed_corpus,
    evidence_path,
    find_mrps,
    firm_pairs,
    load_embeddings,
    max_similarity_table,
    pair_cells,
    read_evidence,
    read_rrs_csv,
    render_evidence,
    rrs,
    rrs_matrix,
    save_embeddings,
    write_evidence_files,
    write_rrs_csv,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainingBatch,
    TrainOutcome,
    TrainReport,
    adam_step,
    batch_objective,
    compute_gradients,
    info_nce_loss,
    train,
)

__version__ = "0.1.0"
