"""Bundled fixture invariants the planted-signal experiments rely on."""

from riskrel import corpus, evaluation, pairs, synthetic


def test_manifest_ids_align_with_ingestion(fixture_manifest, fixture_paragraphs):
    ingested = {p.id for p in fixture_paragraphs}
    assert set(fixture_manifest.theme_by_paragraph) == ingested


def test_planted_ids_cover_both_firms(fixture_manifest):
    planted = fixture_manifest.planted_ids
    assert planted
    firms = {pid.split(":")[0] for pid in planted}
    assert firms == set(fixture_manifest.planted_pair)


def test_planted_theme_exclusive_to_planted_pair(fixture_manifest):
    for pid, theme in fixture_manifest.theme_by_paragraph.items():
        firm = pid.split(":")[0]
        if theme == fixture_manifest.planted_theme:
            assert firm in fixture_manifest.planted_pair
        else:
            assert firm not in fixture_manifest.planted_pair


def test_prices_and_gics_cover_every_firm(fixture_manifest):
    returns = evaluation.read_prices_dir(fixture_manifest.prices_dir)
    gics = evaluation.read_gics_file(fixture_manifest.gics_path)
    assert set(returns) == set(fixture_manifest.firms)
    assert set(gics) == set(fixture_manifest.firms)
    for series in returns.values():
        assert len(series.returns) >= 200


def test_shared_dates_stay_within_one_firm(fixture_paragraphs):
    # Event dates may repeat across firms by coincidence of the rotation,
    # but chronological pairing groups dates by firm; each firm must supply
    # pairs of its own.
    firms = set()
    for pair in pairs.build_chronological_pairs(fixture_paragraphs):
        (firm,) = {pid.split(":")[0] for pid in pair.provenance}
        firms.add(firm)
    assert firms == {p.firm_id for p in fixture_paragraphs}


def test_every_paragraph_clears_segmentation_floor(fixture_paragraphs):
    assert all(len(p.tokens) >= corpus.DEFAULT_MIN_TOKENS
               for p in fixture_paragraphs)


def test_fixture_supports_default_split_counts(fixture_paragraphs):
    by_view = {pairs.CHRONOLOGICAL: pairs.build_chronological_pairs(fixture_paragraphs),
               pairs.LEXICAL: pairs.build_lexical_pairs(fixture_paragraphs, rng_seed=7)}
    assert len(by_view[pairs.CHRONOLOGICAL]) >= 165
    assert len(by_view[pairs.LEXICAL]) >= 165
    train, val = pairs.split_train_val(by_view, 140, 25, rng_seed=7)
    assert len(train) == 280 and len(val) == 50


def test_fixture_regeneration_identical(fixture_manifest, tmp_path):
    again = synthetic.write_fixture(tmp_path)
    for rel in sorted(p.relative_to(fixture_manifest.root)
                      for p in fixture_manifest.root.rglob("*") if p.is_file()):
        assert (tmp_path / rel).read_bytes() == \
            (fixture_manifest.root / rel).read_bytes(), rel
    assert again.theme_by_paragraph == fixture_manifest.theme_by_paragraph
