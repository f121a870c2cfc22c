"""Acceptance checks for the engine redesign.

The issue's bar: ``experiments/table2.py`` and ``screening/pipeline.py`` run
through :class:`ZSmilesEngine` with byte-identical compressed output (and
hence identical ratios) to the seed :class:`ZSmilesCodec` path.
"""

from __future__ import annotations

import pytest

from repro.core.codec import ZSmilesCodec
from repro.core.streaming import read_lines
from repro.engine import ZSmilesEngine
from repro.experiments.common import ExperimentScale, component_corpora
from repro.experiments.table2 import DATASET_ORDER, run_table2
from repro.screening.pipeline import ScreeningCampaign


@pytest.fixture(scope="module")
def tiny_scale():
    return ExperimentScale(training_size=120, evaluation_size=120, per_dataset_size=100, seed=0)


@pytest.mark.slow
class TestTable2ThroughEngine:
    def test_matrix_matches_direct_codec_path(self, tiny_scale):
        result = run_table2(scale=tiny_scale, lmax=6)
        corpora = component_corpora(tiny_scale)
        oracles = {
            name: ZSmilesEngine.from_codec(
                ZSmilesCodec.train(corpora[name], preprocessing=True, lmax=6),
                backend="serial",
            )
            for name in DATASET_ORDER
        }
        for train in DATASET_ORDER:
            for test in DATASET_ORDER:
                direct = oracles[train].compression_ratio(corpora[test])
                assert result.ratios[(train, test)] == pytest.approx(direct, abs=0.0)


class TestScreeningThroughEngine:
    def test_prepared_library_is_byte_identical_to_codec_path(
        self, trained_codec, mixed_corpus_small, tmp_path
    ):
        campaign = ScreeningCampaign(trained_codec)
        ligands = mixed_corpus_small[:64]
        zsmi_path, index, footprint = campaign.prepare_library(ligands, tmp_path)
        expected = [trained_codec.compress(s) for s in ligands]
        assert list(read_lines(zsmi_path)) == expected
        assert index.line_count == len(ligands)
        assert footprint.records == len(ligands)

    def test_campaign_runs_on_engine_prepared_library(
        self, trained_codec, mixed_corpus_small, tmp_path
    ):
        campaign = ScreeningCampaign(trained_codec, top_k=5)
        ligands = mixed_corpus_small[:40]
        zsmi_path, index, footprint = campaign.prepare_library(ligands, tmp_path)
        result = campaign.run(zsmi_path, index=index, footprint=footprint)
        for pocket in campaign.pockets:
            assert len(result.hits[pocket.name]) == 5
