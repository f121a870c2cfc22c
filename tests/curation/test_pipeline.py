"""Pipeline properties: dedup order/stability, counters that always tally.

The acceptance contract: every line drawn from the source is accounted for
(``lines_in == records_out + sum(rejected)``), dedup keeps the *first*
occurrence so output order is order of first appearance, and re-running the
pipeline over its own output is the identity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curation import (
    DEDUP_STAGE,
    HeadSampler,
    IngestPipeline,
    IngestStats,
    ingest_to_file,
    ingest_to_store,
    iter_source,
    tee,
)
from repro.curation.filters import length_filter, strip_filter
from repro.errors import CurationError
from repro.library import CorpusLibrary

records_strategy = st.lists(
    st.text(alphabet=st.sampled_from("CNOcno()=#1"), min_size=0, max_size=12),
    max_size=60,
)


def first_occurrences(lines):
    seen, out = set(), []
    for line in lines:
        if line and line not in seen:
            seen.add(line)
            out.append(line)
    return out


class TestDedupProperties:
    @given(lines=records_strategy)
    @settings(max_examples=60, deadline=None)
    def test_order_stable_first_occurrence_wins(self, lines):
        pipeline = IngestPipeline([strip_filter()])
        assert list(pipeline.process(lines)) == first_occurrences(lines)

    @given(lines=records_strategy)
    @settings(max_examples=60, deadline=None)
    def test_idempotent_over_own_output(self, lines):
        """Re-ingesting a curated corpus is the identity."""
        pipeline = IngestPipeline([strip_filter()])
        once = list(pipeline.process(lines))
        again = list(pipeline.process(once))
        assert again == once

    @given(lines=records_strategy)
    @settings(max_examples=60, deadline=None)
    def test_counters_always_tally(self, lines):
        pipeline = IngestPipeline([strip_filter(), length_filter(2, 10)])
        out = list(pipeline.process(lines))
        stats = pipeline.stats
        stats.check()
        assert stats.lines_in == len(lines)
        assert stats.records_out == len(out)
        assert stats.lines_in == stats.records_out + stats.rejected_total()

    def test_dedup_off_passes_duplicates(self):
        pipeline = IngestPipeline([strip_filter()], dedup=False)
        assert list(pipeline.process(["C", "C", "C"])) == ["C", "C", "C"]
        assert DEDUP_STAGE not in pipeline.stats.stages

    def test_fresh_stats_per_run(self):
        pipeline = IngestPipeline([strip_filter()])
        list(pipeline.process(["C", "N"]))
        first = pipeline.stats
        list(pipeline.process(["O"]))
        assert pipeline.stats is not first
        assert pipeline.stats.lines_in == 1

    def test_reserved_stage_name_rejected(self):
        from repro.curation.filters import RecordFilter

        with pytest.raises(CurationError):
            IngestPipeline([RecordFilter(DEDUP_STAGE, lambda r: r)])


class TestStatsCheck:
    def test_check_catches_broken_chain(self):
        stats = IngestStats(lines_in=10, records_out=9)
        from repro.curation.pipeline import StageCount

        stats.stages["strip"] = StageCount(seen=10, accepted=8, rejected=2)
        with pytest.raises(CurationError):
            stats.check()  # records_out != last accepted

    def test_as_dict_shape(self):
        pipeline = IngestPipeline([strip_filter()])
        list(pipeline.process([" C ", "", "C"]))
        payload = pipeline.stats.as_dict()
        assert payload["lines_in"] == 3
        assert payload["records_out"] == 1
        assert payload["rejected"] == 2
        assert set(payload["stages"]) == {"strip", DEDUP_STAGE}


class TestSources:
    def test_iter_source_strips_newlines_from_iterables(self):
        assert list(iter_source(["C\n", "N\r\n", "O"])) == ["C", "N", "O"]

    def test_iter_source_reads_paths(self, tmp_path):
        path = tmp_path / "in.smi"
        path.write_text("C\nN\n", encoding="utf-8")
        assert list(iter_source(path)) == ["C", "N"]


class TestSinks:
    def test_ingest_to_file_with_sampler_tee(self, tmp_path):
        sampler = HeadSampler(2)
        out = tmp_path / "curated.smi"
        stats = ingest_to_file(
            ["CCO", "CCO", " CCN ", "", "c1ccccc1"],
            out,
            IngestPipeline([strip_filter()]),
            sampler=sampler,
        )
        assert out.read_text(encoding="utf-8") == "CCO\nCCN\nc1ccccc1\n"
        assert stats.records_out == 3
        # The sampler saw every *emitted* record, capped at capacity.
        assert sampler.seen == 3
        assert sampler.sample == ["CCO", "CCN"]

    def test_ingest_to_store_round_trips(self, tmp_path, engine, corpus):
        out = tmp_path / "curated.zss"
        source = [f"  {record}" for record in corpus] + list(corpus[:10])
        stats = ingest_to_store(
            source, out, IngestPipeline([strip_filter()]), engine
        )
        unique = first_occurrences(corpus)
        assert stats.records_out == len(unique)
        assert stats.stages[DEDUP_STAGE].rejected == len(source) - len(unique)
        with CorpusLibrary.open(out) as store:
            assert list(store.iter_all()) == unique

    def test_tee_feeds_every_record(self):
        sampler = HeadSampler(100)
        assert list(tee(iter(["a", "b"]), sampler)) == ["a", "b"]
        assert sampler.seen == 2
