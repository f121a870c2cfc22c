"""``zsmiles campaign run | resume | status | top-hits``."""

from __future__ import annotations

import pytest

from repro.campaign import campaign_status
from repro.cli import main


def run_cli(*argv) -> int:
    return main([str(arg) for arg in argv])


@pytest.fixture()
def finished_campaign(tmp_path, corpus_file):
    workdir = tmp_path / "camp"
    code = run_cli(
        "campaign", "run", corpus_file, workdir,
        "--population", 12, "--generations", 2, "--seed", 7,
    )
    assert code == 0
    return workdir


class TestRun:
    def test_run_prints_summary(self, tmp_path, corpus_file, capsys):
        assert run_cli(
            "campaign", "run", corpus_file, tmp_path / "camp",
            "--population", 12, "--generations", 2, "--seed", 7,
        ) == 0
        out = capsys.readouterr().out
        assert "generation : 2 (last completed)" in out
        assert "gen   0:" in out and "gen   2:" in out

    def test_run_writes_checkpoint(self, finished_campaign):
        assert campaign_status(finished_campaign).generation == 2

    def test_run_refuses_existing_workdir(self, finished_campaign, corpus_file, capsys):
        assert run_cli("campaign", "run", corpus_file, finished_campaign) == 1
        assert "resume" in capsys.readouterr().err


class TestResume:
    def test_resume_extends_the_target(self, finished_campaign, capsys):
        assert run_cli(
            "campaign", "resume", finished_campaign, "--generations", 3
        ) == 0
        assert "generation : 3" in capsys.readouterr().out
        assert campaign_status(finished_campaign).generation == 3

    def test_resume_finished_campaign_is_a_no_op(self, finished_campaign):
        before = campaign_status(finished_campaign).as_dict()
        assert run_cli("campaign", "resume", finished_campaign) == 0
        assert campaign_status(finished_campaign).as_dict() == before

    def test_resume_missing_campaign_raises(self, tmp_path, capsys):
        assert run_cli("campaign", "resume", tmp_path) == 1
        assert "no campaign checkpoint" in capsys.readouterr().err


class TestStatusAndHits:
    def test_status_reports_counters(self, finished_campaign, capsys):
        assert run_cli("campaign", "status", finished_campaign) == 0
        out = capsys.readouterr().out
        assert "scored" in out and "records_written" in out

    def test_top_hits_prints_ranked_records(self, finished_campaign, capsys):
        assert run_cli("campaign", "top-hits", finished_campaign, "-n", 4) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 4
        scores = [float(line.split()[0]) for line in lines]
        assert scores == sorted(scores)
