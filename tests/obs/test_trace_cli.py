"""End-to-end: ``run --trace-out`` writes a trace the ``trace`` command
can roll up, byte-identically per seed."""

from __future__ import annotations

import json
import os

import pytest

from repro.__main__ import main
from repro.obs.report import (
    flame_table,
    load_records,
    render_json,
    render_text,
    summarize,
    top_spans,
)

ARGS = ["run", "fig2", "--scale", "0.0005", "--seed", "3"]


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    assert main(ARGS + ["--trace-out", str(path)]) == 0
    return path


class TestTraceOut:
    def test_trace_is_byte_identical_per_seed(self, trace_path, tmp_path):
        again = tmp_path / "again.jsonl"
        assert main(ARGS + ["--trace-out", str(again)]) == 0
        assert again.read_bytes() == trace_path.read_bytes()

    def test_meta_header_records_the_invocation(self, trace_path):
        meta = json.loads(trace_path.read_text().splitlines()[0])
        assert meta["type"] == "meta"
        assert meta["experiment"] == "fig2"
        assert meta["scale"] == pytest.approx(0.0005)
        assert meta["seed"] == 3
        # The CI fault matrix runs this suite under REPRO_FAULT_PROFILE,
        # which the study (and so the header) takes as its default.
        assert meta["fault_profile"] == os.environ.get(
            "REPRO_FAULT_PROFILE", "none"
        )

    def test_stdout_report_unchanged_by_tracing(self, trace_path, tmp_path, capsys):
        assert main(ARGS) == 0
        untraced = capsys.readouterr().out
        assert main(ARGS + ["--trace-out", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out
        assert traced == untraced


class TestTraceCommand:
    def test_text_report(self, trace_path, capsys):
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "per-experiment spans" in out
        assert "fig2" in out
        assert "top spans by steps" in out
        assert "flame-table" in out

    def test_json_report(self, trace_path, capsys):
        assert main(["trace", str(trace_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["experiments"]["fig2"]["outcome"] == "ok"
        assert payload["top_spans"]
        assert payload["experiments"][0]["experiment"] == "fig2"

    def test_missing_file_is_a_clean_error(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        assert "trace.jsonl" in capsys.readouterr().err

    def test_garbage_line_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\nnot json\n')
        assert main(["trace", str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err


class TestReportFunctions:
    def test_summarize_counts_spans_and_counters(self, trace_path):
        records = load_records(trace_path)
        summary = summarize(records)
        assert summary["spans"] >= 2
        assert summary["open_spans"] == 0
        assert summary["meta"]["experiment"] == "fig2"
        assert summary["experiments"]["fig2"]["outcome"] == "ok"

    def test_renders_are_deterministic(self, trace_path):
        records = load_records(trace_path)
        assert render_text(records) == render_text(records)
        assert render_json(records) == render_json(records)

    def test_top_spans_ranked_by_steps(self, trace_path):
        ranked = top_spans(load_records(trace_path))
        steps = [group["steps"] for group in ranked]
        assert steps == sorted(steps, reverse=True)

    def test_flame_table_has_experiment_root(self, trace_path):
        tables = flame_table(load_records(trace_path))
        assert tables[0]["experiment"] == "fig2"
        assert all(frame["depth"] >= 1 for frame in tables[0]["frames"])
