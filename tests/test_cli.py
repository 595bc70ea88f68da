"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.tlsdata.loaders import save_corpus
from repro.tlsdata.synthetic import SyntheticConfig, SyntheticCorpusGenerator


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    config = SyntheticConfig(
        topic="cli-test",
        theme="economy",
        seed=5,
        duration_days=40,
        num_events=8,
        num_major_events=4,
        num_articles=15,
        sentences_per_article=6,
    )
    instance = SyntheticCorpusGenerator(config).generate()
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    save_corpus(instance.corpus, path)
    return path, instance


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.scale == 0.05
        assert args.sentences == 2

    def test_serve_query_required_args(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve-query", "corpus.jsonl"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.corpus is None
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.workers == 4
        assert args.cache_size == 256
        assert args.cache_ttl == 300.0
        assert args.max_inflight == 32
        assert args.batch_window_ms == 10.0

    def test_serve_flag_overrides(self):
        args = build_parser().parse_args(
            [
                "serve", "corpus.jsonl", "--port", "0",
                "--max-inflight", "4", "--batch-window-ms", "2.5",
            ]
        )
        assert args.corpus == "corpus.jsonl"
        assert args.port == 0
        assert args.max_inflight == 4
        assert args.batch_window_ms == 2.5


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats", "--scale", "0.02"]) == 0
        output = capsys.readouterr().out
        assert "timeline17" in output
        assert "crisis" in output

    def test_timeline(self, corpus_file, capsys):
        path, _ = corpus_file
        assert main(
            ["timeline", str(path), "--dates", "4", "--sentences", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert output.count("  - ") >= 1

    def test_serve_query(self, corpus_file, capsys):
        path, instance = corpus_file
        start, end = instance.corpus.window
        assert main(
            [
                "serve-query", str(path),
                "--keywords", *instance.corpus.query,
                "--start", start.isoformat(),
                "--end", end.isoformat(),
                "--dates", "5",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "candidate sentences" in output

    def test_serve_query_json(self, corpus_file, capsys):
        import json

        path, instance = corpus_file
        start, end = instance.corpus.window
        assert main(
            [
                "serve-query", str(path),
                "--keywords", *instance.corpus.query,
                "--start", start.isoformat(),
                "--end", end.isoformat(),
                "--dates", "5",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        # Same shape the HTTP service returns in its "result" section.
        assert set(payload) == {"timeline", "num_candidates", "telemetry"}
        assert isinstance(payload["timeline"], dict)


class TestEvaluate:
    def test_evaluate_synthetic(self, capsys):
        assert main(
            [
                "evaluate", "--dataset", "timeline17",
                "--scale", "0.03", "--instances", "2",
                "--methods", "wilson", "random",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "WILSON" in output
        assert "Random" in output
        assert "date_f1" in output

    def test_evaluate_saved_dataset(self, tmp_path, capsys):
        from repro.tlsdata.loaders import save_dataset
        from repro.tlsdata.synthetic import (
            SyntheticConfig,
            SyntheticCorpusGenerator,
        )
        from repro.tlsdata.types import Dataset

        config = SyntheticConfig(
            topic="cli-eval",
            theme="disaster",
            seed=4,
            duration_days=40,
            num_events=8,
            num_major_events=4,
            num_articles=15,
            sentences_per_article=6,
        )
        instance = SyntheticCorpusGenerator(config).generate()
        save_dataset(Dataset("cli-eval", [instance]), tmp_path / "ds")
        assert main(
            [
                "evaluate", "--dataset", str(tmp_path / "ds"),
                "--methods", "wilson",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "cli-eval" in output

    def test_unknown_method_rejected(self):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--methods", "nonexistent"]
            )

    def test_compare_flag(self, capsys):
        assert main(
            [
                "evaluate", "--dataset", "timeline17",
                "--scale", "0.03", "--instances", "2",
                "--methods", "wilson", "random", "--compare",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "WILSON (a) vs Random (b)" in output
        assert "95% CI" in output


class TestSnapshotCli:
    @pytest.fixture(scope="class")
    def snapshot_file(self, corpus_file, tmp_path_factory):
        path, _ = corpus_file
        out = tmp_path_factory.mktemp("snapshot") / "index.snap"
        assert main(["snapshot", str(path), "--out", str(out)]) == 0
        return out

    def test_snapshot_reports_summary(self, corpus_file, tmp_path, capsys):
        path, _ = corpus_file
        out = tmp_path / "index.snap"
        assert main(["snapshot", str(path), "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "documents" in output
        assert str(out) in output
        assert out.exists()

    def test_index_info_snapshot(self, snapshot_file, capsys):
        assert main(["index-info", str(snapshot_file)]) == 0
        output = capsys.readouterr().out
        assert "wilson.snapshot/v2" in output
        assert "format_version 2" in output
        assert "documents:" in output
        assert "index_version:" in output
        assert ".." in output  # date span rendered

    def test_index_info_jsonl(self, corpus_file, capsys):
        # JSONL is no index format: index-info refuses it with one
        # stderr line naming the file and the reason, and exit code 2.
        path, _ = corpus_file
        assert main(["index-info", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert str(path) in lines[0]
        assert "not a wilson.snapshot/v2 file" in lines[0]
        assert "Traceback" not in captured.err

    def test_index_info_rejects_a_v1_snapshot(self, tmp_path, capsys):
        old = tmp_path / "index.v1.snap"
        old.write_bytes(
            b'{"meta": "wilson.snapshot/v1", "format_version": 1}\nPK'
        )
        assert main(["index-info", str(old)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(old) in err and "wilson.snapshot/v2" in err

    def test_serve_parser_snapshot_flag(self):
        assert build_parser().parse_args(["serve"]).snapshot is None
        args = build_parser().parse_args(["serve", "--snapshot", "x.snap"])
        assert args.snapshot == "x.snap"


class TestServeBoot:
    """`_build_serve_system` -- the boot path, without binding a socket."""

    def test_snapshot_boot_sets_gauges(self, corpus_file, tmp_path):
        from repro.cli import _build_serve_system
        from repro.obs.metrics import Metrics

        path, _ = corpus_file
        out = tmp_path / "boot.snap"
        assert main(["snapshot", str(path), "--out", str(out)]) == 0
        args = build_parser().parse_args(
            ["serve", "--snapshot", str(out), "--port", "0"]
        )
        metrics = Metrics()
        system, indexed, source = _build_serve_system(args, metrics)
        assert source == f"snapshot {out}"
        assert indexed > 0
        assert metrics.gauge("snapshot.documents").value == indexed
        assert metrics.gauge("snapshot.format_version").value == 2
        # Every snapshot boot maps the file.
        assert metrics.gauge("snapshot.mmap_sections").value > 0
        assert metrics.gauge("snapshot.mmap_bytes").value > 0
        assert metrics.gauge("snapshot.load_seconds").value >= 0.0
        assert metrics.gauge("snapshot.vocabulary_terms").value > 0
        assert system.index_version > 0
        # The mapped snapshot pre-seeds the shared analyzer cache.
        assert system.cache is not None
        assert system.cache.stats().misses == 0

    def test_corrupt_snapshot_falls_back(self, tmp_path, capsys):
        from repro.cli import _build_serve_system
        from repro.obs.metrics import Metrics

        bad = tmp_path / "corrupt.snap"
        bad.write_bytes(b"\x00not a snapshot at all\n garbage")
        args = build_parser().parse_args(
            ["serve", "--snapshot", str(bad), "--port", "0",
             "--scale", "0.01"]
        )
        metrics = Metrics()
        system, indexed, source = _build_serve_system(args, metrics)
        # Boot survives: warning + counter, then the re-index path.
        assert metrics.counter("snapshot.corrupt_fallbacks").value == 1
        assert "falling back to re-indexing" in capsys.readouterr().err
        assert source == "synthetic corpus"
        assert indexed > 0
        assert system.index_version > 0

    def test_sharded_serve_rejects_ingest(self, capsys):
        # Refused before anything is indexed or spawned, naming the
        # layout that does take live writes.
        assert main(
            ["serve", "--shards", "2", "--ingest", "--port", "0"]
        ) == 2
        err = capsys.readouterr().err
        assert "snapshot --shards N" in err
        assert "serve --snapshot" in err and "--ingest" in err
        assert "route" in err


class TestDiagnose:
    def test_diagnose_runs(self, capsys):
        assert main(["diagnose", "--scale", "0.03"]) == 0
        output = capsys.readouterr().out
        assert "exact" in output
        assert "missed" in output or "spurious" in output
