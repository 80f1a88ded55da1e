"""CLI integration tests (in-process, via main())."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def kb_file(tmp_path):
    path = tmp_path / "kb.hdt"
    code = main(["generate", "--kind", "wikidata", "--scale", "0.3", "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_generates_hdt(self, kb_file, capsys):
        assert kb_file.exists()

    def test_generates_ntriples(self, tmp_path):
        path = tmp_path / "kb.nt"
        assert main(["generate", "--kind", "dbpedia", "--scale", "0.2", "--out", str(path)]) == 0
        assert path.read_text().strip().endswith(".")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--kind", "freebase", "--out", str(tmp_path / "x.hdt")])


class TestStats:
    def test_prints_stats(self, kb_file, capsys):
        assert main(["stats", str(kb_file)]) == 0
        out = capsys.readouterr().out
        assert "facts" in out and "predicates" in out
        assert "interned_terms" in out  # the default backend is interned
        # Values line up in one column, however long the longest key.
        lines = out.splitlines()
        value_columns = {len(line) - len(line.split(None, 1)[1]) for line in lines}
        assert len(value_columns) == 1, lines


class TestMine:
    def test_mines_known_entity(self, kb_file, capsys):
        code = main(
            ["mine", str(kb_file), "http://wikidata.example.org/entity/City_0"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        if code == 0:
            assert "complexity" in out and "verbalized" in out

    def test_unknown_entity_rejected(self, kb_file, capsys):
        code = main(["mine", str(kb_file), "http://nope.example.org/X"])
        assert code == 2
        assert "unknown entities" in capsys.readouterr().err

    def test_standard_and_parallel_flags(self, kb_file):
        args = [
            "mine", str(kb_file),
            "http://wikidata.example.org/entity/City_1",
            "--standard", "--miner", "premi", "--timeout", "30",
        ]
        assert main(args) in (0, 1)

    def test_pr_prominence(self, kb_file):
        args = [
            "mine", str(kb_file),
            "http://wikidata.example.org/entity/City_2",
            "--prominence", "pr",
        ]
        assert main(args) in (0, 1)

    def test_json_flag_emits_service_envelope(self, kb_file, capsys):
        entity = "http://wikidata.example.org/entity/City_0"
        code_text = main(["mine", str(kb_file), entity])
        text_out = capsys.readouterr().out
        code_json = main(["mine", str(kb_file), entity, "--json"])
        json_out = capsys.readouterr().out
        assert code_json == code_text
        envelope = json.loads(json_out)
        assert envelope["v"] == 1 and envelope["kind"] == "mine"
        assert envelope["ok"] is True
        result = envelope["result"]
        if code_text == 0:
            # The envelope carries the same expression and verbalization
            # the text format printed.
            assert result["expression"] in text_out
            assert result["verbalized"] in text_out
            assert f"{result['complexity_bits']:.2f} bits" in text_out
            assert result["stats"]["re_tests"] > 0
        else:
            assert result["found"] is False

    def test_json_flag_unknown_entity_error_envelope(self, kb_file, capsys):
        code = main(["mine", str(kb_file), "http://nope.example.org/X", "--json"])
        assert code == 2
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "unknown_entity"

    def test_interned_backend_same_output(self, kb_file, capsys):
        entity = "http://wikidata.example.org/entity/City_0"
        code_hash = main(["mine", str(kb_file), entity, "--backend", "hash"])
        out_hash = capsys.readouterr().out
        code_interned = main(["mine", str(kb_file), entity])  # interned default
        out_interned = capsys.readouterr().out
        assert code_hash == code_interned
        # expression/complexity/verbalization lines agree; timings differ
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("search")]
        assert strip(out_hash) == strip(out_interned)


class TestBatch:
    def _requests_file(self, tmp_path, records):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(records) + "\n", encoding="utf-8")
        return path

    def test_batch_jsonl_roundtrip(self, kb_file, tmp_path, capsys):
        requests = self._requests_file(
            tmp_path,
            [
                json.dumps(["http://wikidata.example.org/entity/City_0"]),
                json.dumps(
                    {
                        "id": "named",
                        "targets": ["http://wikidata.example.org/entity/City_1"],
                    }
                ),
            ],
        )
        code = main(
            ["batch", str(kb_file), str(requests), "--verbalize", "--summary"]
        )
        captured = capsys.readouterr()
        assert code == 0
        records = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(records) == 2
        assert records[0]["id"] == "1"
        assert records[1]["id"] == "named"
        for record in records:
            assert "found" in record and "stats" in record
        summary = json.loads(captured.err.strip().splitlines()[-1])
        assert summary["requests_served"] == 2
        # --summary telemetry is machine-readable: the aggregate
        # SearchStats round-trips through its JSON form.
        from repro.core.results import SearchStats

        totals = SearchStats.from_json(summary["search_stats"])
        assert totals.re_tests > 0 and totals.candidates > 0

    def test_batch_reports_errors_but_exits_zero(self, kb_file, tmp_path, capsys):
        """Per-line errors are structured records on the output stream;
        the process fails (exit 2) only on I/O problems."""
        requests = self._requests_file(
            tmp_path,
            [
                json.dumps(["http://wikidata.example.org/entity/City_0"]),
                "garbage line",
                json.dumps(["http://nope.example.org/X"]),
            ],
        )
        code = main(["batch", str(kb_file), str(requests)])
        captured = capsys.readouterr()
        assert code == 0
        records = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert len(records) == 3
        assert records[1]["error"]["line"] == 2
        assert records[1]["error"]["code"] == "bad_request"
        assert records[2]["error"]["code"] == "unknown_entity"

    def test_batch_unreadable_requests_file_exits_nonzero(self, kb_file, tmp_path):
        code = main(["batch", str(kb_file), str(tmp_path / "missing.jsonl")])
        assert code == 2

    def test_batch_out_file_and_hash_backend(self, kb_file, tmp_path):
        requests = self._requests_file(
            tmp_path, [json.dumps(["http://wikidata.example.org/entity/City_2"])]
        )
        out_path = tmp_path / "results.jsonl"
        code = main(
            [
                "batch", str(kb_file), str(requests),
                "--backend", "hash", "--workers", "2", "--out", str(out_path),
            ]
        )
        assert code == 0
        records = [json.loads(l) for l in out_path.read_text().strip().splitlines()]
        assert len(records) == 1


class TestServe:
    """``remi serve`` start-up with the network loop stubbed out: the stub
    captures the service the CLI would serve."""

    @pytest.fixture
    def served(self, monkeypatch):
        captured = {}

        async def fake_run_server(service, **kwargs):
            service.enable_snapshots()  # what MiningServer does first
            captured["service"] = service

        monkeypatch.setattr("repro.service.server.run_server", fake_run_server)
        return captured

    @pytest.fixture
    def nt_file(self, tmp_path):
        path = tmp_path / "kb.nt"
        code = main(["generate", "--kind", "wikidata", "--scale", "0.3", "--out", str(path)])
        assert code == 0
        return path

    def _serve(self, served, path, *flags):
        assert main(["serve", str(path), "--port", "0", *flags]) == 0
        return served["service"]

    def test_ntriples_load_into_the_interned_store(self, served, nt_file):
        from repro.kb.interned import InternedKnowledgeBase

        service = self._serve(served, nt_file)
        assert type(service.kb) is InternedKnowledgeBase

    def test_image_is_served_zero_copy(self, served, nt_file, tmp_path):
        from repro.kb.image import ImageKnowledgeBase

        image = tmp_path / "kb.img"
        assert main(["build-image", str(nt_file), str(image)]) == 0
        service = self._serve(served, image)
        assert isinstance(service.kb, ImageKnowledgeBase)

    def test_backend_flag_is_rejected(self, served, nt_file):
        with pytest.raises(SystemExit):
            main(["serve", str(nt_file), "--backend", "hash"])
        assert not served  # argparse refused before loading anything

    def test_warm_up_builds_the_serving_session(self, served, kb_file):
        """Regression: --warm-up used to warm the live update-side miner
        and leave the snapshot session that answers reads cold."""
        service = self._serve(served, kb_file, "--warm-up")
        assert service._session.miner._known is not None
        assert service._batch is None  # no live miner built for reads
