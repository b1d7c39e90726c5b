"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "toy.jsonl"
    assert main(["generate", "--category", "Toy", "--scale", "0.25",
                 "--seed", "3", "--out", str(path)]) == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestGenerateAndStats:
    def test_generate_writes_corpus(self, tmp_path, capsys):
        path = tmp_path / "fresh.jsonl"
        assert main(["generate", "--category", "Toy", "--scale", "0.25",
                     "--seed", "3", "--out", str(path)]) == 0
        assert path.exists()
        assert "products" in capsys.readouterr().out

    def test_stats(self, corpus_file, capsys):
        assert main(["stats", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "#Product" in out
        assert "Toy" in out


class TestSelectAndNarrow:
    def test_select_default_target(self, corpus_file, capsys):
        assert main(["select", str(corpus_file), "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "[TARGET ]" in out

    def test_select_explicit_missing_target(self, corpus_file):
        with pytest.raises(SystemExit, match="not in the corpus"):
            main(["select", str(corpus_file), "--target", "GHOST"])

    def test_narrow_greedy(self, corpus_file, capsys):
        assert main(["narrow", str(corpus_file), "--k", "3", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "core list" in out

    def test_narrow_exact(self, corpus_file, capsys):
        assert main([
            "narrow", str(corpus_file), "--k", "3", "--m", "2",
            "--exact", "--time-limit", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "TargetHkS_ILP" in out


class TestExperimentCommand:
    def test_table2(self, capsys):
        assert main([
            "experiment", "table2", "--scale", "0.25", "--instances", "3",
        ]) == 0
        assert "#Product" in capsys.readouterr().out

    def test_fig11(self, capsys):
        assert main([
            "experiment", "fig11", "--scale", "0.25", "--instances", "3",
            "--budgets", "2", "3",
        ]) == 0
        assert "Delta target" in capsys.readouterr().out

    def test_case_study(self, capsys):
        assert main([
            "experiment", "case-study", "--scale", "0.3", "--instances", "6",
        ]) == 0
        assert "This item" in capsys.readouterr().out

    def test_all_accepted_by_parser(self):
        args = build_parser().parse_args(["experiment", "all"])
        assert args.name == "all"

    def test_json_output(self, tmp_path, capsys):
        out_dir = tmp_path / "json"
        assert main([
            "experiment", "table2", "--scale", "0.25", "--instances", "3",
            "--json", str(out_dir),
        ]) == 0
        from repro.experiments.persist import load_results

        envelope = load_results(out_dir / "table2.json")
        assert envelope["experiment"] == "table2"
        assert capsys.readouterr().out  # table still printed


class TestConvertAmazon:
    def test_round_trip(self, tmp_path, capsys):
        import json

        meta = tmp_path / "meta.jsonl"
        meta.write_text(
            json.dumps({"asin": "B1", "title": "X",
                        "related": {"also_bought": ["B2"]}})
            + "\n"
            + json.dumps({"asin": "B2", "title": "Y"})
        )
        reviews = tmp_path / "reviews.jsonl"
        reviews.write_text(
            json.dumps({"reviewerID": "U1", "asin": "B1",
                        "reviewText": "The battery is great.", "overall": 5.0})
            + "\n"
            + json.dumps({"reviewerID": "U2", "asin": "B2",
                          "reviewText": "The battery is poor.", "overall": 2.0})
        )
        out = tmp_path / "corpus.jsonl"
        assert main([
            "convert-amazon", "--reviews", str(reviews),
            "--metadata", str(meta), "--out", str(out), "--no-annotate",
        ]) == 0
        assert out.exists()
        assert "2 products" in capsys.readouterr().out


class TestUsageErrors:
    """Missing or corrupt --corpus must exit 2 with a one-line error."""

    COMMANDS = {
        "select": lambda path: ["select", path, "--m", "2"],
        "narrow": lambda path: ["narrow", path, "--k", "2", "--m", "2"],
        "stats": lambda path: ["stats", path],
        "serve": lambda path: ["serve", "--corpus", path, "--port", "0"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_missing_corpus_exits_2(self, command, tmp_path, capsys):
        argv = self.COMMANDS[command](str(tmp_path / "nope.jsonl"))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corpus file not found")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_corrupt_corpus_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "product", "product_id"\nnot json at all\n')
        argv = self.COMMANDS[command](str(path))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: corpus file")
        assert "corrupt" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "journal",
        [
            # The unframed layout journals had before the WAL framing.
            '{"kind":"header","version":1}\n{"kind":"entry","key":"a"}\n',
            # A framed header whose CRC no longer matches, then more data.
            '30|00000000|{"seq":1,"kind":"header","version":1}\nmore\n',
        ],
        ids=["pre-framing", "damaged"],
    )
    def test_bad_checkpoint_journal_exits_2_untouched(
        self, journal, tmp_path, capsys
    ):
        path = tmp_path / "old.journal"
        path.write_text(journal, encoding="utf-8")
        before = path.read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiment", "table5", "--scale", "0.25", "--instances", "1",
                "--checkpoint", str(path),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint journal {path} is unusable")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert path.read_bytes() == before

    def test_one_line_pre_framing_journal_exits_2_untouched(
        self, tmp_path, capsys
    ):
        # The log alone takes a lone unframed line for a torn record.
        path = tmp_path / "one.journal"
        path.write_text('{"kind":"header","version":1}\n', encoding="utf-8")
        before = path.read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiment", "table2", "--scale", "0.25", "--instances", "1",
                "--checkpoint", str(path),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint journal {path} is unusable")
        assert err.count("\n") == 1
        assert path.read_bytes() == before

    def test_checkpoint_journal_directory_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "experiment", "table5", "--scale", "0.25", "--instances", "1",
                "--checkpoint", str(tmp_path),
            ])
        assert excinfo.value.code == 2
        assert "checkpoint journal" in capsys.readouterr().err

    def test_corpus_directory_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "directory" in capsys.readouterr().err

    def test_serve_replicas_above_shards_exits_2(self, tmp_path, capsys):
        """--replicas > --shards is a usage error caught before any
        corpus load or process spawn."""
        code = main([
            "serve", "--corpus", str(tmp_path / "unused.jsonl"),
            "--shards", "3", "--replicas", "4",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "--replicas 4 cannot exceed --shards 3" in out
        assert out.count("\n") == 1

    def test_serve_replicas_below_one_exits_2(self, tmp_path, capsys):
        code = main([
            "serve", "--corpus", str(tmp_path / "unused.jsonl"),
            "--shards", "2", "--replicas", "0",
        ])
        assert code == 2
        out = capsys.readouterr().out
        assert "--replicas must be >= 1" in out
        assert out.count("\n") == 1

    def test_serve_state_dir_with_wal_gap_exits_2_untouched(
        self, corpus_file, tmp_path, capsys, monkeypatch
    ):
        from repro.serve.wal import WriteAheadLog

        monkeypatch.setattr(
            "repro.serve.http.run_server",
            lambda *args, **kwargs: pytest.fail("served over a WAL gap"),
        )
        state = tmp_path / "state"
        wal = WriteAheadLog(state / "ingest.wal")
        for _ in range(3):
            wal.append({"kind": "delta", "reviews": []})
        wal.compact(upto_seq=2)  # no snapshot covers seqs 1-2
        wal.close()
        before = (state / "ingest.wal").read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main([
                "serve", "--corpus", str(corpus_file),
                "--state-dir", str(state), "--port", "0",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "acked deltas are missing" in err
        assert err.count("\n") == 1
        assert (state / "ingest.wal").read_bytes() == before
