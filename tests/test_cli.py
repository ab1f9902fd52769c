"""End-to-end command-line workflows and exit codes."""

import json

import pytest

from hiergraph import load_dataset, save_dataset
from hiergraph.cli import main
from hiergraph.synth import make_separable_corpus


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A corpus file plus a trained model and its artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "corpus.json"
    ds = make_separable_corpus(n_reports=16, seed=0)
    save_dataset(ds, str(data))
    model = root / "model.json"
    code = main(
        [
            "train",
            str(data),
            "--phase1-epochs",
            "3",
            "--phase2-epochs",
            "2",
            "--splits",
            "train",
            "-o",
            str(model),
        ]
    )
    assert code == 0
    return {"root": root, "data": data, "model": model}


class TestValidate:
    def test_clean_file(self, small_path, capsys):
        assert main(["validate", small_path]) == 0
        assert capsys.readouterr().out.strip().endswith("ok")

    def test_structural_error(self, small_path, tmp_path, capsys):
        doc = json.load(open(small_path))
        doc["mimic-1"]["entities"]["1"]["end_ix"] = 40
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "[error] span_bounds" in captured.out
        assert captured.err.startswith("invalid:")

    def test_warning_only_strict(self, tmp_path, capsys):
        doc = {
            "w": {
                "text": "stable overall",
                "entities": {
                    "1": {
                        "tokens": "stable",
                        "label": "CHAN-NC",
                        "start_ix": 0,
                        "end_ix": 0,
                        "relations": [],
                    }
                },
            }
        }
        p = tmp_path / "warn.json"
        p.write_text(json.dumps(doc))
        assert main(["validate", str(p)]) == 0
        out = capsys.readouterr().out
        assert "[warning] chan_isolated" in out
        assert main(["validate", str(p), "--strict"]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{oops")
        assert main(["validate", str(p)]) == 2
        assert capsys.readouterr().err.startswith("invalid:")

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent.json"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestStats:
    def test_text(self, small_path, capsys):
        assert main(["stats", small_path]) == 0
        out = capsys.readouterr().out
        assert "ANAT" in out and "Total Entities" in out

    def test_json(self, small_path, capsys):
        assert main(["stats", small_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["_meta"]["version"]
        assert doc["entity_rows"][0] == "ANAT"

    def test_output_file(self, small_path, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert main(["stats", small_path, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"]


class TestTokenize:
    def test_prints_tokens(self, tmp_path, capsys):
        p = tmp_path / "note.txt"
        p.write_text("no change.")
        assert main(["tokenize", str(p)]) == 0
        assert capsys.readouterr().out.split() == ["no", "change", "."]


class TestTrain:
    def test_artifacts(self, work):
        model = json.loads(work["model"].read_text())
        assert model["format_version"] == 1
        assert model["taxonomy_hash"]
        assert model["tagger"]["labels"][-1] == "NONE"
        assert model["relations"] is not None
        metrics_path = work["model"].with_suffix(".json.metrics.jsonl")
        lines = [json.loads(l) for l in metrics_path.read_text().splitlines()]
        assert lines[0]["_meta"]["taxonomy_hash"] == model["taxonomy_hash"]
        assert [r["phase"] for r in lines[1:]] == [1, 1, 1, 2, 2]
        for r in lines[1:]:
            assert r["clamped"] == 0
            assert r["per_depth"]["0"] == 0.0
            assert sum(r["per_depth"].values()) == pytest.approx(r["loss"], rel=1e-12)

    def test_divergent_rates_report_clamps(self, work, tmp_path, capsys):
        out = tmp_path / "diverged.json"
        args = ["train", str(work["data"]), "--phase1-epochs", "3", "--phase2-epochs", "2",
                "--lr-phase1", "1e6", "--lr-phase2", "1e5", "--splits", "train", "-o", str(out)]
        assert main(args) == 0
        lines = (tmp_path / "diverged.json.metrics.jsonl").read_text().splitlines()
        records = [json.loads(l) for l in lines[1:]]
        assert sum(r["clamped"] for r in records) > 0
        assert all(r["clamped"] <= r["tokens"] for r in records)

    def test_deterministic_output(self, work, tmp_path, capsys):
        args = [
            "train",
            str(work["data"]),
            "--phase1-epochs",
            "3",
            "--phase2-epochs",
            "2",
            "--splits",
            "train",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flat_has_no_phase1(self, work, tmp_path, capsys):
        out = tmp_path / "flat.json"
        code = main(
            [
                "train",
                str(work["data"]),
                "--flat",
                "--phase2-epochs",
                "2",
                "--splits",
                "train",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        lines = [
            json.loads(l)
            for l in (tmp_path / "flat.json.metrics.jsonl").read_text().splitlines()
        ]
        phases = {r["phase"] for r in lines[1:]}
        assert phases == {2}

    def test_bad_learning_rates(self, work, tmp_path, capsys):
        code = main(
            [
                "train",
                str(work["data"]),
                "--lr-phase2",
                "0.5",
                "-o",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "invalid:" in capsys.readouterr().err

    def test_missing_output_flag(self, work, capsys):
        assert main(["train", str(work["data"])]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestPredictEval:
    def test_predict_then_eval(self, work, tmp_path, capsys):
        pred = tmp_path / "pred.json"
        assert main(["predict", str(work["model"]), str(work["data"]), "-o", str(pred)]) == 0
        loaded = load_dataset(str(pred))
        assert len(loaded) == 16
        assert main(["eval", str(work["data"]), str(pred), "--json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{") :])
        assert set(doc) >= {
            "_meta",
            "entity_f1_micro",
            "entity_f1_macro",
            "relation_f1_micro",
            "relation_f1_macro",
            "per_type",
        }

    def test_eval_self_is_perfect(self, work, capsys):
        assert main(["eval", str(work["data"]), str(work["data"])]) == 0
        out = capsys.readouterr().out
        assert "1.000" in out
        assert "0.999" not in out

    def test_eval_modes_and_grouping(self, work, capsys):
        for extra in (["--mode", "radgraph1-common"], ["--grouped"]):
            assert main(["eval", str(work["data"]), str(work["data"])] + extra) == 0
        capsys.readouterr()

    def test_eval_disjoint_docs(self, work, tmp_path, capsys):
        other = tmp_path / "other.json"
        save_dataset(make_separable_corpus(n_reports=4, seed=9, split="test"), str(other))
        ds = load_dataset(str(other))
        renamed = {}
        for i, r in enumerate(ds.reports):
            from hiergraph import serialize_report

            renamed[f"zz-{i}"] = serialize_report(r)
        other.write_text(json.dumps(renamed))
        assert main(["eval", str(work["data"]), str(other)]) == 2
        assert "no common doc ids" in capsys.readouterr().err

    def test_single_token_mode(self, work, tmp_path, capsys):
        pred = tmp_path / "pred1.json"
        code = main(
            [
                "predict",
                str(work["model"]),
                str(work["data"]),
                "--single-token",
                "-o",
                str(pred),
            ]
        )
        assert code == 0
        for report in load_dataset(str(pred)).reports:
            for ent in report.entities.values():
                assert ent.start_ix == ent.end_ix

    def test_corrupt_model_hash(self, work, tmp_path, capsys):
        doc = json.loads(work["model"].read_text())
        doc["taxonomy_hash"] = "0" * 64
        bad = tmp_path / "badmodel.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", str(bad), str(work["data"]), "-o", str(tmp_path / "p.json")]) == 2
        assert "invalid:" in capsys.readouterr().err

    def test_non_finite_model(self, work, tmp_path, capsys):
        doc = json.loads(work["model"].read_text())
        doc["tagger"]["bias"][0] = float("nan")
        bad = tmp_path / "nanmodel.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", str(bad), str(work["data"]), "-o", str(tmp_path / "p.json")]) == 2
        capsys.readouterr()


class TestMalformedModel:
    """Each malformed model makes predict exit 2 with a one-line error."""

    @staticmethod
    def _predict(work, tmp_path, capsys, edit):
        doc = json.loads(work["model"].read_text())
        edit(doc)
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = main(["predict", str(bad), str(work["data"]), "-o", str(tmp_path / "p.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("invalid:") and "Traceback" not in err
        assert not (tmp_path / "p.json").exists()
        return err

    def test_missing_window(self, work, tmp_path, capsys):
        err = self._predict(work, tmp_path, capsys, lambda d: d["tagger"].pop("window"))
        assert "window" in err

    def test_non_integer_window(self, work, tmp_path, capsys):
        for value in (1.5, "2", True, -1):
            def edit(d, value=value):
                d["tagger"]["window"] = value
            assert "tagger.window" in self._predict(work, tmp_path, capsys, edit)

    def test_unknown_train_config_key(self, work, tmp_path, capsys):
        def edit(d):
            d["train_config"]["momentum"] = 0.9
        assert "train_config" in self._predict(work, tmp_path, capsys, edit)

    def test_vocab_id_beyond_embeddings(self, work, tmp_path, capsys):
        def edit(d):
            d["tagger"]["vocab"]["the"] = 10**6
        assert "vocab" in self._predict(work, tmp_path, capsys, edit)

    def test_embedding_width(self, work, tmp_path, capsys):
        def edit(d):
            d["tagger"]["embed_dim"] += 1
        assert "embed_dim" in self._predict(work, tmp_path, capsys, edit)

    def test_not_utf8(self, work, tmp_path, capsys):
        bad = tmp_path / "binary_model.json"
        bad.write_bytes(b"\xff\xfe\x00not json")
        code = main(["predict", str(bad), str(work["data"]), "-o", str(tmp_path / "p.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("invalid:")

    def test_bad_edges(self, work, tmp_path, capsys):
        def edit(d):
            d["taxonomy_edges"][0].append("EXTRA")
        assert "taxonomy_edges" in self._predict(work, tmp_path, capsys, edit)


class TestKappaPruneDot:
    def test_kappa_self(self, small_path, capsys):
        assert main(["kappa", small_path, small_path]) == 0
        assert capsys.readouterr().out.strip() == "1.0000"

    def test_prune(self, small_path, tmp_path, capsys):
        out = tmp_path / "pruned.json"
        assert main(["prune", small_path, "-o", str(out)]) == 0
        pruned = load_dataset(str(out))
        for report in pruned.reports:
            assert all(not e.label.startswith("CHAN") for e in report.entities.values())
        # Non-change structure is untouched.
        assert len(pruned.by_id()["mimic-2"].entities) == 3

    def test_export_dot_stdout(self, small_path, capsys):
        assert main(["export-dot", small_path, "--doc", "mimic-1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "mimic-1"')
        assert '"2" -> "1" [label="modify"]' in out

    def test_export_dot_file(self, small_path, tmp_path, capsys):
        out = tmp_path / "g.dot"
        assert main(["export-dot", small_path, "--doc", "chex-2", "-o", str(out)]) == 0
        assert "suggestive_of" in out.read_text()

    def test_export_dot_missing_doc(self, small_path, capsys):
        assert main(["export-dot", small_path, "--doc", "nope"]) == 2
        assert "invalid:" in capsys.readouterr().err


class TestLossCheck:
    def test_passes_on_all_shipped_taxonomies(self, capsys):
        for taxonomy in ("radgraph2_depth3", "radgraph2_depth2", "radgraph1_depth2"):
            code = main(["loss-check", "--taxonomy", taxonomy, "--trials", "5"])
            out = capsys.readouterr().out
            assert code == 0, taxonomy
            assert "all checks passed" in out
            assert "max gradient rel error" in out

    def test_unknown_taxonomy(self, capsys):
        assert main(["loss-check", "--taxonomy", "mystery"]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, small_path, capsys):
        assert main(["validate", small_path, "--frobnicate"]) == 1
        capsys.readouterr()
