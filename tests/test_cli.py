"""End-to-end command-line workflows and exit codes."""

import copy
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergraph import Dataset, load_dataset, save_dataset
from hiergraph.cli import main
from hiergraph.synth import make_separable_corpus

from mutations import JUNK, MUTATIONS, valid_records


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
        # 1e3/1e2 ends with most tokens clamped; 1e6/1e5 overflows the
        # logits.  Either way: exit 2, a message naming the phase, epoch
        # and clamp count, no numpy warning and no file left behind.
        for rates in (("1e3", "1e2"), ("1e6", "1e5")):
            out = tmp_path / "diverged.json"
            args = ["train", str(work["data"]), "--phase1-epochs", "3", "--phase2-epochs", "2",
                    "--lr-phase1", rates[0], "--lr-phase2", rates[1], "--splits", "train",
                    "-o", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(args) == 2, rates
            err = capsys.readouterr().err
            assert re.search(r"phase [12] epoch \d+: .*\d+ of \d+ tokens clamped", err), err
            assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("flag", ["--lr-phase1", "--lr-phase2", "--l2"])
    def test_non_finite_setting_rejected(self, work, tmp_path, capsys, flag):
        out = tmp_path / "out"
        out.mkdir()
        for value in ("nan", "inf"):
            # One update in all: without the check, the run ends and writes a model.
            args = ["train", str(work["data"]), "--phase1-epochs", "1", "--phase2-epochs", "0",
                    "--batch-size", "64", flag, value, "-o", str(out / "m.json")]
            assert main(args) == 2
            assert capsys.readouterr().err.startswith("invalid:")
            assert list(out.iterdir()) == []

    def test_weights_ignore_tagger_settings(self, work, tmp_path, capsys):
        # The relation scorer reads only --l2 and --distance-cap.
        runs = (
            ["--phase1-epochs", "2", "--phase2-epochs", "1"],
            ["--phase1-epochs", "0", "--phase2-epochs", "3", "--seed", "9", "--batch-size", "1",
             "--lr-phase1", "5", "--lr-phase2", "0.001"],
        )
        weights = []
        for i, flags in enumerate(runs):
            out = tmp_path / f"m{i}.json"
            assert main(["train", str(work["data"]), "--l2", "0.01", *flags, "-o", str(out)]) == 0
            weights.append(json.loads(out.read_text())["relations"]["weights"])
        assert weights[0] == weights[1]

    def test_missing_output_flag(self, work, capsys):
        assert main(["train", str(work["data"])]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_no_candidate_pairs_no_scorer(self, tmp_path, capsys):
        # At most one entity per report leaves the scorer no pairs.
        reports = [
            replace(r, entities=dict(list(r.entities.items())[: i % 2]), relations=())
            for i, r in enumerate(make_separable_corpus(n_reports=6, seed=0).reports)
        ]
        data, model, pred = tmp_path / "d.json", tmp_path / "m.json", tmp_path / "p.json"
        save_dataset(Dataset(reports), str(data))
        args = ["--phase1-epochs", "2", "--phase2-epochs", "1", "-o", str(model)]
        assert main(["train", str(data), *args]) == 0
        assert json.loads(model.read_text())["relations"] is None
        assert main(["predict", str(model), str(data), "-o", str(pred)]) == 0
        predicted = load_dataset(str(pred)).reports
        assert len(predicted) == 6
        assert all(r.relations == () for r in predicted)
        capsys.readouterr()


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

    def test_predict_output_is_stable_and_valid(self, work, tmp_path):
        """Two ``predict`` runs in fresh interpreters with different hash
        seeds write byte-identical files, which ``validate`` passes."""
        root = Path(__file__).resolve().parents[1]
        cli = [sys.executable, "-m", "hiergraph.cli"]
        texts = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=hash_seed)
            pred = tmp_path / f"pred-{hash_seed}.json"
            argv = ["predict", work["model"], work["data"], "-o", pred]
            done = subprocess.run(cli + argv, env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            texts.append(pred.read_bytes())
        assert texts[0] == texts[1]
        done = subprocess.run(cli + ["validate", pred], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().endswith("ok")

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

    def test_ill_typed_train_config(self, work, tmp_path, capsys):
        for key, value in (
            ("phase1_epochs", "x"), ("batch_size", True), ("seed", 1.0),
            ("l2", None), ("lr_phase1", "0.1"), ("lr_phase2", float("nan")),
        ):
            def edit(d, key=key, value=value):
                d["train_config"][key] = value
            assert f"train_config.{key}" in self._predict(work, tmp_path, capsys, edit)

    def test_invalid_train_config(self, work, tmp_path, capsys):
        for key, value in (("batch_size", 0), ("l2", -1), ("lr_phase2", 5)):
            def edit(d, key=key, value=value):
                d["train_config"][key] = value
            assert "train_config" in self._predict(work, tmp_path, capsys, edit)

    def test_tagger_labels(self, work, tmp_path, capsys):
        for labels in (lambda ls: ls[::-1], lambda ls: ls[:-1], lambda ls: ls + ["X"]):
            def edit(d, labels=labels):
                d["tagger"]["labels"] = labels(d["tagger"]["labels"])
            assert "tagger.labels" in self._predict(work, tmp_path, capsys, edit)

    def test_relation_kinds(self, work, tmp_path, capsys):
        for kinds in ([1, 2, 3, 4], ["none", "modify", "located_at", "suggestive_of"], "abcd"):
            def edit(d, kinds=kinds):
                d["relations"]["kinds"] = kinds
            assert "relations.kinds" in self._predict(work, tmp_path, capsys, edit)


class TestNotUtf8:
    """Input files that are not UTF-8 exit 2 with a one-line error."""

    @staticmethod
    def _binary(tmp_path):
        bad = tmp_path / "bin.json"
        bad.write_bytes(b"\xff\xfe{\x00}")
        return str(bad)

    @staticmethod
    def _invalid(capsys):
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "stats", "tokenize"])
    def test_dataset_commands(self, command, tmp_path, capsys):
        assert main([command, self._binary(tmp_path)]) == 2
        self._invalid(capsys)

    def test_train_dataset(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train", self._binary(tmp_path), "-o", str(out)]) == 2
        self._invalid(capsys)

    def test_train_taxonomy(self, work, tmp_path, capsys):
        out = tmp_path / "m.json"
        argv = ["train", str(work["data"]), "--taxonomy", self._binary(tmp_path), "-o", str(out)]
        assert main(argv) == 2
        self._invalid(capsys)
        assert not out.exists()

    def test_taxonomy_dir(self, work, tmp_path, monkeypatch, capsys):
        (tmp_path / "mine.txt").write_bytes(b"\xff\xfeROOT")
        monkeypatch.setenv("HIERGRAPH_TAXONOMY_DIR", str(tmp_path))
        argv = ["train", str(work["data"]), "--taxonomy", "mine", "-o", str(tmp_path / "m.json")]
        assert main(argv) == 2
        self._invalid(capsys)

    def test_eval(self, work, tmp_path, capsys):
        assert main(["eval", str(work["data"]), self._binary(tmp_path)]) == 2
        self._invalid(capsys)


def test_taxonomy_dir_unreadable(work, tmp_path, monkeypatch, capsys):
    # A directory where the config file should be: open() fails.
    os.mkdir(tmp_path / "mine.txt")
    monkeypatch.setenv("HIERGRAPH_TAXONOMY_DIR", str(tmp_path))
    argv = ["train", str(work["data"]), "--taxonomy", "mine", "-o", str(tmp_path / "m.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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


@st.composite
def dataset_files(draw):
    """A valid dataset file and a mutated copy of it, as bytes."""
    clean = {f"r{i}": draw(valid_records()) for i in range(draw(st.integers(1, 3)))}
    doc = json.loads(json.dumps(clean))
    for doc_id in draw(st.lists(st.sampled_from(sorted(doc)), max_size=3)):
        draw(st.sampled_from(MUTATIONS))(draw, doc[doc_id])
    shape = draw(st.integers(0, 9))
    if shape == 0:
        doc = draw(st.sampled_from([d for d in JUNK if not isinstance(d, dict)]))
    elif shape == 1:
        doc["_meta"] = draw(st.sampled_from(JUNK))
    elif shape == 2:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(JUNK))
    data = json.dumps(doc).encode()
    damage = draw(st.integers(0, 9))
    if damage == 0:
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif damage == 1:
        data = b"\xff\xfe" + data
    return json.dumps(clean).encode(), data


class TestExitCodeFuzz:
    """Mutated dataset files give a documented exit code, never a traceback."""

    @settings(max_examples=20, deadline=None)
    @given(dataset_files())
    def test_validate_stats_eval(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            clean, data = os.path.join(tmp, "clean.json"), os.path.join(tmp, "data.json")
            for path, content in ((clean, files[0]), (data, files[1])):
                with open(path, "wb") as fh:
                    fh.write(content)
            for argv in (
                ["validate", data],
                ["validate", "--strict", data],
                ["stats", data],
                ["eval", clean, data],
                ["eval", data, clean, "--mode", "radgraph1-common", "--grouped"],
            ):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), (argv, err.getvalue())
                assert "Traceback" not in err.getvalue()
                assert gc.isenabled()


# The objects of a model file whose keys the fuzz deletes or replaces;
# None is the top level.
MODEL_SECTIONS = (None, "tagger", "relations", "train_config")


@st.composite
def model_files(draw, clean: dict):
    """A mutated, truncated or non-UTF-8 copy of a model file, as bytes."""
    doc = json.loads(json.dumps(clean))
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(MODEL_SECTIONS))
        section = doc if name is None else doc.get(name)
        if not isinstance(section, dict) or not section:
            continue
        key = draw(st.sampled_from(sorted(section)))
        junk = copy.deepcopy(draw(st.sampled_from(JUNK)))
        how = draw(st.integers(0, 3))
        if how == 0:
            del section[key]
        elif how == 1 and isinstance(section[key], list) and section[key]:
            section[key][draw(st.integers(0, len(section[key]) - 1))] = junk
        else:
            section[key] = junk
    data = json.dumps(doc).encode()
    damage = draw(st.integers(0, 5))
    if damage == 0:
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif damage == 1:
        data = b"\xff\xfe" + data
    return data


class TestModelExitCodeFuzz:
    """Damaged model files make predict exit 0, 1 or 2, never crash."""

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_predict(self, work, data):
        model = data.draw(model_files(json.loads(work["model"].read_text())))
        with tempfile.TemporaryDirectory() as tmp:
            path, pred = os.path.join(tmp, "model.json"), os.path.join(tmp, "pred.json")
            with open(path, "wb") as fh:
                fh.write(model)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["predict", path, str(work["data"]), "-o", pred])
            assert code in (0, 1, 2), err.getvalue()
            assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", ["validate", "stats", "eval"])
def test_collector_state_restored(command, small_path, capsys):
    argv = [command, small_path] + ([small_path] if command == "eval" else [])
    gc.disable()
    try:
        assert main(argv) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert main(argv) == 0
    assert gc.isenabled()
    capsys.readouterr()


def test_traced_benchmark_hits_every_target(tmp_path):
    """``perfbench/tracer.py`` over train, predict and eval calls each
    function it wraps at least once, as the traced benchmark requires."""
    root = Path(__file__).resolve().parents[1]
    test = make_separable_corpus(n_reports=4, seed=1, split="test").reports
    reports = make_separable_corpus(n_reports=8, seed=0).reports + [
        replace(r, doc_id=f"test-{r.doc_id}") for r in test
    ]
    data = tmp_path / "data.json"
    save_dataset(Dataset(reports), str(data))
    model, pred = tmp_path / "model.json", tmp_path / "pred.json"
    steps = {
        "train": ["train", data, "--splits", "train", "--phase1-epochs", "2",
                  "--phase2-epochs", "1", "-o", model],
        "predict": ["predict", model, data, "--splits", "test", "-o", pred],
        "eval": ["eval", data, pred, "--splits", "test", "--json", "-o", tmp_path / "eval.json"],
    }
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    calls = {}
    for step, argv in steps.items():
        spans = tmp_path / f"{step}.spans.json"
        tracer = [sys.executable, root / "perfbench" / "tracer.py", spans, "--"]
        done = subprocess.run(tracer + argv, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        for name, n in json.loads(spans.read_text())["calls"].items():
            calls[name] = calls.get(name, 0) + n
    assert "taxonomy.TaxonomyTree.from_edges" in calls
    assert [name for name, n in calls.items() if n == 0] == []
