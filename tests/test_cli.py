"""End-to-end command-line workflows and exit codes."""

import argparse
import gc
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hiergraph import (
    ENTITY_LABELS,
    Dataset,
    TaggerParams,
    TaxonomyTree,
    cli,
    corpus,
    evaluation,
    load_dataset,
    load_taxonomy,
    model_io,
    save_dataset,
    save_model,
    schema,
)
from hiergraph.cli import build_parser, main
from hiergraph.errors import FileUnreadable, HierGraphError
from hiergraph.evaluation import EVAL_MODES
from hiergraph.relations import FEATURE_DIM, OUTPUT_KINDS, RelationScorerParams
from hiergraph.schema import GROUPS
from hiergraph.synth import make_random_corpus, make_separable_corpus, perturb_predictions

from mutations import JUNK, MUTATIONS, junk, records, valid_records
from oracles import reference_predict


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
        assert "no entity pairs within distance 20" in capsys.readouterr().err
        assert json.loads(model.read_text())["relations"] is None
        assert main(["predict", str(model), str(data), "-o", str(pred)]) == 0
        predicted = load_dataset(str(pred)).reports
        assert len(predicted) == 6
        assert all(r.relations == () for r in predicted)
        capsys.readouterr()


    def test_non_schema_leaf_rejected(self, work, tmp_path, capsys):
        # A leaf outside the schema's entity labels would become a tag,
        # and an entity label no later step knows.
        taxonomy = tmp_path / "foo.txt"
        taxonomy.write_text(_config_text(FOO_FIRST_EDGES))
        out = tmp_path / "m.json"
        argv = ["train", str(work["data"]), "--taxonomy", str(taxonomy), "--phase1-epochs",
                "0", "--phase2-epochs", "0", "-o", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "FOO" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["foo.txt"]

    def test_unwritable_model_leaves_no_log(self, work, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        argv = ["train", str(work["data"]), "--phase1-epochs", "1", "--phase2-epochs", "1",
                "-o", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Is a directory" in err
        assert list(tmp_path.iterdir()) == [out]
        assert list(out.iterdir()) == []

    def test_failed_model_write_keeps_earlier_pair(self, work, tmp_path, monkeypatch, capsys):
        model = tmp_path / "m.json"
        log = tmp_path / "m.json.metrics.jsonl"
        argv = ["train", str(work["data"]), "--phase1-epochs", "1", "--phase2-epochs", "1",
                "-o", str(model)]
        assert main(argv) == 0
        before = model.read_bytes(), log.read_bytes()

        def refuse(*args, **kwargs):
            raise OSError("No space left on device")

        monkeypatch.setattr(model_io, "save_model", refuse)
        # Another seed, so a log written by this run would differ.
        assert main(argv[:-2] + ["--seed", "5", "-o", str(model)]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert (model.read_bytes(), log.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [model.name, log.name]

    def test_negative_distance_cap(self, work, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["train", str(work["data"]), "--distance-cap", "-5", "-o", str(out)]) == 2
        assert "--distance-cap must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# Each setting train rejects, and a word of the error that names it.
REJECTED_TRAIN_SETTINGS = [
    (["--seed", "-1"], "seed"),
    (["--lr-phase2", "0.5"], "smaller learning rate"),
    (["--lr-phase1", "nan"], "learning rates"),
    (["--l2", "-1"], "l2"),
    (["--batch-size", "0"], "batch_size"),
    (["--phase2-epochs", "-1"], "epoch counts"),
    (["--distance-cap", "-1"], "--distance-cap"),
]


@pytest.mark.parametrize(
    "flags, name", REJECTED_TRAIN_SETTINGS, ids=lambda v: " ".join(v) if isinstance(v, list) else ""
)
def test_train_rejects_settings_before_reading(flags, name, tmp_path, capsys):
    """A bad setting is reported even when the data file does not exist."""
    argv = ["train", str(tmp_path / "missing.json"), *flags, "-o", str(tmp_path / "m.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid:") and name in err and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


class TestSplitSelection:
    """train, predict and eval read --splits alike and never fall back to
    other splits."""

    @pytest.fixture
    def files(self, work, tmp_path):
        test = tmp_path / "test.json"
        save_dataset(make_separable_corpus(n_reports=4, seed=1, split="test"), str(test))
        return {"train": str(work["data"]), "test": str(test), "model": str(work["model"]),
                "out": str(tmp_path / "out" / "o.json")}

    def commands(self, f, data, *flags):
        epochs = ["--phase1-epochs", "1", "--phase2-epochs", "1"]
        return (
            ["train", data, *epochs, *flags, "-o", f["out"]],
            ["predict", f["model"], data, *flags, "-o", f["out"]],
            ["eval", data, data, *flags],
        )

    def test_unknown_split(self, files, capsys):
        for argv in self.commands(files, files["train"], "--splits", "train,bogus"):
            assert main(argv) == 2, argv
            assert "unknown split 'bogus'" in capsys.readouterr().err
        for argv in self.commands(files, files["train"], "--splits", " ,"):
            assert main(argv) == 2, argv
            assert "--splits names no split" in capsys.readouterr().err
        assert not os.path.exists(os.path.dirname(files["out"]))

    def test_empty_selection_names_the_files_splits(self, files, tmp_path, capsys):
        # Train's default, train and validation, holds nothing in an
        # all-test file: it must not train on the test split instead.
        train, predict, evaluate = self.commands(files, files["test"])
        assert main(train) == 2
        err = capsys.readouterr().err
        assert "holds no reports in train, validation (its splits: test)" in err
        for argv in self.commands(files, files["test"], "--splits", "Dev"):
            assert main(argv) == 2, argv
            assert "holds no reports in validation (its splits: test)" in capsys.readouterr().err
        # predict's and eval's default, every split, holds nothing in a
        # file without reports.
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        for argv in self.commands(files, str(empty))[1:]:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "holds no reports in train, validation, test (its splits: none)" in err
        assert not os.path.exists(os.path.dirname(files["out"]))

    def test_aliases_select(self, files, capsys):
        os.mkdir(os.path.dirname(files["out"]))
        for argv in self.commands(files, files["test"], "--splits", "TEST,test"):
            assert main(argv) == 0, argv
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

    def test_model_with_non_schema_leaf(self, work, tmp_path, capsys):
        # Every token would be tagged FOO, which the relation scorer has
        # no feature for.
        tree = TaxonomyTree.from_edges(FOO_FIRST_EDGES)
        labels = tree.leaves + ("NONE",)
        n = len(labels)
        bias = np.zeros(n)
        bias[labels.index("FOO")] = 1.0
        tagger = TaggerParams({}, labels, 0, 1, np.zeros((1, 1)), np.zeros((1, n)), bias)
        scorer = RelationScorerParams(np.zeros((FEATURE_DIM, len(OUTPUT_KINDS))))
        model, pred = tmp_path / "foo_model.json", tmp_path / "p.json"
        save_model(str(model), tree, tagger, relations=scorer)
        assert main(["predict", str(model), str(work["data"]), "-o", str(pred)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "FOO" in err and "Traceback" not in err
        assert not pred.exists()

    def test_non_finite_model(self, work, tmp_path, capsys):
        doc = json.loads(work["model"].read_text())
        doc["tagger"]["bias"][0] = float("nan")
        bad = tmp_path / "nanmodel.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", str(bad), str(work["data"]), "-o", str(tmp_path / "p.json")]) == 2
        capsys.readouterr()


class TestPredictReader:
    """``predict`` reads only what it predicts from: the doc id, text,
    tokens, split and source of each selected record.  Its prediction
    file, exit code and stderr are those of the path through report
    graphs (``oracles.reference_predict``), which loads each selected
    record whole and swaps its gold entities and relations out."""

    @staticmethod
    def run_both(model, data, splits=None, single_token=False):
        """(exit code, stderr, file bytes or None) of ``predict`` and of
        the reference, which reports errors as ``main`` does."""
        flags = (["--splits", splits] if splits else []) + (
            ["--single-token"] if single_token else [])
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got.json"), os.path.join(tmp, "want.json")
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["predict", str(model), str(data), *flags, "-o", got])
            outcomes.append((code, err.getvalue()))
            try:
                reference_predict(str(model), str(data), want, cli._parse_splits(splits),
                                  single_token)
                outcomes.append((0, ""))
            except (FileUnreadable, OSError) as exc:
                outcomes.append((1, f"error: {exc}\n"))
            except HierGraphError as exc:
                outcomes.append((2, f"invalid: {exc}\n"))
            return [
                (*outcome, Path(path).read_bytes() if os.path.exists(path) else None)
                for outcome, path in zip(outcomes, (got, want))
            ]

    def assert_predicts_as_reference(self, model, data, splits=None, single_token=False):
        got, want = self.run_both(model, data, splits, single_token)
        assert got == want
        return got

    @pytest.mark.parametrize("single_token", [False, True])
    @pytest.mark.parametrize("splits", [None, "test", "train,dev"])
    @pytest.mark.parametrize("data", ["small", "corpus"])
    def test_fixtures(self, data, splits, single_token, work, small_path):
        path = small_path if data == "small" else work["data"]
        code, err, written = self.assert_predicts_as_reference(
            work["model"], path, splits, single_token)
        # The training corpus holds no test report.
        if (data, splits) == ("corpus", "test"):
            assert code == 2 and "holds no reports in test (its splits: train)" in err
        else:
            assert code == 0 and written

    @settings(max_examples=100, deadline=None)
    @given(st.lists(records(), max_size=4), st.sampled_from([None, "train", "test", "dev,test"]))
    def test_drawn_files(self, work, drawn, splits):
        """Files whose records may break any loading rule, inside or
        outside the selection."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.json")
            with open(path, "w") as fh:
                json.dump({f"r{i}": record for i, record in enumerate(drawn)}, fh)
            self.assert_predicts_as_reference(work["model"], path, splits)

    def test_record_only_the_loader_accepts(self, work, tmp_path):
        """A relation target written as a number fails the key reader's
        test but loads: inside the selection it is predicted from its
        graph, outside it does not stop ``predict``."""
        numeric = {"text": "no new effusion", "split": "test", "entities": {
            "7": {"tokens": "effusion", "label": "OBS-DA", "start_ix": 2, "end_ix": 2},
            "b": {"tokens": "new", "label": "CHAN-NC", "start_ix": 1, "end_ix": 1,
                  "relations": [["modify", 7]]},
        }}
        assert schema._record_keys("n", schema._record_head("n", numeric)) is None
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"t": {"text": "clear effusion", "split": "train"},
                                    "n": numeric}))
        for splits in (None, "test", "train"):
            code, _, written = self.assert_predicts_as_reference(work["model"], path, splits)
            assert code == 0
            assert list(json.loads(written)) == ["_meta"] + (["t"] if splits != "test" else []) + (
                ["n"] if splits != "train" else [])

    BAD_FILES = {
        "missing": None,
        "empty": "{}",
        "not-json": "{",
        "not-an-object": "[]",
        "head-error": '{"a": {"text": 3}}',
        "unknown-split": '{"a": {"text": "x", "split": "bogus"}}',
        "selected-structural": '{"a": {"text": "x", "split": "test", "entities": '
                               '{"e": {"tokens": "y", "label": "OBS-DP", "start_ix": 0, '
                               '"end_ix": 0}}}}',
        "unselected-structural": '{"a": {"text": "x", "split": "train", "entities": '
                                 '{"e": {"tokens": "x", "label": "FOO", "start_ix": 0, '
                                 '"end_ix": 0}}}, "b": {"text": "x", "split": "test"}}',
        "unselected-malformed": '{"a": {"text": "x", "split": "train", "entities": '
                                '{"e": {"tokens": "x", "label": "OBS-DP", "start_ix": true, '
                                '"end_ix": 0}}}, "b": {"text": "x", "split": "test"}}',
    }

    @pytest.mark.parametrize("name", BAD_FILES)
    def test_bad_files(self, name, work, tmp_path):
        path = tmp_path / "data.json"
        if self.BAD_FILES[name] is not None:
            path.write_text(self.BAD_FILES[name])
        for splits in (None, "test"):
            code, err, written = self.assert_predicts_as_reference(work["model"], path, splits)
            assert code in (1, 2) and err and written is None, (splits, err)

    def test_head_reads(self, work, small_path, tmp_path, monkeypatch):
        """Each record's head is read once, selected or not."""
        reports = load_dataset(small_path).reports
        assert {"train", "test"} <= {r.split for r in reports}
        reads, head = Counter(), schema._record_head

        def counted(doc_id, record):
            reads[doc_id] += 1
            return head(doc_id, record)

        monkeypatch.setattr(schema, "_record_head", counted)
        monkeypatch.setattr(corpus, "_record_head", counted)
        for splits in ([], ["--splits", "test"]):
            reads.clear()
            argv = ["predict", str(work["model"]), small_path, *splits,
                    "-o", str(tmp_path / "pred.json")]
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            assert reads == {r.doc_id: 1 for r in reports}


class TestEvalChildProcess:
    """``eval`` loads the prediction file in a forked child.  Its output
    and every error match a load in the process itself, and no child
    outlives ``main``."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children forked, with two CPUs usable."""
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return pids

    @staticmethod
    def assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @pytest.fixture(scope="class")
    def noisy(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("noisy")
        gold = make_random_corpus(n_reports=200, seed=3)
        save_dataset(gold, str(root / "gold.json"))
        save_dataset(perturb_predictions(gold, seed=4), str(root / "pred.json"))
        return str(root / "gold.json"), str(root / "pred.json")

    @pytest.mark.parametrize("mode", EVAL_MODES)
    @pytest.mark.parametrize("grouped", [[], ["--grouped"]], ids=["", "grouped"])
    def test_fork_and_in_process_agree(self, mode, grouped, noisy, forks, monkeypatch, capsys):
        argv = ["eval", *noisy, "--json", "--mode", mode, *grouped]
        assert main(argv) == 0
        forked = capsys.readouterr().out
        assert len(forks) == 1
        self.assert_reaped(forks)
        monkeypatch.delattr(os, "fork")
        assert main(argv) == 0
        assert capsys.readouterr().out == forked
        assert len(forks) == 1

    @staticmethod
    def bad_file(kind, tmp_path, small_path):
        path = tmp_path / f"{kind}.json"
        doc = json.loads(Path(small_path).read_text())
        if kind == "not-json":
            path.write_text("{")
        elif kind == "malformed":
            path.write_text(json.dumps({"d": []}))
        elif kind == "invalid":
            next(iter(doc["mimic-1"]["entities"].values()))["end_ix"] = 999
            path.write_text(json.dumps(doc))
        elif kind == "other-tokens":
            doc["mimic-1"]["text"] += " more"
            path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "gold_kind, pred_kind, splits",
        [
            ("ok", "ok", None),
            ("ok", "ok", "validation"),
            ("missing", "ok", None),
            ("not-json", "ok", None),
            ("malformed", "ok", None),
            ("invalid", "ok", None),
            ("ok", "missing", None),
            ("ok", "not-json", None),
            ("ok", "malformed", None),
            ("ok", "invalid", None),
            ("ok", "other-tokens", None),
            ("not-json", "invalid", None),
            ("invalid", "missing", None),
            ("malformed", "not-json", None),
        ],
    )
    def test_outcome_matches_in_process_load(
        self, gold_kind, pred_kind, splits, small_path, tmp_path, forks, monkeypatch, capsys
    ):
        gold = small_path if gold_kind == "ok" else self.bad_file(gold_kind, tmp_path, small_path)
        pred = small_path if pred_kind == "ok" else self.bad_file(pred_kind, tmp_path, small_path)
        argv = ["eval", gold, pred] + (["--splits", splits] if splits else [])
        code = main(argv)
        forked = (code, *capsys.readouterr())
        assert len(forks) == 1
        self.assert_reaped(forks)
        monkeypatch.delattr(os, "fork")
        assert (main(argv), *capsys.readouterr()) == forked
        # Gold is read first, so its error wins.
        wins = gold_kind if gold_kind != "ok" else pred_kind
        err = forked[2]
        if wins == "ok":
            assert code == 0 and err == ""
            return
        assert code == (1 if wins == "missing" else 2)
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        path = gold if gold_kind != "ok" else pred
        assert {
            "missing": path,
            "not-json": f"invalid JSON in {path}",
            "malformed": "d: record is not an object",
            "invalid": "mimic-1: [span_bounds]",
            "other-tokens": "mimic-1: token sequences differ",
        }[wins] in err

    def test_empty_gold_selection(self, tmp_path, forks, capsys):
        test_only = tmp_path / "test.json"
        save_dataset(make_separable_corpus(n_reports=4, seed=1, split="test"), str(test_only))
        assert main(["eval", str(test_only), str(test_only), "--splits", "train"]) == 2
        assert "holds no reports in train" in capsys.readouterr().err
        assert len(forks) == 1
        self.assert_reaped(forks)

    def test_child_dies_without_result(self, small_path, forks, monkeypatch, capsys):
        parent, read = os.getpid(), evaluation.read_match_keys

        def read_or_die(path, splits):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read(path, splits)

        monkeypatch.setattr(evaluation, "read_match_keys", read_or_die)
        assert main(["eval", small_path, small_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "killed by signal 9" in err
        assert len(forks) == 1
        self.assert_reaped(forks)

    def test_interrupted_parent_kills_child(self, small_path, forks, monkeypatch):
        parent, read = os.getpid(), evaluation.read_match_keys

        def interrupted_in_parent(path, splits):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return read(path, splits)

        monkeypatch.setattr(evaluation, "read_match_keys", interrupted_in_parent)
        with pytest.raises(KeyboardInterrupt):
            main(["eval", small_path, small_path])
        assert len(forks) == 1
        self.assert_reaped(forks)

    def test_one_cpu_loads_in_process(self, small_path, forks, monkeypatch, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main(["eval", small_path, small_path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entity_f1_micro"] == 1.0
        assert forks == []


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
        for key, value in (("batch_size", 0), ("l2", -1), ("lr_phase2", 5), ("seed", -1)):
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


class TestDeepJson:
    """JSON nested deeper than the decoder recurses exits 2 with one
    ``invalid:`` line, as any other invalid JSON does."""

    @staticmethod
    def _deep(tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 1100)
        return str(deep)

    @staticmethod
    def _invalid(capsys):
        err = capsys.readouterr().err
        assert err.startswith("invalid:") and "invalid JSON" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "DEEP"],
            ["stats", "DEEP"],
            ["train", "DEEP", "-o", "OUT"],
            ["predict", "MODEL", "DEEP", "-o", "OUT"],
            ["predict", "DEEP", "DATA", "-o", "OUT"],
            ["eval", "DEEP", "DATA"],
            ["eval", "DATA", "DEEP"],
            ["kappa", "DEEP", "DATA"],
            ["kappa", "DATA", "DEEP"],
            ["prune", "DEEP", "-o", "OUT"],
            ["export-dot", "DEEP", "--doc", "d"],
        ],
        ids=" ".join,
    )
    def test_command(self, argv, work, tmp_path, capsys):
        out = tmp_path / "out.json"
        paths = {"DEEP": self._deep(tmp_path), "DATA": work["data"], "MODEL": work["model"], "OUT": out}
        assert main([str(paths.get(arg, arg)) for arg in argv]) == 2
        self._invalid(capsys)
        assert not out.exists()


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

    def test_chain_deeper_than_recursion_limit(self, tmp_path, capsys):
        depth = sys.getrecursionlimit() + 100
        lines = ["ROOT n0", "ROOT other"] + [f"n{i} n{i + 1}" for i in range(depth - 1)]
        chain = tmp_path / "chain.txt"
        chain.write_text("\n".join(lines) + "\n")
        code = main(["loss-check", "--taxonomy", str(chain), "--trials", "2"])
        assert code in (0, 3)
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, code",
    [
        # train rejects a setting as invalid (2) before it writes anything.
        ("train", "--seed", "-1", 2),
        ("train", "--seed", "0", 0),
        ("train", "--batch-size", "-1", 2),
        ("train", "--batch-size", "0", 2),
        ("train", "--phase1-epochs", "-1", 2),
        ("train", "--phase1-epochs", "0", 0),
        ("train", "--phase2-epochs", "-1", 2),
        ("train", "--phase2-epochs", "0", 0),
        # loss-check's flags are usage errors (1).
        ("loss-check", "--trials", "-1", 1),
        ("loss-check", "--trials", "0", 1),
        ("loss-check", "--seed", "-1", 1),
        ("loss-check", "--seed", "0", 0),
    ],
)
def test_numeric_flags_at_their_bounds(command, flag, value, code, work, tmp_path, capsys):
    out = tmp_path / "model.json"
    argv = {
        "train": ["train", str(work["data"]), "--phase1-epochs", "1", "--phase2-epochs", "1",
                  "--splits", "train", "-o", str(out)],
        "loss-check": ["loss-check", "--trials", "2"],
    }[command]
    assert main(argv + [flag, value]) == code
    err = capsys.readouterr().err
    written = sorted(path.name for path in tmp_path.iterdir())
    if code == 0:
        assert written == (["model.json", "model.json.metrics.jsonl"] if command == "train" else [])
    else:
        assert written == []
        assert len(err.splitlines()) == 1, err
        assert err.startswith("invalid:" if code == 2 else "error:"), err


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


def test_readme_synopsis_matches_parser():
    """Each ``hiergraph`` line of README's "Command line" block names one
    subcommand and exactly the flags the parser gives it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = re.sub(r"\\\n\s*", " ", block).splitlines()
    documented = {}
    for line in lines:
        words = line.split("#", 1)[0].split()
        assert words[0] == "hiergraph", line
        documented[words[1]] = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", " ".join(words[2:])))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(documented) == sorted(sub.choices)
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        for flag in documented[name]:
            assert flag in parser._option_string_actions, (name, flag)
        # Every flag of the parser appears under one of its spellings.
        for action in actions:
            assert documented[name] & set(action.option_strings), (name, action.option_strings)


# The radgraph2_depth3 tree with one leaf outside the schema declared
# first, so that an untrained tagger tags every token with it.
FOO_FIRST_EDGES = [("ROOT", "FOO"), *load_taxonomy("radgraph2_depth3").edges]

# Node names a drawn taxonomy uses: the schema's groups and labels, one
# name outside the schema, and the tagger's non-entity label.
TAXONOMY_NAMES = GROUPS + ("CHAN-CON", "CHAN-DEV") + ENTITY_LABELS + ("FOO", "NONE")


def _config_text(edges) -> str:
    return "".join(f"{parent} {child}\n" for parent, child in edges)


@st.composite
def taxonomy_edges(draw):
    """A small edge list; each child hangs from ROOT or an earlier child,
    or, now and then, from any name."""
    children = draw(st.lists(st.sampled_from(TAXONOMY_NAMES), min_size=1, max_size=8,
                             unique=draw(st.booleans())))
    edges = []
    for i, child in enumerate(children):
        parents = ("ROOT", *children[:i]) if draw(st.integers(0, 4)) else TAXONOMY_NAMES
        edges.append((draw(st.sampled_from(parents)), child))
    return edges


@st.composite
def dataset_files(draw):
    """A valid dataset file, whose first report is in the train split,
    and a mutated copy of it, as bytes."""
    clean = {f"r{i}": draw(valid_records()) for i in range(draw(st.integers(1, 3)))}
    clean["r0"]["split"] = "train"
    doc = json.loads(json.dumps(clean))
    for doc_id in draw(st.lists(st.sampled_from(sorted(doc)), max_size=3)):
        draw(st.sampled_from(MUTATIONS))(draw, doc[doc_id])
    shape = draw(st.integers(0, 9))
    if shape == 0:
        doc = draw(st.sampled_from([d for d in JUNK if not isinstance(d, dict)]))
    elif shape == 1:
        doc["_meta"] = draw(junk)
    elif shape == 2:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(junk)
    data = json.dumps(doc).encode()
    damage = draw(st.integers(0, 9))
    if damage == 0:
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif damage == 1:
        data = b"\xff\xfe" + data
    return json.dumps(clean).encode(), data


# Values of each train setting: ones train accepts and ones it rejects.
# Every accepted --lr-phase1 exceeds every
# accepted --lr-phase2; a rejected --lr-phase2 of 1e9 exceeds them all.
TRAIN_SETTINGS = {
    "--phase1-epochs": (("0", "1"), ("-1",)),
    "--phase2-epochs": (("0", "1"), ("-1",)),
    "--lr-phase1": (("0.1", "0.5"), ("0", "-1", "nan", "inf")),
    "--lr-phase2": (("0.001", "0.02"), ("0", "-0.5", "nan", "inf", "1e9")),
    "--seed": (("0", "3"), ("-1",)),
    "--batch-size": (("1", "8"), ("0", "-2")),
    "--l2": (("0", "0.01"), ("-1", "nan", "inf")),
    "--distance-cap": (("0", "20"), ("-1",)),
}


@st.composite
def train_settings(draw):
    """Flags for train, and whether the parser refuses them and whether
    train rejects them: some accepted values, then up to two rejected
    ones (the last value of a flag counts), now and then a value the
    parser refuses.  ``--flat`` drops --phase1-epochs."""
    flat = draw(st.booleans())
    flags = ["--flat"] if flat else []
    for flag, (accepted, _) in TRAIN_SETTINGS.items():
        if draw(st.booleans()):
            flags += [flag, draw(st.sampled_from(accepted))]
    rejected = False
    for flag in draw(st.lists(st.sampled_from(sorted(TRAIN_SETTINGS)), max_size=2)):
        flags += [flag, draw(st.sampled_from(TRAIN_SETTINGS[flag][1]))]
        rejected |= not (flat and flag == "--phase1-epochs")
    refused = draw(st.integers(0, 9)) == 0
    if refused:
        flags += [draw(st.sampled_from(sorted(TRAIN_SETTINGS))), draw(st.sampled_from(["x", "", "1.5e"]))]
    return flags, refused, rejected


class TestExitCodeFuzz:
    """Mutated dataset files give a documented exit code, never a traceback."""

    @settings(max_examples=30, deadline=None)
    @given(train_settings(), dataset_files(), st.sampled_from(["missing", "damaged", "clean"]))
    def test_train_settings_and_paths(self, drawn, files, path_kind):
        """A rejected setting exits 2 whatever the data path, and no run
        leaves a file behind but a finished model and its log."""
        flags, refused, rejected = drawn
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "data.json")
            if path_kind != "missing":
                with open(data, "wb") as fh:
                    fh.write(files[path_kind == "damaged"])
            before = sorted(os.listdir(tmp))
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["train", data, *flags, "-o", os.path.join(tmp, "m.json")])
            assert "Traceback" not in err.getvalue()
            if refused or rejected:
                assert code == (1 if refused else 2), (flags, err.getvalue())
            else:
                assert code in (0, 1, 2), (flags, err.getvalue())
            left = sorted(os.listdir(tmp))
            if code == 0:
                assert left == sorted(before + ["m.json", "m.json.metrics.jsonl"])
            else:
                assert left == before, (flags, err.getvalue())

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
            # The clean file is clean: the loader accepts it.
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["stats", clean])
            assert code == 0, err.getvalue()

    @settings(max_examples=20, deadline=None)
    @given(dataset_files(), st.sampled_from([None, "train", "test", "dev,test", "bogus", ","]))
    def test_train_predict_prune_kappa_dot(self, work, files, splits):
        with tempfile.TemporaryDirectory() as tmp:
            clean, data = os.path.join(tmp, "clean.json"), os.path.join(tmp, "data.json")
            for path, content in ((clean, files[0]), (data, files[1])):
                with open(path, "wb") as fh:
                    fh.write(content)
            out = os.path.join(tmp, "out")
            pick = [] if splits is None else ["--splits", splits]
            for argv in (
                ["train", data, "--phase1-epochs", "1", "--phase2-epochs", "1", *pick,
                 "-o", out],
                ["predict", str(work["model"]), data, *pick, "-o", out],
                ["prune", data, "-o", out],
                ["kappa", clean, data],
                ["kappa", data, data],
                ["export-dot", data, "--doc", "r0"],
                ["export-dot", data, "--doc", "r0", "-o", out],
            ):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2), (argv, err.getvalue())
                assert "Traceback" not in err.getvalue()
                assert not [n for n in os.listdir(tmp) if n.endswith(".tmp")], argv


    @settings(max_examples=30, deadline=None)
    @given(taxonomy_edges())
    @example(FOO_FIRST_EDGES)
    @example(list(load_taxonomy("radgraph2_depth3").edges))
    def test_train_predict_any_taxonomy(self, edges):
        record = {
            "text": "the heart is enlarged",
            "split": "train",
            "entities": {
                "1": {"tokens": "heart", "label": "ANAT-DP", "start_ix": 1, "end_ix": 1,
                      "relations": []},
                "2": {"tokens": "enlarged", "label": "OBS-DP", "start_ix": 3, "end_ix": 3,
                      "relations": [["located_at", "1"]]},
            },
        }
        with tempfile.TemporaryDirectory() as tmp:
            data, taxonomy = os.path.join(tmp, "data.json"), os.path.join(tmp, "tax.txt")
            model, pred = os.path.join(tmp, "model.json"), os.path.join(tmp, "pred.json")
            with open(data, "w") as fh:
                json.dump({"a": record, "b": {"text": "no finding", "split": "train"}}, fh)
            with open(taxonomy, "w") as fh:
                fh.write(_config_text(edges))
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["train", data, "--taxonomy", taxonomy, "--phase1-epochs", "0",
                             "--phase2-epochs", "0", "-o", model])
                assert code in (0, 1, 2), err.getvalue()
                if code == 0:
                    assert main(["predict", model, data, "-o", pred]) == 0, err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not [n for n in os.listdir(tmp) if n.endswith(".tmp")]


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
        value = draw(junk)
        how = draw(st.integers(0, 3))
        if how == 0:
            del section[key]
        elif how == 1 and isinstance(section[key], list) and section[key]:
            section[key][draw(st.integers(0, len(section[key]) - 1))] = value
        else:
            section[key] = value
    data = json.dumps(doc).encode()
    damage = draw(st.integers(0, 5))
    if damage == 0:
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif damage == 1:
        data = b"\xff\xfe" + data
    return data


@st.composite
def clean_eval_files(draw):
    """A clean gold document of one to three reports, and a clean
    prediction document of the same reports in which each entity is
    kept, relabelled, or dropped together with its relations."""
    gold = {f"r{i}": draw(valid_records()) for i in range(draw(st.integers(1, 3)))}
    pred = json.loads(json.dumps(gold))
    for record in pred.values():
        entities = record["entities"]
        for eid in sorted(entities):
            how = draw(st.integers(0, 2))
            if how == 1:
                entities[eid]["label"] = draw(st.sampled_from(ENTITY_LABELS))
            elif how == 2:
                del entities[eid]
        for ent in entities.values():
            ent["relations"] = [rel for rel in ent["relations"] if rel[1] in entities]
    return gold, pred


def _scored(doc: dict, mode: str) -> tuple[int, int]:
    """How many entities and relations of a clean document ``mode`` scores."""
    kept = lambda ent: mode == "radgraph2" or not ent["label"].startswith("CHAN")
    entities = relations = 0
    for record in doc.values():
        ents = record["entities"]
        entities += sum(map(kept, ents.values()))
        relations += sum(
            kept(ent) and kept(ents[target])
            for ent in ents.values()
            for _, target in ent["relations"]
        )
    return entities, relations


class TestEvalSuccessFuzz:
    """On clean files, ``eval`` gives the scores that follow from what the
    files hold: all through ``main``.  It runs with one usable CPU, so in
    one process, which keeps each run cheap; TestEvalChildProcess checks
    that the forked read gives the same output."""

    @settings(max_examples=60, deadline=None)
    @given(clean_eval_files())
    def test_eval_invariants(self, files):
        gold_doc, pred_doc = files
        one_cpu = mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True)
        with one_cpu, tempfile.TemporaryDirectory() as tmp:
            gold, pred, reversed_pred, pruned_gold, pruned_pred = (
                os.path.join(tmp, f"{name}.json")
                for name in ("gold", "pred", "reversed", "pruned-gold", "pruned-pred")
            )
            for path, doc in (
                (gold, gold_doc),
                (pred, pred_doc),
                (reversed_pred, dict(reversed(pred_doc.items()))),
            ):
                with open(path, "w") as fh:
                    json.dump(doc, fh)

            def run(*argv) -> str:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    assert main(list(argv)) == 0, (argv, err.getvalue())
                return out.getvalue()

            for mode in EVAL_MODES:
                scores = json.loads(run("eval", gold, gold, "--mode", mode, "--json"))
                entities, relations = _scored(gold_doc, mode)
                assert scores["entity_f1_micro"] == scores["entity_f1_macro"] == (
                    1.0 if entities else 0.0
                )
                assert scores["relation_f1_micro"] == scores["relation_f1_macro"] == (
                    1.0 if relations else 0.0
                )
                for flags in (["--grouped"], ["--json"]):
                    argv = ("--mode", mode, *flags)
                    assert run("eval", gold, reversed_pred, *argv) == run("eval", gold, pred, *argv)

            run("prune", gold, "-o", pruned_gold)
            run("prune", pred, "-o", pruned_pred)
            for flags in ([], ["--json"]):
                argv = ("--mode", "radgraph1-common", *flags)
                assert run("eval", pruned_gold, pruned_pred, *argv) == run("eval", gold, pred, *argv)


@st.composite
def clean_train_files(draw):
    """A clean document of two to five reports, at least one of them in
    each of the train and test splits, in drawn order."""
    doc = {f"r{i}": draw(valid_records()) for i in range(draw(st.integers(2, 5)))}
    first, second = draw(st.sampled_from([("r0", "r1"), ("r1", "r0")]))
    doc[first]["split"], doc[second]["split"] = "train", "test"
    return doc


class TestTrainPredictSuccessFuzz:
    """On clean files, ``train`` and ``predict`` do what they promise,
    all through ``main``: one seed gives one model and one log, and the
    predictions cover exactly the selected reports, keep their tokens
    and pass ``validate``."""

    @settings(max_examples=15, deadline=None)
    @given(clean_train_files(), st.integers(0, 2**32 - 1), st.booleans())
    def test_train_twice_then_predict(self, doc, seed, single_token):
        with tempfile.TemporaryDirectory() as tmp:
            data, pred = os.path.join(tmp, "data.json"), os.path.join(tmp, "pred.json")
            with open(data, "w") as fh:
                json.dump(doc, fh)

            def run(*argv):
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    assert main(list(argv)) == 0, (argv, err.getvalue())

            written = []
            for name in ("a.json", "b.json"):
                model = os.path.join(tmp, name)
                run("train", data, "--splits", "train", "--seed", str(seed),
                    "--phase1-epochs", "2", "--phase2-epochs", "1", "-o", model)
                written.append(
                    [Path(path).read_bytes() for path in (model, f"{model}.metrics.jsonl")]
                )
            assert written[0] == written[1]

            run("predict", os.path.join(tmp, "a.json"), data, "--splits", "test",
                *(["--single-token"] if single_token else []), "-o", pred)
            with open(pred) as fh:
                predicted = json.load(fh)
            predicted.pop("_meta")
            assert list(predicted) == [d for d, r in doc.items() if r["split"] == "test"]
            for doc_id, record in predicted.items():
                assert record["text"].split() == doc[doc_id]["text"].split()
            run("validate", pred)


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


@pytest.mark.parametrize("command", ["validate", "stats", "eval", "train", "predict"])
def test_collector_state_restored(command, small_path, work, tmp_path, capsys):
    argv = {
        "eval": ["eval", small_path, small_path],
        "train": ["train", small_path, "--phase1-epochs", "1", "--phase2-epochs", "1",
                  "-o", str(tmp_path / "model.json")],
        "predict": ["predict", str(work["model"]), str(work["data"]),
                    "-o", str(tmp_path / "pred.json")],
    }.get(command, [command, small_path])
    gc.disable()
    try:
        assert main(argv) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert main(argv) == 0
    assert gc.isenabled()
    capsys.readouterr()


def test_commands_run_with_collector_paused(small_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_cmd_stats", lambda args: seen.append(gc.isenabled()) or 0)
    assert main(["stats", small_path]) == 0
    assert seen == [False]
    assert gc.isenabled()


class TestExitFreeze:
    """A process that runs its own command line (``main()`` on
    ``sys.argv``) freezes the heap in an exit handler, so the shutdown
    collections skip it; the exit handlers registered before ``main``
    still run, after it.  An in-process caller (``main(argv)``) keeps its
    collector as it was."""

    ROOT = Path(__file__).resolve().parents[1]
    # Runs the command line after it, then reports at exit whether the
    # heap was frozen by then.
    LAUNCH = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "from hiergraph.cli import main\n"
        "sys.exit(main())\n"
    )

    def launch(self, code, argv, **environ):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"), **environ)
        return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)

    @staticmethod
    def commands(work, small_path, out):
        model = out / "model.json"
        return {
            "train": ["train", small_path, "--phase1-epochs", "1", "--phase2-epochs", "1",
                      "-o", model],
            "predict": ["predict", work["model"], work["data"], "-o", out / "pred.json"],
            "eval": ["eval", small_path, small_path, "--json", "-o", out / "eval.json"],
            "predict-empty": ["predict", work["model"], work["data"], "--splits", "test",
                              "-o", out / "pred.json"],
            "usage": ["frobnicate"],
        }

    @pytest.mark.parametrize("command", ["stats", "predict"])
    def test_in_process_main_registers_no_hook(self, command, small_path, work, tmp_path,
                                               monkeypatch, capsys):
        argv = {"stats": ["stats", small_path],
                "predict": ["predict", str(work["model"]), str(work["data"]),
                            "-o", str(tmp_path / "pred.json")]}[command]
        # The hook is registered once per process, so a call that asked
        # for it after another had would register nothing new: count the
        # requests too.
        registered = []
        monkeypatch.setattr("atexit.register", lambda *args: registered.append(args))
        monkeypatch.setattr(cli, "_freeze_at_exit", lambda: registered.append("requested"))
        frozen = gc.get_freeze_count()
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                assert main(argv) == 0
                assert gc.isenabled() is enabled
            finally:
                gc.enable()
        assert registered == []
        assert gc.get_freeze_count() == frozen
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["train", "predict", "eval", "predict-empty", "usage"])
    def test_own_command_line_freezes_at_exit(self, command, small_path, work, tmp_path,
                                              capsys):
        """Exit code, stderr and output files are those of ``main(argv)``
        in process."""
        outs = [tmp_path / "child", tmp_path / "in-process"]
        for out in outs:
            out.mkdir()
        done = self.launch(self.LAUNCH, self.commands(work, small_path, outs[0])[command])
        *err, frozen = done.stderr.splitlines(keepends=True)
        assert frozen == "frozen: True\n"
        capsys.readouterr()
        argv = [str(a) for a in self.commands(work, small_path, outs[1])[command]]
        assert (done.returncode, "".join(err)) == (main(argv), capsys.readouterr().err)
        files = [{p.name: p.read_bytes() for p in out.iterdir()} for out in outs]
        assert files[0] == files[1]
        assert bool(files[0]) == (done.returncode == 0)

    def test_one_hook_per_process(self, small_path):
        done = self.launch(
            "import atexit, gc\n"
            "hooks, register = [], atexit.register\n"
            "atexit.register = lambda func, *args: hooks.append(func) or register(func, *args)\n"
            "from hiergraph.cli import main\n"
            "codes = [main(), main()]\n"
            "print(codes, hooks == [gc.freeze])\n",
            ["stats", small_path],
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[0, 0] True"

    def test_eval_child_runs_no_exit_handler(self, small_path, tmp_path):
        """``eval``'s forked child reads its file and ends through
        ``os._exit``: of the processes that read, only the parent runs
        exit handlers."""
        log = tmp_path / "log.txt"
        done = self.launch(
            "import atexit, os, sys\n"
            "def note(what):\n"
            "    with open(os.environ['EXIT_LOG'], 'a') as fh:\n"
            "        fh.write(f'{what} {os.getpid()}\\n')\n"
            "atexit.register(note, 'exit')\n"
            "from hiergraph import evaluation\n"
            "read = evaluation.read_match_keys\n"
            "evaluation.read_match_keys = lambda *args: note('read') or read(*args)\n"
            "from hiergraph.cli import main\n"
            "sys.exit(main())\n",
            ["eval", small_path, small_path],
            EXIT_LOG=str(log),
        )
        assert done.returncode == 0, done.stderr
        lines = [line.split() for line in log.read_text().splitlines()]
        readers = {pid for what, pid in lines if what == "read"}
        exits = [pid for what, pid in lines if what == "exit"]
        assert len(exits) == 1 and exits[0] in readers
        assert len(readers) == (2 if cli._usable_cpus() >= 2 else 1)


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
