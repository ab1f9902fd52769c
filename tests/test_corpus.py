"""Tokenizer, dataset IO, label statistics, and agreement."""

import json
import os
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergraph import (
    Dataset,
    DocMismatch,
    EmptyDataset,
    FileUnreadable,
    HierGraphError,
    LengthMismatch,
    MalformedRecord,
    OverlapConflict,
    ValidationError,
    cohens_kappa,
    dataset_kappa,
    label_statistics,
    load_dataset,
    parse_report,
    save_dataset,
    serialize_report,
    to_token_labeling,
    tokenize,
    validate_graph,
)
from hiergraph import cli, corpus, evaluation, schema
from hiergraph.cli import main
from hiergraph.corpus import ENTITY_ROWS, atomic_write, parse_dataset
from hiergraph.schema import Entity, ReportGraph
from hiergraph.synth import (
    make_random_corpus,
    make_separable_corpus,
    perturb_predictions,
)

from mutations import records
from oracles import reference_dataset_text, reference_load_selected

# Strings JSON must escape or may pass through: quotes, backslashes,
# control characters, non-ASCII text and U+2028, which JavaScript reads
# as a line break.
_ESCAPED_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\n\t\x00é雪\u2028\u2029\U0001f600 a'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)


def _text_report(doc_id: str, text: str) -> ReportGraph:
    """A report whose first token, if any, is an entity."""
    tokens = tuple(text.split())
    entities = {"1": Entity("1", tokens[0], 0, 0, "ANAT-DP")} if tokens else {}
    return ReportGraph(doc_id, text, tokens, "test", "synthetic", entities, ())


class TestTokenize:
    def test_trailing_period(self):
        assert tokenize("no change.") == ["no", "change", "."]

    def test_punctuation_kinds(self):
        assert tokenize("(see note):") == ["(", "see", "note", ")", ":"]
        assert tokenize("a, b; c?") == ["a", ",", "b", ";", "c", "?"]
        assert tokenize("done!") == ["done", "!"]

    def test_hyphens_kept(self):
        assert tokenize("post-surgical changes") == ["post-surgical", "changes"]

    def test_abbreviation(self):
        assert tokenize("q.d.") == ["q", ".", "d", "."]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_spans_index_whitespace_tokens(self):
        # Loading splits ``text`` on whitespace only; ``tokenize`` splits
        # raw text into tokens that, joined by spaces, make such a text.
        raw = "the heart is enlarged."
        assert parse_report("d", {"text": raw}).tokens == ("the", "heart", "is", "enlarged.")
        tokens = tokenize(raw)
        assert tokens == ["the", "heart", "is", "enlarged", "."]
        assert parse_report("d", {"text": " ".join(tokens)}).tokens == tuple(tokens)

    def test_no_empty_tokens_and_concat_invariant(self):
        rng = np.random.default_rng(0)
        alphabet = list("ab .,;:?!()xy-")
        for _ in range(200):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 40)))
            tokens = tokenize(text)
            assert all(tokens), text
            joined = "".join(tokens)
            assert joined == "".join(text.split()), text


class TestDataset:
    def test_load_fixture(self, small_ds):
        assert len(small_ds) == 6
        assert [(r.doc_id, r.split) for r in small_ds.reports] == [
            ("mimic-1", "train"),
            ("mimic-2", "validation"),
            ("mimic-3", "test"),
            ("chex-1", "test"),
            ("chex-2", "test"),
            ("synth-1", "train"),
        ]

    def test_partitions_follow_reports(self, small_ds):
        test_only = small_ds.subset("test")
        assert len(test_only.subset(["train", "validation"])) == 0
        assert test_only.subset("test").reports == test_only.reports
        whole = small_ds.subset(["train", "validation", "test"])
        assert whole.reports == small_ds.reports

    def test_by_id_and_subset(self, small_ds):
        by_id = small_ds.by_id()
        assert by_id["chex-2"].source == "CheXpert"
        test_only = small_ds.subset("test")
        assert [r.doc_id for r in test_only.reports] == ["mimic-3", "chex-1", "chex-2"]
        pair = small_ds.subset(["train", "validation"])
        assert {r.split for r in pair.reports} == {"train", "validation"}

    def test_meta_key_skipped(self, small_path):
        doc = json.load(open(small_path))
        doc["_meta"] = {"version": "x"}
        ds = parse_dataset(doc)
        assert len(ds) == 6

    def test_structural_error_aborts(self, small_path):
        doc = json.load(open(small_path))
        doc["mimic-1"]["entities"]["1"]["end_ix"] = 99
        with pytest.raises(ValidationError, match="mimic-1"):
            parse_dataset(doc)

    def test_signature_error_loads(self, small_path):
        doc = json.load(open(small_path))
        # located_at out of an anatomy entity: semantic, not structural.
        doc["chex-1"]["entities"]["1"]["relations"] = [["located_at", "2"]]
        doc["chex-1"]["entities"]["2"]["relations"] = []
        ds = parse_dataset(doc)
        bad = ds.by_id()["chex-1"]
        assert any(v.rule == "bad_signature" for v in validate_graph(bad))

    def test_first_structural_error_after_signature_error(self, small_path):
        doc = json.load(open(small_path))
        # An ANAT -> OBS located_at (bad_signature), then a dangling target.
        doc["chex-1"]["entities"]["1"]["relations"] = [
            ["located_at", "2"],
            ["modify", "99"],
        ]
        graph = parse_report("chex-1", doc["chex-1"])
        rules = [v.rule for v in validate_graph(graph)]
        assert rules.index("bad_signature") < rules.index("dangling_relation")
        with pytest.raises(ValidationError) as err:
            parse_dataset(doc)
        assert str(err.value) == (
            "chex-1: [dangling_relation] 1-modify->99: endpoint '99' does not resolve"
        )

    def test_loader_keeps_non_structural_findings(self, tmp_path, capsys):
        path = str(tmp_path / "noisy.json")
        gold = make_random_corpus(n_reports=1000, seed=1)
        save_dataset(perturb_predictions(gold, seed=1), path)
        ds = load_dataset(path)
        assert len(ds) == 1000
        findings = [v for g in ds.reports for v in validate_graph(g)]
        assert len(findings) > 1000
        assert {v.rule for v in findings}.isdisjoint(schema.STRUCTURAL_RULES)
        assert main(["validate", path]) == 2
        assert len(capsys.readouterr().out.splitlines()) == len(findings)

    def test_missing_file(self):
        with pytest.raises(FileUnreadable):
            load_dataset("/nonexistent/file.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(MalformedRecord):
            load_dataset(str(p))

    def test_save_load_round_trip(self, small_ds, tmp_path):
        out = tmp_path / "copy.json"
        save_dataset(small_ds, str(out), meta={"version": "0"})
        again = load_dataset(str(out))
        assert again.by_id() == small_ds.by_id()
        assert json.load(open(out))["_meta"] == {"version": "0"}

    def test_save_layout(self, small_ds, tmp_path):
        out = tmp_path / "copy.json"
        meta = {"version": "0"}
        save_dataset(small_ds, str(out), meta=meta)
        reports = [
            f"{json.dumps(r.doc_id)}: {json.dumps(serialize_report(r))}"
            for r in small_ds.reports
        ]
        body = [f'"_meta": {json.dumps(meta)}'] + reports
        assert out.read_text() == "{\n" + ",\n".join(body) + "\n}\n"

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(_ESCAPED_TEXT, _ESCAPED_TEXT), max_size=5,
                 unique_by=lambda pair: pair[0]),
        st.one_of(st.none(), st.dictionaries(_ESCAPED_TEXT, _ESCAPED_TEXT, max_size=2)),
    )
    def test_save_equals_indented_dump(self, pairs, meta):
        """The streamed file decodes to the whole-document dump's value,
        key order included, for ids and texts that need escaping."""
        ds = Dataset([_text_report(doc_id, text) for doc_id, text in pairs if doc_id != "_meta"])
        with tempfile.TemporaryDirectory() as root:
            out = os.path.join(root, "out.json")
            save_dataset(ds, out, meta=meta)
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
        pairs_of = lambda t: json.loads(t, object_pairs_hook=list)
        assert pairs_of(text) == pairs_of(reference_dataset_text(ds, meta))

    def test_save_memory_is_one_report(self):
        """Saving streams: 2 000 short reports peak far below the
        2.4 MB the whole-document dict and its indented dump held."""
        ds = make_separable_corpus(n_reports=2000, seed=1, split="test")
        with tempfile.TemporaryDirectory() as root:
            tracemalloc.start()
            try:
                save_dataset(ds, os.path.join(root, "out.json"))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 0.5e6

    def test_loaded_reports_are_compact(self, tmp_path):
        """Loaded reports share repeated strings and carry no __dict__:
        2 000 random reports retain 1.4 MB, against 2.9 MB with a copy
        of each token, label and split string per report."""
        path = str(tmp_path / "random.json")
        save_dataset(make_random_corpus(n_reports=2000, seed=0), path)
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ds) == 2000
        assert retained < 2.0e6

    @pytest.mark.parametrize("doc_id", ["chex-1", "_meta"])
    def test_save_rejects_bad_doc_id(self, small_ds, tmp_path, doc_id):
        """A repeated or reserved doc id fails before the old file is
        replaced, and leaves no temporary file."""
        p = tmp_path / "out.json"
        p.write_text("old\n")
        bad = Dataset(small_ds.reports + [replace(small_ds.reports[0], doc_id=doc_id)])
        with pytest.raises(MalformedRecord, match=doc_id):
            save_dataset(bad, str(p))
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "bin.json"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(MalformedRecord, match="not UTF-8"):
            load_dataset(str(p))


# --splits values: every split, one split, the other, and two through an
# alias.
LOAD_SPLITS = (None, "train", "test", "dev,test")


class TestSelectedLoad:
    """``load_dataset(path, splits)`` builds graphs only for the reports
    in ``splits``; what it returns, or the error it raises, is what
    loading every report and then selecting
    (``oracles.reference_load_selected``) gives.  With every split
    selected (no ``--splits``) nothing is selected away, and an empty
    file holds no report to select, though it loads as empty when
    nothing is selected."""

    @staticmethod
    def outcome(read):
        try:
            return [(r.doc_id, r.tokens, serialize_report(r)) for r in read()]
        except HierGraphError as exc:
            return type(exc), str(exc)

    def assert_loads_as_selected(self, doc, splits_text):
        splits = cli._parse_splits(splits_text)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            got = self.outcome(lambda: load_dataset(path, splits).reports)
            want = self.outcome(lambda: reference_load_selected(path, splits))
        assert got == want
        return got

    @settings(max_examples=300, deadline=None)
    @given(st.lists(records(), max_size=4), st.sampled_from(LOAD_SPLITS))
    def test_drawn_files(self, drawn, splits_text):
        self.assert_loads_as_selected(
            {f"r{i}": record for i, record in enumerate(drawn)}, splits_text
        )

    def test_error_outside_the_selection(self, small_path):
        """A bad report outside the selected splits fails the load with
        the loader's error, after the good reports before it."""
        with open(small_path) as fh:
            doc = json.load(fh)
        held = {r.split for r in load_dataset(small_path).reports}
        assert {"train", "test"} <= held
        first = next(d for d in doc if d != "_meta" and doc[d].get("split") != "train")
        doc[first]["entities"]["zz"] = {
            "tokens": "x", "label": "FOO", "start_ix": 0, "end_ix": 0, "relations": []}
        err = self.assert_loads_as_selected(doc, "train")
        assert err[0] is ValidationError and first in err[1] and "unknown_label" in err[1]

    def test_record_only_the_loader_accepts(self):
        """A relation target written as a number names the entity whose
        id is its ``str``, for the key reader's test as for the loader,
        so a report holding one outside the selection does not stop the
        load."""
        numeric = {"text": "no new effusion", "split": "test", "entities": {
            "7": {"tokens": "effusion", "label": "OBS-DA", "start_ix": 2, "end_ix": 2},
            "b": {"tokens": "new", "label": "CHAN-NC", "start_ix": 1, "end_ix": 1,
                  "relations": [["modify", 7]]},
        }}
        assert schema._record_keys("n", schema._record_head("n", numeric)) == (
            evaluation._match_keys(corpus._loaded("n", numeric)))
        doc = {"t": {"text": "clear", "split": "train"}, "n": numeric}
        assert [r[0] for r in self.assert_loads_as_selected(doc, "train")] == ["t"]

    def test_empty_selection(self, tmp_path):
        err = self.assert_loads_as_selected({"a": {"text": "x", "split": "test"}}, "dev")
        assert err[0] is EmptyDataset
        assert err[1].endswith("data.json holds no reports in validation (its splits: test)")
        err = self.assert_loads_as_selected({}, None)
        assert err[0] is EmptyDataset
        assert err[1].endswith(
            "data.json holds no reports in train, validation, test (its splits: none)"
        )
        unselected = tmp_path / "data.json"
        unselected.write_text("{}")
        assert load_dataset(str(unselected)).reports == []

    def test_head_reads(self, small_path, monkeypatch):
        """Selecting reads each record's head once.  A record that becomes
        a graph has it read again by ``parse_report``; one outside the
        selection, or one that becomes match keys, does not."""
        reports = load_dataset(small_path).reports
        assert {"train", "test"} <= {r.split for r in reports}
        reads, head = Counter(), schema._record_head

        def counted(doc_id, record):
            reads[doc_id] += 1
            return head(doc_id, record)

        monkeypatch.setattr(schema, "_record_head", counted)
        monkeypatch.setattr(corpus, "_record_head", counted)
        load_dataset(small_path, ("train",))
        assert reads == {r.doc_id: 2 if r.split == "train" else 1 for r in reports}
        reads.clear()
        evaluation.read_match_keys(small_path, ("train",))
        assert reads == {r.doc_id: 1 for r in reports}


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        p = tmp_path / "out.json"
        p.write_text("old\n")
        with atomic_write(str(p)) as fh:
            fh.write("new\n")
        assert p.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_keeps_old_file(self, tmp_path):
        p = tmp_path / "out.json"
        p.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            with atomic_write(str(p)) as fh:
                fh.write("half ")
                fh.write("\ud800 written")
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_replace_keeps_old_file(self, small_ds, tmp_path, monkeypatch):
        p = tmp_path / "out.json"
        p.write_text("old\n")

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(small_ds, str(p))
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failure_mid_stream_keeps_old_file(self, small_ds, tmp_path, monkeypatch):
        p = tmp_path / "out.json"
        p.write_text("old\n")
        calls = []

        def third_fails(report):
            calls.append(report.doc_id)
            if len(calls) == 3:
                raise RuntimeError("serializer failed")
            return serialize_report(report)

        monkeypatch.setattr(corpus, "serialize_report", third_fails)
        with pytest.raises(RuntimeError, match="serializer failed"):
            save_dataset(small_ds, str(p))
        assert len(calls) == 3 < len(small_ds)
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]


class TestStatistics:
    def test_column_order(self, small_ds):
        stats = label_statistics(small_ds)
        assert [c.name for c in stats.columns] == [
            "train",
            "validation",
            "test/MIMIC-CXR",
            "test/CheXpert",
        ]

    def test_counts(self, small_ds):
        cols = {c.name: c for c in label_statistics(small_ds).columns}
        train = cols["train"]
        assert train.entity_counts == {
            "ANAT": 1,
            "CHAN-NC": 1,
            "OBS-DP": 1,
            "CHAN-DEV-DISA": 1,
        }
        assert train.total_entities == 4
        assert train.relation_counts == {"modify": 2}
        assert cols["validation"].entity_counts == {"OBS-DP": 2, "ANAT": 1}
        assert cols["validation"].relation_counts == {"modify": 1, "located_at": 1}
        assert cols["test/MIMIC-CXR"].entity_counts == {"OBS-DP": 2, "ANAT": 2}
        assert cols["test/CheXpert"].entity_counts == {
            "ANAT": 1,
            "OBS-DA": 1,
            "OBS-DP": 1,
            "OBS-U": 1,
        }
        assert cols["test/CheXpert"].relation_counts == {
            "located_at": 1,
            "suggestive_of": 1,
        }

    def test_percentages(self, small_ds):
        cols = {c.name: c for c in label_statistics(small_ds).columns}
        assert cols["train"].entity_pct("ANAT") == pytest.approx(25.0)
        assert cols["train"].relation_pct("modify") == pytest.approx(100.0)
        assert cols["validation"].entity_pct("OBS-DP") == pytest.approx(200.0 / 3)

    def test_anat_row_aggregates_subtree(self, small_ds):
        stats = label_statistics(small_ds)
        assert ENTITY_ROWS[0] == "ANAT"
        assert "ANAT-DP" not in ENTITY_ROWS
        for col in stats.columns:
            assert "ANAT-DP" not in col.entity_counts

    def test_json_shape(self, small_ds):
        blob = label_statistics(small_ds).to_json()
        assert blob["entity_rows"][0] == "ANAT"
        assert blob["relation_rows"] == ["modify", "located_at", "suggestive_of"]
        train = blob["columns"][0]
        assert train["name"] == "train"
        assert train["entities"]["ANAT"] == {"count": 1, "pct": 25.0}
        assert train["total_entities"] == 4
        assert train["relations"]["modify"] == {"count": 2, "pct": 100.0}

    def test_text_rendering(self, small_ds):
        text = label_statistics(small_ds).to_text()
        lines = text.splitlines()
        assert lines[0].split() == ["train", "validation", "test/MIMIC-CXR", "test/CheXpert"]
        anat_line = next(l for l in lines if l.startswith("ANAT"))
        assert "1 (25.0)" in anat_line
        assert any(l.startswith("Total Entities") for l in lines)
        assert any(l.startswith("Total Relations") for l in lines)
        # One decimal everywhere: a percentage like (25.00) never appears.
        assert "(25.00)" not in text

    def test_empty_split_absent(self, small_ds):
        stats = label_statistics(small_ds.subset("train"))
        assert [c.name for c in stats.columns] == ["train"]

    def test_sources_outside_schema_follow_by_name(self, small_ds):
        reports = [replace(r, source={"CheXpert": "Zeta"}.get(r.source, r.source))
                   for r in small_ds.reports]
        reports.append(replace(reports[0], doc_id="alpha", split="test", source="Alpha"))
        reports.insert(0, replace(reports[0], doc_id="val", split="validation"))
        stats = label_statistics(Dataset(reports))
        assert [c.name for c in stats.columns] == [
            "train",
            "validation",
            "test/MIMIC-CXR",
            "test/Alpha",
            "test/Zeta",
        ]

    def test_reports_read_once(self, small_ds):
        class CountingReports(list):
            iterations = 0

            def __iter__(self):
                self.iterations += 1
                return super().__iter__()

        reports = CountingReports(small_ds.reports)
        stats = label_statistics(Dataset(reports))
        assert reports.iterations == 1
        assert stats == label_statistics(small_ds)


class TestTokenLabeling:
    def test_projection(self, small_ds):
        lab = to_token_labeling(small_ds.by_id()["mimic-2"])
        assert lab.labels == (
            "OBS-DP",
            "OBS-DP",
            "NONE",
            "NONE",
            "ANAT-DP",
            "ANAT-DP",
            "ANAT-DP",
            "NONE",
        )

    def test_no_entities_all_none(self):
        g = parse_report("d", {"text": "all clear today"})
        assert to_token_labeling(g).labels == ("NONE",) * 3

    def test_same_label_overlap_merges(self):
        rec = {
            "text": "right lower lobe",
            "entities": {
                "1": {"tokens": "right lower", "label": "ANAT-DP", "start_ix": 0, "end_ix": 1, "relations": []},
                "2": {"tokens": "lower lobe", "label": "ANAT-DP", "start_ix": 1, "end_ix": 2, "relations": []},
            },
        }
        lab = to_token_labeling(parse_report("d", rec))
        assert lab.labels == ("ANAT-DP", "ANAT-DP", "ANAT-DP")

    def test_conflicting_overlap_raises(self):
        rec = {
            "text": "right lower lobe",
            "entities": {
                "1": {"tokens": "right lower", "label": "ANAT-DP", "start_ix": 0, "end_ix": 1, "relations": []},
                "2": {"tokens": "lower", "label": "OBS-DP", "start_ix": 1, "end_ix": 1, "relations": []},
            },
        }
        with pytest.raises(OverlapConflict, match="token 1"):
            to_token_labeling(parse_report("d", rec))


class TestKappa:
    def test_identical_is_exactly_one(self):
        rng = np.random.default_rng(2)
        labels = list(rng.choice(["A", "B", "C"], size=57))
        assert cohens_kappa(labels, list(labels)) == 1.0

    def test_single_label_identical(self):
        assert cohens_kappa(["A", "A", "A"], ["A", "A", "A"]) == 1.0

    def test_half_half_is_zero(self):
        k = cohens_kappa(["A", "A", "B", "B"], ["A", "B", "A", "B"])
        assert abs(k) <= 1e-9

    def test_hand_worked_value(self):
        # p_o = 2/3, p_e = 4/9, kappa = (2/9)/(5/9) = 0.4
        k = cohens_kappa(["x", "x", "y"], ["x", "y", "y"])
        assert k == pytest.approx(0.4, abs=1e-12)

    def test_disjoint_labels_negative(self):
        k = cohens_kappa(["A", "B"], ["B", "A"])
        assert k < 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cohens_kappa(["A"], ["A", "B"])
        with pytest.raises(LengthMismatch):
            cohens_kappa([], [])

    def test_dataset_kappa_self(self, small_ds):
        assert dataset_kappa(small_ds, small_ds) == 1.0

    def test_dataset_kappa_perturbed(self, small_path):
        ds_a = load_dataset(small_path)
        doc = json.load(open(small_path))
        doc["chex-1"]["entities"]["2"]["label"] = "OBS-U"
        ds_b = parse_dataset(doc)
        k = dataset_kappa(ds_a, ds_b)
        assert 0.0 < k < 1.0

    def test_dataset_kappa_doc_mismatch(self, small_ds):
        other = Dataset([r for r in small_ds.reports if r.doc_id != "chex-2"])
        with pytest.raises(DocMismatch, match="chex-2"):
            dataset_kappa(small_ds, other)

    def test_kappa_doc_mismatch_message_is_bounded(self, tmp_path, capsys):
        """Two files of 3 000 reports with disjoint ids: one short line
        naming each side's count and first ids."""
        paths = []
        for side in "ab":
            ds = Dataset([
                ReportGraph(f"{side}-{i:04d}", "w", ("w",), "test", "synthetic", {}, ())
                for i in range(3000)
            ])
            paths.append(str(tmp_path / f"{side}.json"))
            save_dataset(ds, paths[-1])
        with pytest.raises(DocMismatch) as exc:
            dataset_kappa(*map(load_dataset, paths))
        assert len(str(exc.value)) < 300
        assert "only in A (3000): ['a-0000', " in str(exc.value)
        assert main(["kappa", *paths]) == 2
        err = capsys.readouterr().err
        assert err == f"invalid: {exc.value}\n"

    def test_accepts_token_labelings(self, small_ds):
        lab = to_token_labeling(small_ds.by_id()["mimic-2"])
        assert cohens_kappa(lab, lab) == 1.0


class TestDocSetMessage:
    """A DocMismatch over doc sets, as ``dataset_kappa`` raises it, gives
    each side's count and first few ids, however many differ."""

    @staticmethod
    def dataset(doc_ids):
        return Dataset([
            ReportGraph(doc_id, "w", ("w",), "test", "synthetic", {}, ()) for doc_id in doc_ids
        ])

    def test_thousands_of_ids(self):
        a = self.dataset(f"a-{i:05d}" for i in range(4000))
        b = self.dataset(f"b-{i:05d}" for i in range(3000, -1, -1))
        with pytest.raises(DocMismatch) as exc:
            dataset_kappa(a, b)
        message = str(exc.value)
        assert len(message) < 300
        assert "only in A (4000): ['a-00000', " in message
        assert "only in B (3001): ['b-00000', " in message

    def test_few_ids_are_all_named(self):
        with pytest.raises(DocMismatch) as exc:
            dataset_kappa(self.dataset(["a", "b"]), self.dataset(["b", "c"]))
        assert str(exc.value) == "doc sets differ (only in A (1): ['a']; only in B (1): ['c'])"
