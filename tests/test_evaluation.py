"""Strict matching, aggregation, and the corpus evaluator."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergraph import (
    DocMismatch,
    HierGraphError,
    MalformedRecord,
    TypeCounts,
    aggregate,
    evaluate_intersection,
    match_entities,
    match_relations,
    parse_report,
)
from hiergraph.evaluation import (
    EVAL_MODES,
    _match_keys,
    _min_count_match,
    evaluate_report,
    grouped_row,
    read_match_keys,
)
from hiergraph import cli
from hiergraph.corpus import Dataset
from hiergraph.schema import SOURCES, SPLITS, prune_to_radgraph1
from hiergraph.synth import make_random_corpus, perturb_predictions

from mutations import records
from oracles import (
    brute_entity_counts,
    brute_pooled_f1,
    brute_relation_counts,
    reference_aggregate,
    reference_evaluate_report,
    reference_load_selected,
    reference_min_count_match,
)

TOKENS = "w0 w1 w2 w3 w4 w5 w6 w7"


def graph(doc_id, entities, relations=(), text=TOKENS):
    record = {"text": text, "entities": {}}
    for eid, (label, start, end) in entities.items():
        record["entities"][eid] = {
            "tokens": " ".join(text.split()[start : end + 1]),
            "label": label,
            "start_ix": start,
            "end_ix": end,
            "relations": [],
        }
    for src, kind, dst in relations:
        record["entities"][src]["relations"].append([kind, dst])
    return parse_report(doc_id, record)


def flat(counts):
    return {t: (c.tp, c.pred, c.gold) for t, c in counts.items()}


class TestEntityMatching:
    def test_worked_one_third(self):
        gold = graph(
            "d",
            {"1": ("ANAT-DP", 0, 0), "2": ("OBS-DP", 1, 1), "3": ("OBS-DA", 3, 3)},
        )
        pred = graph(
            "d",
            {"1": ("ANAT-DP", 0, 0), "2": ("OBS-U", 1, 1), "3": ("OBS-DP", 4, 4)},
        )
        scores = aggregate([evaluate_report(gold, pred)])
        micro = scores.entity_micro
        assert (micro.tp, micro.pred, micro.gold) == (1, 3, 3)
        assert micro.precision == pytest.approx(1 / 3, abs=1e-12)
        assert micro.recall == pytest.approx(1 / 3, abs=1e-12)
        assert scores.entity_f1_micro == pytest.approx(1 / 3, abs=1e-12)

    def test_identity(self):
        g = graph("d", {"1": ("ANAT-DP", 0, 1), "2": ("OBS-DP", 3, 3)})
        counts = match_entities(g, g)
        assert flat(counts) == {"ANAT-DP": (1, 1, 1), "OBS-DP": (1, 1, 1)}

    def test_label_must_match(self):
        gold = graph("d", {"1": ("OBS-DP", 1, 1)})
        pred = graph("d", {"1": ("OBS-U", 1, 1)})
        assert flat(match_entities(gold, pred)) == {
            "OBS-DP": (0, 0, 1),
            "OBS-U": (0, 1, 0),
        }

    def test_span_must_match_exactly(self):
        gold = graph("d", {"1": ("ANAT-DP", 2, 4)})
        for span in [(2, 3), (3, 4), (1, 4), (2, 5)]:
            pred = graph("d", {"1": ("ANAT-DP", *span)})
            assert flat(match_entities(gold, pred))["ANAT-DP"] == (0, 1, 1)

    def test_ids_are_irrelevant(self):
        gold = graph("d", {"1": ("ANAT-DP", 0, 0), "2": ("OBS-DP", 1, 1)})
        pred = graph("d", {"9": ("OBS-DP", 1, 1), "4": ("ANAT-DP", 0, 0)})
        assert flat(match_entities(gold, pred)) == {
            "ANAT-DP": (1, 1, 1),
            "OBS-DP": (1, 1, 1),
        }

    def test_duplicate_predictions_count_once(self):
        gold = graph("d", {"1": ("OBS-DP", 1, 1)})
        pred = graph("d", {"1": ("OBS-DP", 1, 1), "2": ("OBS-DP", 1, 2)})
        assert flat(match_entities(gold, pred))["OBS-DP"] == (1, 2, 1)

    def test_doc_mismatch(self):
        a = graph("a", {})
        b = graph("b", {})
        with pytest.raises(DocMismatch):
            match_entities(a, b)
        c = graph("a", {}, text="w0 w1")
        with pytest.raises(DocMismatch):
            match_entities(a, c)


class TestRelationMatching:
    GOLD = {
        "1": ("OBS-DP", 1, 1),
        "2": ("ANAT-DP", 3, 3),
        "3": ("OBS-U", 5, 5),
    }

    def test_identity(self):
        g = graph("d", self.GOLD, [("1", "located_at", "2"), ("1", "suggestive_of", "3")])
        counts = match_relations(g, g)
        assert flat(counts) == {
            "located_at": (1, 1, 1),
            "suggestive_of": (1, 1, 1),
        }

    def test_kind_must_match(self):
        gold = graph("d", self.GOLD, [("1", "located_at", "2")])
        pred = graph("d", self.GOLD, [("1", "modify", "2")])
        assert flat(match_relations(gold, pred)) == {
            "located_at": (0, 0, 1),
            "modify": (0, 1, 0),
        }

    def test_endpoint_label_must_match(self):
        gold = graph("d", self.GOLD, [("1", "located_at", "2")])
        pred_entities = dict(self.GOLD)
        pred_entities["1"] = ("OBS-U", 1, 1)
        pred = graph("d", pred_entities, [("1", "located_at", "2")])
        assert flat(match_relations(gold, pred))["located_at"] == (0, 1, 1)

    def test_endpoint_span_must_match(self):
        gold = graph("d", self.GOLD, [("1", "located_at", "2")])
        pred_entities = dict(self.GOLD)
        pred_entities["2"] = ("ANAT-DP", 4, 4)
        pred = graph("d", pred_entities, [("1", "located_at", "2")])
        assert flat(match_relations(gold, pred))["located_at"] == (0, 1, 1)

    def test_direction_matters(self):
        gold = graph("d", self.GOLD, [("1", "modify", "3")])
        pred = graph("d", self.GOLD, [("3", "modify", "1")])
        assert flat(match_relations(gold, pred))["modify"] == (0, 1, 1)

    def test_match_implies_matched_endpoints(self):
        ds = make_random_corpus(n_reports=40, seed=21)
        noisy = perturb_predictions(ds, seed=22)
        noisy_by = noisy.by_id()
        for gold in ds.reports:
            pred = noisy_by[gold.doc_id]
            rel_counts = match_relations(gold, pred)
            ent_counts = match_entities(gold, pred)
            gold_keys = {
                (r.kind, gold.entities[r.source_id].label, gold.entities[r.target_id].label)
                for r in gold.relations
            }
            for kind, c in rel_counts.items():
                if c.tp == 0:
                    continue
                for k, src_label, dst_label in gold_keys:
                    if k != kind:
                        continue
                    # Matched relations require both endpoint triples to
                    # exist on both sides, hence entity credit for them.
                    assert ent_counts[src_label].tp >= 1 or ent_counts[dst_label].tp >= 1


class TestAggregation:
    def test_macro_is_unweighted(self):
        gold = graph(
            "d",
            {
                "1": ("ANAT-DP", 0, 0),
                "2": ("ANAT-DP", 1, 1),
                "3": ("ANAT-DP", 2, 2),
                "4": ("OBS-DP", 3, 3),
            },
        )
        pred = graph(
            "d",
            {
                "1": ("ANAT-DP", 0, 0),
                "2": ("ANAT-DP", 1, 1),
                "3": ("ANAT-DP", 5, 5),
                "4": ("OBS-DP", 3, 3),
            },
        )
        scores = aggregate([evaluate_report(gold, pred)])
        # ANAT-DP F1 = 2/3, OBS-DP F1 = 1; macro averages them equally.
        assert scores.entity_f1_macro == pytest.approx((2 / 3 + 1.0) / 2, abs=1e-12)
        assert scores.entity_f1_micro == pytest.approx(3 / 4, abs=1e-12)

    def test_macro_skips_absent_types(self):
        gold = graph("d", {"1": ("OBS-DP", 0, 0)})
        pred = graph("d", {"1": ("OBS-DP", 0, 0)})
        scores = aggregate([evaluate_report(gold, pred)])
        assert set(scores.entity_types) == {"OBS-DP"}
        assert scores.entity_f1_macro == 1.0

    def test_false_positive_only_type_counts_as_zero(self):
        gold = graph("d", {"1": ("OBS-DP", 0, 0)})
        pred = graph("d", {"1": ("OBS-DP", 0, 0), "2": ("OBS-U", 1, 1)})
        scores = aggregate([evaluate_report(gold, pred)])
        assert scores.entity_f1_macro == pytest.approx(0.5, abs=1e-12)

    def test_zero_predictions(self):
        gold = graph("d", {"1": ("OBS-DP", 0, 0)})
        pred = graph("d", {})
        scores = aggregate([evaluate_report(gold, pred)])
        assert scores.entity_f1_micro == 0.0
        assert scores.entity_f1_macro == 0.0
        assert scores.relation_f1_micro == 0.0

    def test_order_invariance(self):
        ds = make_random_corpus(n_reports=20, seed=31)
        noisy = perturb_predictions(ds, seed=32).by_id()
        counts = [evaluate_report(g, noisy[g.doc_id]) for g in ds.reports]
        a = aggregate(counts)
        b = aggregate(list(reversed(counts)))
        assert a.to_json() == b.to_json()

    def test_grouped_rows(self):
        assert grouped_row("ANAT-DP") == "ANAT"
        assert grouped_row("CHAN-CON-IMP") == "CHAN"
        assert grouped_row("CHAN-NC") == "CHAN"
        assert grouped_row("OBS-U") == "OBS-U"
        gold = graph(
            "d",
            {
                "1": ("CHAN-NC", 0, 0),
                "2": ("CHAN-DEV-AP", 1, 1),
                "3": ("OBS-DP", 2, 2),
            },
        )
        scores = aggregate([evaluate_report(gold, gold)], grouped=True)
        assert set(scores.entity_types) == {"CHAN", "OBS-DP"}
        assert scores.entity_types["CHAN"].gold == 2

    def test_per_source_only_when_multiple(self):
        a = graph("a", {"1": ("OBS-DP", 0, 0)})
        b = graph("b", {"1": ("OBS-DP", 0, 0)})
        one = aggregate([evaluate_report(a, a)])
        assert one.per_source == {}
        counts = [evaluate_report(a, a), evaluate_report(b, b)]
        counts[1].source = "CheXpert"
        two = aggregate(counts)
        assert set(two.per_source) == {"synthetic", "CheXpert"}
        assert two.per_source["CheXpert"].entity_f1_micro == 1.0
        assert two.per_source["CheXpert"].per_source == {}

    def test_json_keys_fixed(self):
        g = graph("d", {"1": ("OBS-DP", 0, 0)})
        blob = aggregate([evaluate_report(g, g)]).to_json()
        assert set(blob) == {
            "entity_f1_micro",
            "entity_f1_macro",
            "relation_f1_micro",
            "relation_f1_macro",
            "per_type",
        }
        assert blob["per_type"]["entities"]["OBS-DP"] == {
            "tp": 1,
            "pred": 1,
            "gold": 1,
            "precision": 1.0,
            "recall": 1.0,
            "f1": 1.0,
        }

    def test_text_three_decimals(self):
        gold = graph("d", {"1": ("ANAT-DP", 0, 0), "2": ("OBS-DP", 1, 1), "3": ("OBS-DA", 3, 3)})
        pred = graph("d", {"1": ("ANAT-DP", 0, 0), "2": ("OBS-U", 1, 1), "3": ("OBS-DP", 4, 4)})
        text = aggregate([evaluate_report(gold, pred)]).to_text()
        assert "0.333" in text
        assert "micro" in text and "macro" in text
        assert "Entities" in text and "Relations" in text


class TestTypeCounts:
    def test_f1_edge_cases(self):
        assert TypeCounts(tp=0, pred=0, gold=0).f1 == 0.0
        assert TypeCounts(tp=0, pred=5, gold=0).precision == 0.0
        assert TypeCounts(tp=0, pred=0, gold=5).recall == 0.0
        c = TypeCounts(tp=1, pred=2, gold=4)
        assert c.precision == 0.5
        assert c.recall == 0.25
        assert c.f1 == pytest.approx(2 * 0.5 * 0.25 / 0.75, abs=1e-12)


class TestBruteForceEquivalence:
    def test_random_corpora_match_oracle(self):
        for seed in (0, 1, 2):
            ds = make_random_corpus(n_reports=30, seed=seed)
            noisy = perturb_predictions(ds, seed=seed + 100).by_id()
            ent_dicts, rel_dicts = [], []
            for gold in ds.reports:
                pred = noisy[gold.doc_id]
                got_e = flat(match_entities(gold, pred))
                got_r = flat(match_relations(gold, pred))
                want_e = brute_entity_counts(gold, pred)
                want_r = brute_relation_counts(gold, pred)
                assert got_e == want_e, gold.doc_id
                assert got_r == want_r, gold.doc_id
                ent_dicts.append(want_e)
                rel_dicts.append(want_r)
            counts = [evaluate_report(g, noisy[g.doc_id]) for g in ds.reports]
            scores = aggregate(counts)
            assert scores.entity_f1_micro == brute_pooled_f1(ent_dicts)
            assert scores.relation_f1_micro == brute_pooled_f1(rel_dicts)

    @pytest.mark.parametrize("mode", EVAL_MODES)
    @pytest.mark.parametrize("grouped", [False, True])
    def test_aggregate_matches_reference(self, mode, grouped):
        for seed in (0, 1):
            ds = make_random_corpus(n_reports=40, seed=seed)
            assert {r.source for r in ds.reports} == set(SOURCES)
            pred_ds = perturb_predictions(ds, seed=seed + 100)
            noisy = pred_ds.by_id()
            counts, ref_counts = [], []
            for gold in ds.reports:
                pred = noisy[gold.doc_id]
                if mode == "radgraph1-common":
                    gold, pred = prune_to_radgraph1(gold), prune_to_radgraph1(pred)
                got, want = evaluate_report(gold, pred), reference_evaluate_report(gold, pred)
                assert flat(got.entities) == flat(want.entities), gold.doc_id
                assert flat(got.relations) == flat(want.relations), gold.doc_id
                counts.append(got)
                ref_counts.append(want)
            want = reference_aggregate(ref_counts, grouped=grouped)
            assert set(want.per_source) == set(SOURCES)
            # Report order must not matter either.
            scores = (
                aggregate(counts, grouped=grouped),
                aggregate(reversed(counts), grouped=grouped),
                evaluate_intersection(ds, pred_ds, mode=mode, grouped=grouped),
            )
            for got in scores:
                assert json.dumps(got.to_json()) == json.dumps(want.to_json())
                assert got.to_text() == want.to_text()

    def test_one_source_has_no_breakdown(self):
        ds = make_random_corpus(n_reports=20, seed=3)
        ds = Dataset([r for r in ds.reports if r.source == "CheXpert"])
        noisy = perturb_predictions(ds, seed=4).by_id()
        counts = [reference_evaluate_report(g, noisy[g.doc_id]) for g in ds.reports]
        want = reference_aggregate(counts)
        got = aggregate(counts)
        assert not got.per_source and not want.per_source
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("AB"), st.integers(0, 2))),
        st.lists(st.tuples(st.sampled_from("ABC"), st.integers(0, 2))),
    )
    def test_min_count_match_matches_reference(self, gold_keys, pred_keys):
        types = {k[0] for k in gold_keys} | {k[0] for k in pred_keys}
        want = reference_min_count_match(gold_keys, pred_keys, types)
        assert flat(_min_count_match(gold_keys, pred_keys)) == flat(want)

    def test_self_prediction_is_perfect(self):
        ds = make_random_corpus(n_reports=15, seed=5)
        scores = evaluate_intersection(ds, ds)
        has_entities = any(r.entities for r in ds.reports)
        assert has_entities
        assert scores.entity_f1_micro == 1.0
        assert scores.relation_f1_micro == 1.0


class TestIntersection:
    def test_fixture_self(self, small_ds):
        scores = evaluate_intersection(small_ds, small_ds)
        assert scores.entity_f1_micro == 1.0
        assert scores.entity_f1_macro == 1.0
        assert scores.relation_f1_micro == 1.0
        # Fixture spans MIMIC-CXR, CheXpert, and synthetic sources.
        assert set(scores.per_source) == {"MIMIC-CXR", "CheXpert", "synthetic"}

    def test_unknown_mode(self, small_ds):
        with pytest.raises(ValueError, match="mode"):
            evaluate_intersection(small_ds, small_ds, mode="radgraph3")

    def test_doc_mismatch(self, small_ds):
        from hiergraph import Dataset

        subset = Dataset([r for r in small_ds.reports if r.doc_id != "chex-1"])
        with pytest.raises(DocMismatch, match="chex-1"):
            evaluate_intersection(small_ds, subset)

    def test_radgraph1_common_drops_change_rows(self, small_ds):
        scores = evaluate_intersection(small_ds, small_ds, mode="radgraph1-common")
        assert all(not t.startswith("CHAN") for t in scores.entity_types)
        assert scores.entity_f1_micro == 1.0

    def test_radgraph1_common_ignores_change_errors(self, small_ds):
        # Corrupt only change entities; the pruned comparison still sees
        # identical graphs while the full one does not.
        import json

        corrupted = {}
        for r in small_ds.reports:
            from hiergraph import serialize_report

            rec = serialize_report(r)
            for ent in rec["entities"].values():
                if ent["label"].startswith("CHAN"):
                    ent["label"] = "CHAN-CON-RES"
            corrupted[r.doc_id] = rec
        from hiergraph.corpus import parse_dataset

        pred = parse_dataset(json.loads(json.dumps(corrupted)))
        full = evaluate_intersection(small_ds, pred)
        common = evaluate_intersection(small_ds, pred, mode="radgraph1-common")
        assert full.entity_f1_micro < 1.0
        assert common.entity_f1_micro == 1.0
        assert common.relation_f1_micro == 1.0


# A report the loader accepts: "new" modifies "effusion".
CLEAN_ENTITIES = {
    "a": {"tokens": "effusion", "label": "OBS-DA", "start_ix": 2, "end_ix": 2,
          "relations": []},
    "b": {"tokens": "new", "label": "CHAN-NC", "start_ix": 1, "end_ix": 1,
          "relations": [["modify", "a"]]},
}


def _record(**changes):
    """The clean report with ``changes`` made to its entities: id ->
    fields to set (on a copy of entity "a" for a new id), or None to
    drop the entity."""
    entities = dict(CLEAN_ENTITIES)
    for eid, fields in changes.items():
        base = CLEAN_ENTITIES.get(eid, CLEAN_ENTITIES["a"])
        entities[eid] = None if fields is None else {**base, **fields}
    return {
        "text": "no new effusion",
        "entities": {eid: ent for eid, ent in entities.items() if ent is not None},
    }


# One record per shape error of the record head, which the reader raises
# itself.
HEAD_RECORDS = {
    "not_object": ["no new effusion"],
    "missing_text": {"entities": {}},
    "text_not_string": {**_record(), "text": ["no", "new", "effusion"]},
    "split_not_string": {**_record(), "split": 1},
    "source_not_string": {**_record(), "data_source": None},
    "unknown_split": {**_record(), "data_split": "Holdout"},
    "entities_not_object": {**_record(), "entities": []},
}

# Those; one record per structural rule; one with the alias spellings of
# label, split and source and their keys; and one the loader takes
# although the reader's own test does not: a relation target that is a
# number but names an entity.
RULE_RECORDS = {
    **HEAD_RECORDS,
    "clean": _record(),
    "aliases": {**_record(b={"label": "CHAN-IMP"}), "data_split": "Dev", "data_source": "chexpert"},
    "unknown_label": _record(a={"label": "FOO"}),
    "unknown_relation_kind": _record(b={"relations": [["causes", "a"]]}),
    "span_bounds": _record(a={"end_ix": 3}),
    "token_text": _record(a={"tokens": "new"}),
    "dangling_relation": _record(b={"relations": [["modify", "zz"]]}),
    "self_relation": _record(b={"relations": [["modify", "b"]]}),
    "duplicate_entity": _record(c={}),
    "numeric_target": _record(a=None, **{"7": {}}, b={"relations": [["modify", 7]]}),
}


# --splits values: every split, one, and two.
SPLITS_TEXTS = (None, "test", "train,validation")


class TestReadMatchKeys:
    """``eval`` reads each file straight to match keys.  What it reads,
    or the error it raises, is what loading every report, selecting
    (``oracles.reference_load_selected``) and ``_match_keys`` give."""

    @staticmethod
    def outcome(read):
        try:
            return read()
        except HierGraphError as exc:
            return type(exc), str(exc)

    def assert_reads_as_loaded(self, drawn, splits_text):
        splits = cli._parse_splits(splits_text)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.json")
            with open(path, "w") as fh:
                json.dump({f"r{i}": record for i, record in enumerate(drawn)}, fh)
            read = self.outcome(lambda: read_match_keys(path, splits))
            loaded = self.outcome(
                lambda: [_match_keys(r) for r in reference_load_selected(path, splits)]
            )
        assert read == loaded

    @settings(max_examples=300, deadline=None)
    @given(st.lists(records(), min_size=1, max_size=4), st.sampled_from(SPLITS_TEXTS))
    def test_drawn_files(self, drawn, splits_text):
        self.assert_reads_as_loaded(drawn, splits_text)

    @pytest.mark.parametrize("name", sorted(RULE_RECORDS))
    def test_each_rule(self, name):
        for splits_text in SPLITS_TEXTS:
            self.assert_reads_as_loaded([RULE_RECORDS["clean"], RULE_RECORDS[name]], splits_text)

    @pytest.mark.parametrize("name", sorted(HEAD_RECORDS))
    def test_head_error_raised_by_reader(self, name, tmp_path):
        record = HEAD_RECORDS[name]
        with pytest.raises(MalformedRecord) as loaded:
            parse_report("r1", record)
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"r1": record}))
        with pytest.raises(MalformedRecord) as read:
            read_match_keys(str(path), SPLITS)
        assert str(read.value) == str(loaded.value)
