"""Report-graph parsing, validation rules, pruning, and DOT export."""

import copy
import dataclasses
import inspect
import json
import pickle
import re

import pytest
from hypothesis import given, settings

from hiergraph import (
    ENTITY_LABELS,
    RELATION_KINDS,
    Entity,
    HierGraphError,
    MalformedRecord,
    Relation,
    ReportGraph,
    TypeCounts,
    ValidationError,
    parse_report,
    prune_to_radgraph1,
    relation_signature_allowed,
    serialize_report,
    to_dot,
    validate_graph,
)
from hiergraph.corpus import TokenLabeling, _loaded, parse_dataset
from hiergraph.evaluation import ReportCounts, _match_keys
from hiergraph.schema import (
    SPLITS,
    STRUCTURAL_RULES,
    Violation,
    _record_head,
    _record_keys,
    label_group,
    normalize_label,
)

from mutations import records
from oracles import reference_parse_report, reference_validate_graph


def make_record(**overrides):
    record = {
        "text": "the heart is enlarged today",
        "split": "train",
        "source": "MIMIC-CXR",
        "entities": {
            "1": {
                "tokens": "heart",
                "label": "ANAT-DP",
                "start_ix": 1,
                "end_ix": 1,
                "relations": [],
            },
            "2": {
                "tokens": "enlarged",
                "label": "OBS-DP",
                "start_ix": 3,
                "end_ix": 3,
                "relations": [["located_at", "1"]],
            },
        },
    }
    record.update(overrides)
    return record


class TestParse:
    def test_basic_fields(self):
        g = parse_report("doc-1", make_record())
        assert g.doc_id == "doc-1"
        assert g.tokens == ("the", "heart", "is", "enlarged", "today")
        assert g.split == "train"
        assert g.source == "MIMIC-CXR"
        assert set(g.entities) == {"1", "2"}
        assert g.relations == (Relation("2", "1", "located_at"),)

    def test_defaults(self):
        g = parse_report("d", {"text": "hi there"})
        assert g.split == "test"
        assert g.source == "synthetic"
        assert g.entities == {}
        assert g.relations == ()

    def test_split_aliases(self):
        for raw, want in [("dev", "validation"), ("valid", "validation"), ("Train", "train")]:
            g = parse_report("d", {"text": "x y", "split": raw})
            assert g.split == want
        g = parse_report("d", {"text": "x y", "data_split": "dev"})
        assert g.split == "validation"

    def test_source_aliases(self):
        g = parse_report("d", {"text": "x y", "source": "mimic-cxr"})
        assert g.source == "MIMIC-CXR"
        g = parse_report("d", {"text": "x y", "data_source": "chexpert"})
        assert g.source == "CheXpert"

    def test_label_alias(self):
        rec = make_record()
        rec["entities"]["2"]["label"] = "CHAN-IMP"
        g = parse_report("d", rec)
        assert g.entities["2"].label == "CHAN-CON-IMP"
        assert normalize_label("CHAN-WOR") == "CHAN-CON-WOR"
        assert normalize_label("ANAT-DP") == "ANAT-DP"

    def test_malformed_shapes(self):
        with pytest.raises(MalformedRecord):
            parse_report("d", "not a dict")
        with pytest.raises(MalformedRecord):
            parse_report("d", {})
        with pytest.raises(MalformedRecord):
            parse_report("d", {"text": 7})
        with pytest.raises(MalformedRecord):
            parse_report("d", {"text": "x", "split": "weekend"})
        with pytest.raises(MalformedRecord):
            parse_report("d", {"text": "x", "entities": []})
        rec = make_record()
        rec["entities"]["1"] = {"tokens": "heart"}
        with pytest.raises(MalformedRecord):
            parse_report("d", rec)
        rec = make_record()
        rec["entities"]["1"]["start_ix"] = "one"
        with pytest.raises(MalformedRecord):
            parse_report("d", rec)
        rec = make_record()
        rec["entities"]["2"]["relations"] = [["located_at"]]
        with pytest.raises(MalformedRecord):
            parse_report("d", rec)

    def test_boolean_span_index_rejected(self):
        for field in ("start_ix", "end_ix"):
            for value in (True, False):
                rec = make_record()
                rec["entities"]["1"][field] = value
                with pytest.raises(MalformedRecord, match="non-integer span"):
                    parse_report("d", rec)

    def test_round_trip(self):
        g = parse_report("doc-1", make_record())
        again = parse_report("doc-1", serialize_report(g))
        assert again == g
        assert serialize_report(again) == serialize_report(g)


class TestSignatures:
    def test_located_at_only_obs_to_anat(self):
        assert relation_signature_allowed("located_at", "OBS-DP", "ANAT-DP")
        assert relation_signature_allowed("located_at", "OBS-U", "ANAT-DP")
        assert not relation_signature_allowed("located_at", "ANAT-DP", "OBS-DP")
        assert not relation_signature_allowed("located_at", "ANAT-DP", "ANAT-DP")
        assert not relation_signature_allowed("located_at", "CHAN-NC", "ANAT-DP")

    def test_modify_pairs(self):
        assert relation_signature_allowed("modify", "OBS-DP", "OBS-DA")
        assert relation_signature_allowed("modify", "ANAT-DP", "ANAT-DP")
        assert relation_signature_allowed("modify", "CHAN-NC", "OBS-DP")
        assert relation_signature_allowed("modify", "CHAN-DEV-AP", "ANAT-DP")
        assert relation_signature_allowed("modify", "CHAN-NC", "CHAN-CON-AP")
        assert not relation_signature_allowed("modify", "ANAT-DP", "OBS-DP")
        assert not relation_signature_allowed("modify", "ANAT-DP", "CHAN-NC")

    def test_suggestive_of_pairs(self):
        assert relation_signature_allowed("suggestive_of", "OBS-DP", "OBS-U")
        assert relation_signature_allowed("suggestive_of", "CHAN-CON-WOR", "OBS-U")
        assert relation_signature_allowed("suggestive_of", "OBS-DP", "CHAN-NC")
        assert not relation_signature_allowed("suggestive_of", "CHAN-NC", "CHAN-NC")
        assert not relation_signature_allowed("suggestive_of", "ANAT-DP", "OBS-DP")

    def test_unknown_kind(self):
        assert not relation_signature_allowed("points_to", "OBS-DP", "ANAT-DP")

    def test_label_group(self):
        assert label_group("CHAN-CON-IMP") == "CHAN"
        assert label_group("ANAT-DP") == "ANAT"
        assert label_group("OBS") == "OBS"
        for label in ENTITY_LABELS:
            assert label_group(label) in ("ANAT", "OBS", "CHAN")


class TestValidate:
    def assert_rules(self, record, expected):
        g = parse_report("d", record)
        findings = validate_graph(g)
        assert sorted(v.rule for v in findings) == sorted(expected)
        return findings

    def test_clean_graph(self):
        assert validate_graph(parse_report("d", make_record())) == []

    def test_unknown_label(self):
        rec = make_record()
        rec["entities"]["1"]["label"] = "BODY-PART"
        # No cascading signature finding for relations touching the bad entity.
        findings = self.assert_rules(rec, ["unknown_label"])
        assert findings[0].severity == "error"

    def test_span_bounds(self):
        rec = make_record()
        rec["entities"]["1"]["end_ix"] = 99
        self.assert_rules(rec, ["span_bounds"])
        rec = make_record()
        rec["entities"]["1"]["start_ix"] = -1
        self.assert_rules(rec, ["span_bounds"])
        rec = make_record()
        rec["entities"]["1"]["start_ix"] = 2
        rec["entities"]["1"]["end_ix"] = 1
        self.assert_rules(rec, ["span_bounds"])

    def test_token_text(self):
        rec = make_record()
        rec["entities"]["1"]["tokens"] = "lungs"
        findings = self.assert_rules(rec, ["token_text"])
        assert "lungs" in findings[0].message

    def test_duplicate_entity(self):
        rec = make_record()
        rec["entities"]["3"] = dict(rec["entities"]["1"])
        self.assert_rules(rec, ["duplicate_entity"])

    def test_same_span_different_label_ok(self):
        rec = make_record()
        dup = dict(rec["entities"]["2"])
        dup["label"] = "OBS-U"
        rec["entities"]["3"] = dup
        self.assert_rules(rec, [])

    def test_unknown_relation_kind(self):
        rec = make_record()
        rec["entities"]["2"]["relations"] = [["points_to", "1"]]
        self.assert_rules(rec, ["unknown_relation_kind"])

    def test_dangling_relation(self):
        rec = make_record()
        rec["entities"]["2"]["relations"] = [["located_at", "9"]]
        findings = self.assert_rules(rec, ["dangling_relation"])
        assert "'9'" in findings[0].message

    def test_self_relation(self):
        rec = make_record()
        rec["entities"]["2"]["relations"] = [["modify", "2"]]
        self.assert_rules(rec, ["self_relation"])

    def test_bad_signature(self):
        rec = make_record()
        rec["entities"]["1"]["relations"] = [["located_at", "2"]]
        rec["entities"]["2"]["relations"] = []
        findings = self.assert_rules(rec, ["bad_signature"])
        assert findings[0].severity == "error"

    def test_duplicate_relation_warning(self):
        rec = make_record()
        rec["entities"]["2"]["relations"] = [["located_at", "1"], ["located_at", "1"]]
        findings = self.assert_rules(rec, ["duplicate_relation"])
        assert findings[0].severity == "warning"

    def test_chan_chan_suggestive_warning(self):
        rec = {
            "text": "worse than before",
            "entities": {
                "1": {
                    "tokens": "worse",
                    "label": "CHAN-CON-WOR",
                    "start_ix": 0,
                    "end_ix": 0,
                    "relations": [["suggestive_of", "2"]],
                },
                "2": {
                    "tokens": "before",
                    "label": "CHAN-NC",
                    "start_ix": 2,
                    "end_ix": 2,
                    "relations": [],
                },
            },
        }
        findings = self.assert_rules(
            rec, ["chan_chan_suggestive", "chan_non_modify", "chan_non_modify"]
        )
        by_rule = {v.rule: v for v in findings}
        assert by_rule["chan_chan_suggestive"].severity == "warning"

    def test_chan_isolated_warning(self):
        rec = {
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
        findings = self.assert_rules(rec, ["chan_isolated"])
        assert findings[0].severity == "warning"

    def test_chan_with_modify_clean(self):
        rec = {
            "text": "tube removed now",
            "entities": {
                "1": {
                    "tokens": "tube",
                    "label": "OBS-DP",
                    "start_ix": 0,
                    "end_ix": 0,
                    "relations": [],
                },
                "2": {
                    "tokens": "removed",
                    "label": "CHAN-DEV-DISA",
                    "start_ix": 1,
                    "end_ix": 1,
                    "relations": [["modify", "1"]],
                },
            },
        }
        self.assert_rules(rec, [])


class TestPrune:
    def test_removes_change_entities_and_incident_relations(self):
        rec = {
            "text": "effusion is worse today",
            "entities": {
                "1": {
                    "tokens": "effusion",
                    "label": "OBS-DP",
                    "start_ix": 0,
                    "end_ix": 0,
                    "relations": [],
                },
                "2": {
                    "tokens": "worse",
                    "label": "CHAN-CON-WOR",
                    "start_ix": 2,
                    "end_ix": 2,
                    "relations": [["modify", "1"]],
                },
            },
        }
        g = parse_report("d", rec)
        pruned = prune_to_radgraph1(g)
        assert set(pruned.entities) == {"1"}
        assert pruned.relations == ()
        assert pruned.tokens == g.tokens

    def test_keeps_non_change_structure(self):
        g = parse_report("d", make_record())
        pruned = prune_to_radgraph1(g)
        assert pruned == g

    def test_idempotent(self):
        rec = make_record()
        rec["entities"]["3"] = {
            "tokens": "today",
            "label": "CHAN-NC",
            "start_ix": 4,
            "end_ix": 4,
            "relations": [["modify", "2"]],
        }
        g = parse_report("d", rec)
        once = prune_to_radgraph1(g)
        assert prune_to_radgraph1(once) == once
        assert len(once.entities) == len(g.entities) - 1

    def test_entity_object_identity_preserved(self):
        g = parse_report("d", make_record())
        pruned = prune_to_radgraph1(g)
        for eid, ent in pruned.entities.items():
            assert ent == g.entities[eid]


class TestDot:
    def test_single_entity(self):
        rec = {
            "text": "heart",
            "entities": {
                "1": {
                    "tokens": "heart",
                    "label": "ANAT-DP",
                    "start_ix": 0,
                    "end_ix": 0,
                    "relations": [],
                }
            },
        }
        dot = to_dot(parse_report("d", rec))
        assert dot.startswith('digraph "d" {')
        assert dot.count("[label=") == 1
        assert "->" not in dot

    def test_edge_per_relation(self):
        dot = to_dot(parse_report("d", make_record()))
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(edge_lines) == 1
        assert 'label="located_at"' in edge_lines[0]

    def test_deterministic_order(self):
        rec = make_record()
        rec["entities"] = dict(reversed(list(rec["entities"].items())))
        a = to_dot(parse_report("d", make_record()))
        b = to_dot(parse_report("d", rec))
        assert a == b

    def test_quotes_and_backslashes_escaped(self):
        rec = make_record(text='the "heart\\" is enlarged today')
        rec["entities"]["1"]["tokens"] = '"heart\\"'
        rec["entities"]['a"\\b'] = rec["entities"].pop("2")
        rec["entities"]['a"\\b']["relations"] = [["located_at", "1"]]
        graph = parse_report('d"1\\', rec)
        assert validate_graph(graph) == []
        lines = to_dot(graph).splitlines()
        # Each line is its quoted strings between DOT's own punctuation.
        quoted = r'"((?:[^"\\]|\\.)*)"'
        shapes = [
            rf"digraph {quoted} {{",
            rf"  {quoted} \[label={quoted}\];",
            rf"  {quoted} -> {quoted} \[label={quoted}\];",
            r"}",
        ]

        def strings(line):
            match = next(m for m in (re.fullmatch(p, line) for p in shapes) if m)
            unescape = lambda m: "\n" if m[1] == "n" else m[1]
            return [re.sub(r"\\(.)", unescape, g) for g in match.groups()]

        assert [strings(line) for line in lines] == [
            ['d"1\\'],
            ["1", '"heart\\"\nANAT-DP'],
            ['a"\\b', "enlarged\nOBS-DP"],
            ['a"\\b', "1", "located_at"],
            [],
        ]


class TestGraphTypes:
    def test_entity_group(self):
        e = Entity("1", "x", 0, 0, "CHAN-DEV-AP")
        assert e.group == "CHAN"

    def test_graph_equality_ignores_relation_order(self):
        rec = make_record()
        rec["entities"]["1"]["relations"] = [["modify", "2"]]
        g1 = parse_report("d", rec)
        rec2 = make_record()
        rec2["entities"] = dict(reversed(list(rec["entities"].items())))
        g2 = parse_report("d", rec2)
        assert g1 == g2


class _Text(str):
    """A str subclass, which ``sys.intern`` rejects."""


def _as_text_subclass(value):
    """``value`` with every string in it, keys included, made a ``_Text``."""
    if isinstance(value, str):
        return _Text(value)
    if isinstance(value, dict):
        return {_Text(k): _as_text_subclass(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_text_subclass(v) for v in value]
    return value


class TestCompactRecords:
    """Parsed reports share each repeated string and carry no __dict__."""

    @staticmethod
    def decoded(**overrides):
        # Through JSON, so every string is a fresh object as in a file.
        return json.loads(json.dumps(make_record(**overrides)))

    def test_reports_share_token_objects(self):
        a = parse_report("a", self.decoded())
        b = parse_report("b", self.decoded())
        assert all(x is y for x, y in zip(a.tokens, b.tokens))
        assert a.entities["1"].tokens is b.entities["1"].tokens
        assert a.relations[0].target_id is b.relations[0].target_id

    def test_labels_kinds_and_splits_are_the_constants(self):
        rec = self.decoded(split="DEV")
        rec["entities"]["1"]["label"] = "CHAN-IMP"
        g = parse_report("d", rec)
        assert g.entities["1"].label is ENTITY_LABELS[ENTITY_LABELS.index("CHAN-CON-IMP")]
        assert g.entities["2"].label is ENTITY_LABELS[ENTITY_LABELS.index("OBS-DP")]
        assert g.relations[0].kind is RELATION_KINDS[RELATION_KINDS.index("located_at")]
        assert g.split is SPLITS[SPLITS.index("validation")]

    def test_unknown_label_and_kind_stay_as_given(self):
        rec = self.decoded()
        rec["entities"]["1"]["label"] = "ANAT-XX"
        rec["entities"]["2"]["relations"] = [["touches", "1"]]
        g = parse_report("d", rec)
        assert g.entities["1"].label == "ANAT-XX"
        assert g.relations[0].kind == "touches"

    def test_no_instance_dict(self):
        g = parse_report("d", self.decoded())
        records = [
            g,
            g.entities["1"],
            g.relations[0],
            Violation("rule", "error", "1", "message"),
            TypeCounts(),
            ReportCounts("d", "synthetic", {}, {}),
            TokenLabeling("d", ("NONE",)),
        ]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
        for record in records[:4] + records[6:]:
            field = dataclasses.fields(record)[0].name
            for name in (field, "not_a_field"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, "x")
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)

    def test_replace(self):
        g = parse_report("d", self.decoded())
        ent = dataclasses.replace(g.entities["1"], label="ANAT-DP", start_ix=0, end_ix=0)
        assert ent == Entity("1", "heart", 0, 0, "ANAT-DP")
        moved = dataclasses.replace(g, doc_id="e", split="test")
        assert (moved.doc_id, moved.split) == ("e", "test")
        assert moved.entities is g.entities and moved.tokens is g.tokens

    def test_str_subclass_strings_parse(self):
        rec = self.decoded(split="Dev", source="mimic-cxr")
        rec["entities"]["1"]["label"] = "CHAN-IMP"
        rec["entities"]["2"]["relations"].append(["touches", "1"])
        want = parse_report("d", rec)
        got = parse_report(_Text("d"), _as_text_subclass(rec))
        assert got == want
        assert serialize_report(got) == serialize_report(want)
        assert validate_graph(got) == validate_graph(want)


class TestAgainstReference:
    """The loader and the validator agree with their per-call references."""

    @settings(max_examples=150, deadline=None)
    @given(records())
    def test_mutated_records(self, record):
        try:
            want = reference_parse_report("doc", record)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                parse_report("doc", record)
            assert str(got.value) == str(exc)
            return
        got = parse_report("doc", record)
        assert got == want
        assert got.relations == want.relations  # declaration order too
        findings = reference_validate_graph(want)
        assert validate_graph(got) == findings
        # The loader raises the first structural finding, and only that.
        structural = [v for v in findings if v.rule in STRUCTURAL_RULES]
        if structural:
            with pytest.raises(ValidationError) as raised:
                parse_dataset({"doc": record})
            v = structural[0]
            assert str(raised.value) == f"doc: [{v.rule}] {v.subject}: {v.message}"
        else:
            assert parse_dataset({"doc": record}).reports == [want]


class TestLoadingRules:
    """Which findings block loading is stated once, by STRUCTURAL_RULES."""

    def test_first_structural_finding_raises(self):
        rec = make_record()
        # 1 -located_at-> 2 has a bad signature and comes first;
        # 2 -modify-> 2 relates an entity to itself.
        rec["entities"]["1"]["relations"] = [["located_at", "2"]]
        rec["entities"]["2"]["relations"].append(["modify", "2"])
        rules = [v.rule for v in validate_graph(parse_report("d", rec))]
        assert rules == ["bad_signature", "self_relation"]
        with pytest.raises(ValidationError) as raised:
            parse_dataset({"d": rec})
        assert raised.value.rule == "self_relation"
        assert str(raised.value) == "d: [self_relation] 2-modify->2: entity related to itself"

    def test_signature_errors_alone_load(self):
        rec = make_record()
        rec["entities"]["1"]["relations"] = [["located_at", "2"]]
        findings = validate_graph(parse_report("d", rec))
        assert [(v.rule, v.severity) for v in findings] == [("bad_signature", "error")]
        assert parse_dataset({"d": rec}).reports == [parse_report("d", rec)]

    @settings(max_examples=500, deadline=None)
    @given(records())
    def test_key_reader_refuses_what_the_loader_refuses(self, record):
        """``_record_keys`` refuses a record exactly when the loader
        raises on it, and otherwise gives the loaded report's keys."""
        try:
            loaded = _match_keys(_loaded("d", record))
        except HierGraphError:
            loaded = None
        try:
            keys = _record_keys("d", _record_head("d", record))
        except MalformedRecord:
            keys = None
        assert keys == loaded


# One value of each frozen record, as positional arguments.
_RECORDS = {
    Entity: ("1", "heart", 1, 1, "ANAT-DP"),
    Relation: ("1", "2", "modify"),
    ReportGraph: (
        "d",
        "heart enlarged",
        ("heart", "enlarged"),
        "test",
        "synthetic",
        {
            "1": Entity("1", "heart", 0, 0, "ANAT-DP"),
            "2": Entity("2", "enlarged", 1, 1, "OBS-DP"),
        },
        (Relation("2", "1", "located_at"),),
    ),
    Violation: ("rule", "error", "1", "message"),
    TokenLabeling: ("d", ("NONE", "ANAT-DP")),
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
class TestRecordConstruction:
    """The frozen records keep their dataclass constructor and protocols."""

    def test_positional_equals_keyword(self, cls):
        args = _RECORDS[cls]
        names = [f.name for f in dataclasses.fields(cls)]
        record = cls(*args)
        assert record == cls(**dict(zip(names, args)))
        assert [getattr(record, name) for name in names] == list(args)

    def test_signature_is_the_fields(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(inspect.signature(cls).parameters) == names

    def test_wrong_argument_count(self, cls):
        args = _RECORDS[cls]
        with pytest.raises(TypeError):
            cls(*args[:-1])
        with pytest.raises(TypeError):
            cls(*args, "extra")
        with pytest.raises(TypeError):
            cls(*args, **{dataclasses.fields(cls)[0].name: args[0]})

    def test_repr_copy_and_pickle(self, cls):
        args = _RECORDS[cls]
        record = cls(*args)
        fields = ", ".join(
            f"{f.name}={a!r}" for f, a in zip(dataclasses.fields(cls), args)
        )
        assert repr(record) == f"{cls.__name__}({fields})"
        for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record
            assert repr(twin) == repr(record)
