"""Report-graph data model: typed entities, typed directed relations,
signature rules, validation, pruning, and the annotation wire format.

The wire format is a single JSON document mapping doc_id to a record:

    { "text": str, "split": str, "source": str,
      "entities": { id: { "tokens": str, "label": str,
                          "start_ix": int, "end_ix": int,
                          "relations": [[kind, target_id], ...] } } }

Published RadGraph-style files spell the two metadata keys another way;
both spellings are accepted on input (see ``_record_head``).  A reserved
top-level "_meta" key is ignored by parsers so CLI outputs can carry a
version header.
"""

from __future__ import annotations

import sys
from dataclasses import FrozenInstanceError, dataclass, fields, replace

from .errors import MalformedRecord

# Leaf entity labels, in taxonomy declaration order.
ENTITY_LABELS = (
    "ANAT-DP",
    "OBS-DP",
    "OBS-U",
    "OBS-DA",
    "CHAN-NC",
    "CHAN-CON-AP",
    "CHAN-CON-WOR",
    "CHAN-CON-IMP",
    "CHAN-CON-RES",
    "CHAN-DEV-AP",
    "CHAN-DEV-PLACE",
    "CHAN-DEV-DISA",
)

GROUPS = ("ANAT", "OBS", "CHAN")

RELATION_KINDS = ("modify", "located_at", "suggestive_of")

# Label for tokens outside every entity (a tagger output, never an
# entity label in a graph).
NONE_LABEL = "NONE"

# Short spellings that occur in the wild for two change labels.
LABEL_ALIASES = {"CHAN-IMP": "CHAN-CON-IMP", "CHAN-WOR": "CHAN-CON-WOR"}

SPLITS = ("train", "validation", "test")
SPLIT_ALIASES = {"dev": "validation", "valid": "validation"}

SOURCES = ("MIMIC-CXR", "CheXpert", "synthetic")
_SOURCE_BY_LOWER = {s.lower(): s for s in SOURCES}

# Allowed (source group, target group) pairs per relation kind.  The
# union of the two signature tables in circulation; suggestive_of
# between two change entities is not allowed here but is only a
# warning in validate_graph.
ALLOWED_SIGNATURES: dict[str, frozenset[tuple[str, str]]] = {
    "located_at": frozenset({("OBS", "ANAT")}),
    "suggestive_of": frozenset({("OBS", "OBS"), ("CHAN", "OBS"), ("OBS", "CHAN")}),
    "modify": frozenset(
        {
            ("OBS", "OBS"),
            ("ANAT", "ANAT"),
            ("CHAN", "ANAT"),
            ("CHAN", "OBS"),
            ("CHAN", "CHAN"),
            ("OBS", "CHAN"),
        }
    ),
}


def normalize_label(raw: str) -> str:
    """Map alias spellings to canonical labels; unknown labels pass through."""
    return LABEL_ALIASES.get(raw, raw)


def is_entity_label(label: str) -> bool:
    return label in ENTITY_LABELS


def label_group(label: str) -> str:
    """The depth-1 group (ANAT/OBS/CHAN) for a leaf label or a group name."""
    if label in GROUPS:
        return label
    return label.split("-", 1)[0]


def relation_signature_allowed(kind: str, src: str, dst: str) -> bool:
    """Whether ``kind`` may point from ``src`` to ``dst`` (groups or leaves)."""
    allowed = ALLOWED_SIGNATURES.get(kind)
    if allowed is None:
        return False
    return (label_group(src), label_group(dst)) in allowed


# Per-record lookups for validate_graph, so that no check splits a label.
_LEAF_SET = frozenset(ENTITY_LABELS)
_CHAN_LEAVES = frozenset(l for l in ENTITY_LABELS if label_group(l) == "CHAN")
_ALLOWED_TRIPLES = frozenset(
    (kind, src, dst)
    for kind in RELATION_KINDS
    for src in ENTITY_LABELS
    for dst in ENTITY_LABELS
    if relation_signature_allowed(kind, src, dst)
)


def slot_init(cls):
    """Give a frozen slotted dataclass a cheaper ``__init__``.

    The generated one calls ``object.__setattr__`` once per field; this
    one stores each argument through its slot descriptor, about a third
    cheaper per record.  It also replaces ``__setattr__`` and
    ``__delattr__`` with the dataclass ones bound to the slotted class:
    on Python 3.11 the generated pair names the class from before
    ``slots=True`` rebuilt it, so a non-field name raised ``TypeError``
    instead of ``FrozenInstanceError``.  Every field is a required
    argument: defaults are not supported.
    """
    names = tuple(f.name for f in fields(cls))
    setters = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
    exec(
        f"def __init__(self, {', '.join(names)}):\n"
        + "".join(f"    _set_{name}(self, {name})\n" for name in names),
        setters,
    )
    init = setters["__init__"]
    init.__annotations__ = cls.__init__.__annotations__

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for fn in (init, __setattr__, __delattr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    return cls


@slot_init
@dataclass(frozen=True, slots=True)
class Entity:
    """A contiguous token span with a leaf label; indices are inclusive."""

    id: str
    tokens: str
    start_ix: int
    end_ix: int
    label: str

    @property
    def group(self) -> str:
        return label_group(self.label)


@slot_init
@dataclass(frozen=True, slots=True)
class Relation:
    source_id: str
    target_id: str
    kind: str


@slot_init
@dataclass(frozen=True, eq=False, slots=True)
class ReportGraph:
    """One report: tokens plus its annotated entities and relations.

    ``text`` is assumed pre-tokenized (space-delimited tokens), so
    ``tokens`` is its whitespace split.  Immutable after parsing.
    """

    doc_id: str
    text: str
    tokens: tuple[str, ...]
    split: str
    source: str
    entities: dict[str, Entity]
    relations: tuple[Relation, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReportGraph):
            return NotImplemented
        key = lambda r: (r.source_id, r.target_id, r.kind)
        return (
            self.doc_id == other.doc_id
            and self.text == other.text
            and self.tokens == other.tokens
            and self.split == other.split
            and self.source == other.source
            and self.entities == other.entities
            # Relation declaration order is not meaningful.
            and sorted(self.relations, key=key) == sorted(other.relations, key=key)
        )

    def span_text(self, entity: Entity) -> str:
        return " ".join(self.tokens[entity.start_ix : entity.end_ix + 1])


@slot_init
@dataclass(frozen=True, slots=True)
class Violation:
    """One validation finding; violations are data, not exceptions."""

    rule: str
    severity: str  # "error" | "warning"
    subject: str  # entity or relation id the finding names
    message: str


# Rules whose findings (all errors) make a record unloadable: the loader
# raises the first of them.  Signature errors are semantic and do not
# block loading (real annotation files contain a few), but they still
# fail `validate`.
STRUCTURAL_RULES = frozenset(
    {
        "unknown_label",
        "unknown_relation_kind",
        "span_bounds",
        "token_text",
        "dangling_relation",
        "self_relation",
        "duplicate_entity",
    }
)


# The shared object of each known label (aliases included), relation kind
# and split.  Parsed reports point at these constants instead of holding
# a copy of the string each.  The split table is also the one list of
# split names, aliases included, that `--splits` accepts.
_LABEL_OBJECT = {label: label for label in ENTITY_LABELS}
_LABEL_OBJECT.update((a, _LABEL_OBJECT[label]) for a, label in LABEL_ALIASES.items())
_KIND_OBJECT = {kind: kind for kind in RELATION_KINDS}
_SPLIT_OBJECT = {split: split for split in SPLITS}
_SPLIT_OBJECT.update((a, _SPLIT_OBJECT[split]) for a, split in SPLIT_ALIASES.items())


def _record_head(doc_id: str, record) -> tuple[str, str, str, dict]:
    """The text, split, source and entities object of one wire-format
    record, read before any entity; raises MalformedRecord on a shape
    error.

    The split and source may also be spelled "data_split" and
    "data_source", as in published RadGraph files; they default to
    "test" and "synthetic".  A split is matched without case, aliases
    included, and comes back as its SPLITS constant; a known source,
    matched without case, as its SOURCES constant.
    """
    if not isinstance(record, dict):
        raise MalformedRecord(doc_id, "record is not an object")
    try:
        text = record["text"]
    except KeyError:
        raise MalformedRecord(doc_id, "missing 'text'") from None
    if not isinstance(text, str):
        raise MalformedRecord(doc_id, "'text' is not a string")

    split = record.get("split", record.get("data_split", "test"))
    if not isinstance(split, str):
        raise MalformedRecord(doc_id, "'split' is not a string")
    lowered = split.lower()
    split = _SPLIT_OBJECT.get(lowered)
    if split is None:
        raise MalformedRecord(doc_id, f"unknown split {lowered!r}")

    source = record.get("source", record.get("data_source", "synthetic"))
    if not isinstance(source, str):
        raise MalformedRecord(doc_id, "'source' is not a string")

    entities = record.get("entities", {})
    if not isinstance(entities, dict):
        raise MalformedRecord(doc_id, "'entities' is not an object")
    return text, split, _SOURCE_BY_LOWER.get(source.lower(), source), entities


def parse_report(doc_id: str, record: dict) -> ReportGraph:
    """Parse one wire-format record; raises MalformedRecord on shape errors.

    Label/split/source aliases are normalized here.  Semantic problems
    (bad spans, unknown labels, bad signatures) are left for
    validate_graph so they can be reported with rule ids.

    Strings that repeat across reports are stored once: known labels,
    kinds, splits and sources are the module's constants, and tokens,
    entity text and relation targets are interned.
    """
    text, split, source, raw_entities = _record_head(doc_id, record)
    entities: dict[str, Entity] = {}
    relations: list[Relation] = []
    for eid, raw in raw_entities.items():
        if not isinstance(raw, dict):
            raise MalformedRecord(doc_id, f"entity {eid!r} is not an object")
        try:
            tokens = raw["tokens"]
            label = raw["label"]
            start_ix = raw["start_ix"]
            end_ix = raw["end_ix"]
        except KeyError as exc:
            raise MalformedRecord(doc_id, f"entity {eid!r} missing {exc}") from None
        if not isinstance(tokens, str) or not isinstance(label, str):
            raise MalformedRecord(doc_id, f"entity {eid!r} has non-string fields")
        # JSON true/false load as bool, which is an int subclass.
        if type(start_ix) is not int or type(end_ix) is not int:
            raise MalformedRecord(doc_id, f"entity {eid!r} has non-integer span")
        sid = str(eid)
        # str() turns a str subclass, which sys.intern rejects, into a str.
        entities[sid] = Entity(
            sid,
            sys.intern(str(tokens)),
            start_ix,
            end_ix,
            _LABEL_OBJECT.get(label, label),
        )
        raw_rels = raw.get("relations", [])
        if not isinstance(raw_rels, list):
            raise MalformedRecord(doc_id, f"entity {eid!r} relations not a list")
        if raw_rels:
            for item in raw_rels:
                if not (isinstance(item, list) and len(item) == 2):
                    raise MalformedRecord(
                        doc_id,
                        f"entity {eid!r} relation entry not a [kind, target] pair",
                    )
                kind, target = item
                kind = str(kind)
                relations.append(
                    Relation(sid, sys.intern(str(target)), _KIND_OBJECT.get(kind, kind))
                )

    return ReportGraph(
        doc_id,
        text,
        tuple(map(sys.intern, text.split())),
        split,
        source,
        entities,
        tuple(relations),
    )


def _record_keys(doc_id: str, head: tuple) -> tuple | None:
    """The match keys of a decoded wire-format record that the loader
    accepts as it stands, given the record's ``_record_head``; None for
    any other record.  This is the acceptance test of ``corpus._selected``,
    the one loop that reads a file's records by split: it gives ``eval``'s
    key reader its keys, it checks, without building a graph, each
    record outside the selected splits, and the CLI's ``predict`` runs it
    on each selected record, whose tokens it takes from the keys.

    The caller reads the head once, as the loader reads it before any
    entity.  Accepted means that every test the loader applies to the
    entities passes too: ``parse_report``'s shape checks (labels mapped
    as it maps them) and the STRUCTURAL_RULES of ``validate_graph``.
    The keys are those ``evaluation._match_keys`` gives of the parsed
    report.
    """
    text, _, source, entities = head
    tokens = tuple(map(sys.intern, text.split()))
    n = len(tokens)
    entity_keys: dict[str, tuple] = {}
    related = []  # (source id, relation list) of each entity with relations
    for eid, ent in entities.items():
        if type(ent) is not dict:
            return None
        label = ent.get("label")
        start, end = ent.get("start_ix"), ent.get("end_ix")
        rels = ent.get("relations", [])
        if not (
            type(label) is str
            and label in _LABEL_OBJECT  # unknown_label
            and type(start) is int
            and type(end) is int
            and 0 <= start <= end < n  # span_bounds
            # token_text; a missing or non-string text differs from any span
            and ent.get("tokens") == " ".join(tokens[start : end + 1])
            and type(rels) is list
        ):
            return None
        entity_keys[eid] = (_LABEL_OBJECT[label], start, end)
        if rels:
            related.append((eid, rels))
    if len(set(entity_keys.values())) < len(entity_keys):  # duplicate_entity
        return None
    relation_keys = []
    for eid, rels in related:
        for item in rels:
            if type(item) is not list or len(item) != 2:
                return None
            kind, target = item
            if not (
                type(kind) is str
                and kind in _KIND_OBJECT  # unknown_relation_kind
                and type(target) is str
                and target in entity_keys  # dangling_relation
                and target != eid  # self_relation
            ):
                return None
            relation_keys.append((_KIND_OBJECT[kind], entity_keys[eid], entity_keys[target]))
    return (
        doc_id,
        source,
        tokens,
        tuple(entity_keys.values()),
        tuple(relation_keys),
    )


def serialize_report(graph: ReportGraph) -> dict:
    """Wire-format record for one graph; relations grouped under sources."""
    by_source: dict[str, list[list[str]]] = {eid: [] for eid in graph.entities}
    for rel in graph.relations:
        by_source.setdefault(rel.source_id, []).append([rel.kind, rel.target_id])
    return {
        "text": graph.text,
        "split": graph.split,
        "source": graph.source,
        "entities": {
            eid: {
                "tokens": ent.tokens,
                "label": ent.label,
                "start_ix": ent.start_ix,
                "end_ix": ent.end_ix,
                "relations": by_source[eid],
            }
            for eid, ent in graph.entities.items()
        },
    }


def _relation_id(rel: Relation) -> str:
    """How findings name a relation."""
    return f"{rel.source_id}-{rel.kind}->{rel.target_id}"


def validate_graph(graph: ReportGraph) -> list[Violation]:
    """All rule violations for one graph; empty for conforming graphs."""
    findings: list[Violation] = []
    tokens = graph.tokens
    n = len(tokens)
    entities = graph.entities

    # Change entity id -> None before its first incident relation, then
    # whether every incident relation so far is a modify.
    modify_only: dict[str, bool | None] = {}
    seen_triples: dict[tuple[int, int, str], str] = {}
    for eid, ent in entities.items():
        label = ent.label
        if label not in _LEAF_SET:
            findings.append(
                Violation("unknown_label", "error", eid, f"unknown label {label!r}")
            )
            continue
        if label in _CHAN_LEAVES:
            modify_only[eid] = None
        start, end = ent.start_ix, ent.end_ix
        if not (0 <= start <= end < n):
            findings.append(
                Violation(
                    "span_bounds",
                    "error",
                    eid,
                    f"span [{start}, {end}] outside 0..{n - 1}",
                )
            )
            continue
        span = " ".join(tokens[start : end + 1])
        if span != ent.tokens:
            findings.append(
                Violation(
                    "token_text",
                    "error",
                    eid,
                    f"entity text {ent.tokens!r} != report span {span!r}",
                )
            )
        first = seen_triples.setdefault((start, end, label), eid)
        if first != eid:
            findings.append(
                Violation(
                    "duplicate_entity",
                    "error",
                    eid,
                    f"same span and label as entity {first!r}",
                )
            )

    seen_rels: set[tuple[str, str, str]] = set()
    for rel in graph.relations:
        src_id, dst_id, kind = rel.source_id, rel.target_id, rel.kind
        if kind not in RELATION_KINDS:
            findings.append(
                Violation(
                    "unknown_relation_kind",
                    "error",
                    _relation_id(rel),
                    f"unknown kind {kind!r}",
                )
            )
            continue
        if src_id not in entities or dst_id not in entities:
            missing = dst_id if dst_id not in entities else src_id
            findings.append(
                Violation(
                    "dangling_relation",
                    "error",
                    _relation_id(rel),
                    f"endpoint {missing!r} does not resolve",
                )
            )
            continue
        if src_id == dst_id:
            findings.append(
                Violation(
                    "self_relation",
                    "error",
                    _relation_id(rel),
                    "entity related to itself",
                )
            )
            continue
        if modify_only.get(src_id, False) is not False:
            modify_only[src_id] = kind == "modify"
        if modify_only.get(dst_id, False) is not False:
            modify_only[dst_id] = kind == "modify"

        key = (src_id, dst_id, kind)
        if key in seen_rels:
            findings.append(
                Violation(
                    "duplicate_relation",
                    "warning",
                    _relation_id(rel),
                    "relation repeated",
                )
            )
        else:
            seen_rels.add(key)

        src_label = entities[src_id].label
        dst_label = entities[dst_id].label
        if src_label not in _LEAF_SET or dst_label not in _LEAF_SET:
            continue  # already reported as unknown_label
        if (kind, src_label, dst_label) not in _ALLOWED_TRIPLES:
            if (
                kind == "suggestive_of"
                and src_label in _CHAN_LEAVES
                and dst_label in _CHAN_LEAVES
            ):
                findings.append(
                    Violation(
                        "chan_chan_suggestive",
                        "warning",
                        _relation_id(rel),
                        "suggestive_of between two change entities",
                    )
                )
            else:
                findings.append(
                    Violation(
                        "bad_signature",
                        "error",
                        _relation_id(rel),
                        f"{kind} ({src_label}, {dst_label}) not in the allowed set",
                    )
                )

    for eid, only in modify_only.items():
        if only is None:
            findings.append(
                Violation(
                    "chan_isolated",
                    "warning",
                    eid,
                    "change entity with no incident relation",
                )
            )
        elif not only:
            findings.append(
                Violation(
                    "chan_non_modify",
                    "warning",
                    eid,
                    "change entity attached via a non-modify relation",
                )
            )

    return findings


def prune_to_radgraph1(graph: ReportGraph) -> ReportGraph:
    """Project onto the original RadGraph label set.

    Removes every change entity and every relation touching one; the
    surviving entities and relations are unchanged.  Idempotent.
    """
    kept = {
        eid: ent
        for eid, ent in graph.entities.items()
        if label_group(ent.label) != "CHAN"
    }
    relations = tuple(
        rel
        for rel in graph.relations
        if rel.source_id in kept and rel.target_id in kept
    )
    return replace(graph, entities=kept, relations=relations)


def _quoted(*lines: str) -> str:
    """``lines`` as one quoted DOT string, joined by DOT's ``\\n`` escape,
    with each backslash and quote in them escaped."""
    escaped = (line.replace("\\", "\\\\").replace('"', '\\"') for line in lines)
    return '"' + "\\n".join(escaped) + '"'


def to_dot(graph: ReportGraph) -> str:
    """Deterministic DOT rendering: one node per entity, one edge per relation."""
    lines = [f"digraph {_quoted(graph.doc_id)} {{"]
    for eid in sorted(graph.entities):
        ent = graph.entities[eid]
        lines.append(f"  {_quoted(eid)} [label={_quoted(ent.tokens, ent.label)}];")
    for rel in sorted(
        graph.relations, key=lambda r: (r.source_id, r.target_id, r.kind)
    ):
        lines.append(
            f"  {_quoted(rel.source_id)} -> {_quoted(rel.target_id)} "
            f"[label={_quoted(rel.kind)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
