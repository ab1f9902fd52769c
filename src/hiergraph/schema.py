"""Report-graph data model: typed entities, typed directed relations,
signature rules, validation, pruning, and the annotation wire format.

The wire format is a single JSON document mapping doc_id to a record:

    { "text": str, "split": str, "source": str,
      "entities": { id: { "tokens": str, "label": str,
                          "start_ix": int, "end_ix": int,
                          "relations": [[kind, target_id], ...] } } }

Published RadGraph-style files use "data_split"/"data_source" for the
two metadata keys; both spellings are accepted on input.  A reserved
top-level "_meta" key is ignored by parsers so CLI outputs can carry a
version header.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Relation:
    source_id: str
    target_id: str
    kind: str


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True)
class Violation:
    """One validation finding; violations are data, not exceptions."""

    rule: str
    severity: str  # "error" | "warning"
    subject: str  # entity or relation id the finding names
    message: str


# Rules whose error-level findings make a record unloadable.  Signature
# errors are semantic and do not block loading (real annotation files
# contain a few), but they still fail `validate`.
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


def parse_report(doc_id: str, record: dict) -> ReportGraph:
    """Parse one wire-format record; raises MalformedRecord on shape errors.

    Label/split/source aliases are normalized here.  Semantic problems
    (bad spans, unknown labels, bad signatures) are left for
    validate_graph so they can be reported with rule ids.
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
    split = SPLIT_ALIASES.get(split.lower(), split.lower())
    if split not in SPLITS:
        raise MalformedRecord(doc_id, f"unknown split {split!r}")

    source = record.get("source", record.get("data_source", "synthetic"))
    if not isinstance(source, str):
        raise MalformedRecord(doc_id, "'source' is not a string")
    source = _SOURCE_BY_LOWER.get(source.lower(), source)

    raw_entities = record.get("entities", {})
    if not isinstance(raw_entities, dict):
        raise MalformedRecord(doc_id, "'entities' is not an object")

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
        entities[str(eid)] = Entity(
            id=str(eid),
            tokens=tokens,
            start_ix=start_ix,
            end_ix=end_ix,
            label=normalize_label(label),
        )
        raw_rels = raw.get("relations", [])
        if not isinstance(raw_rels, list):
            raise MalformedRecord(doc_id, f"entity {eid!r} relations not a list")
        for item in raw_rels:
            if not (isinstance(item, list) and len(item) == 2):
                raise MalformedRecord(
                    doc_id, f"entity {eid!r} relation entry not a [kind, target] pair"
                )
            kind, target = item
            relations.append(
                Relation(source_id=str(eid), target_id=str(target), kind=str(kind))
            )

    return ReportGraph(
        doc_id=doc_id,
        text=text,
        tokens=tuple(text.split()),
        split=split,
        source=source,
        entities=entities,
        relations=tuple(relations),
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


def validate_graph(graph: ReportGraph) -> list[Violation]:
    """All rule violations for one graph; empty for conforming graphs."""
    findings: list[Violation] = []
    n = len(graph.tokens)

    seen_triples: dict[tuple[int, int, str], str] = {}
    for eid, ent in graph.entities.items():
        if not is_entity_label(ent.label):
            findings.append(
                Violation("unknown_label", "error", eid, f"unknown label {ent.label!r}")
            )
            continue
        if not (0 <= ent.start_ix <= ent.end_ix < n):
            findings.append(
                Violation(
                    "span_bounds",
                    "error",
                    eid,
                    f"span [{ent.start_ix}, {ent.end_ix}] outside 0..{n - 1}",
                )
            )
            continue
        span = graph.span_text(ent)
        if span != ent.tokens:
            findings.append(
                Violation(
                    "token_text",
                    "error",
                    eid,
                    f"entity text {ent.tokens!r} != report span {span!r}",
                )
            )
        triple = (ent.start_ix, ent.end_ix, ent.label)
        if triple in seen_triples:
            findings.append(
                Violation(
                    "duplicate_entity",
                    "error",
                    eid,
                    f"same span and label as entity {seen_triples[triple]!r}",
                )
            )
        else:
            seen_triples[triple] = eid

    incident: dict[str, list[Relation]] = {eid: [] for eid in graph.entities}
    seen_rels: set[tuple[str, str, str]] = set()
    for i, rel in enumerate(graph.relations):
        rid = f"{rel.source_id}-{rel.kind}->{rel.target_id}"
        if rel.kind not in RELATION_KINDS:
            findings.append(
                Violation(
                    "unknown_relation_kind", "error", rid, f"unknown kind {rel.kind!r}"
                )
            )
            continue
        if rel.source_id not in graph.entities or rel.target_id not in graph.entities:
            missing = (
                rel.target_id if rel.target_id not in graph.entities else rel.source_id
            )
            findings.append(
                Violation(
                    "dangling_relation",
                    "error",
                    rid,
                    f"endpoint {missing!r} does not resolve",
                )
            )
            continue
        if rel.source_id == rel.target_id:
            findings.append(
                Violation("self_relation", "error", rid, "entity related to itself")
            )
            continue
        incident[rel.source_id].append(rel)
        incident[rel.target_id].append(rel)

        key = (rel.source_id, rel.target_id, rel.kind)
        if key in seen_rels:
            findings.append(
                Violation("duplicate_relation", "warning", rid, "relation repeated")
            )
        seen_rels.add(key)

        src = graph.entities[rel.source_id]
        dst = graph.entities[rel.target_id]
        if not (is_entity_label(src.label) and is_entity_label(dst.label)):
            continue  # already reported as unknown_label
        if not relation_signature_allowed(rel.kind, src.label, dst.label):
            if (
                rel.kind == "suggestive_of"
                and src.group == "CHAN"
                and dst.group == "CHAN"
            ):
                findings.append(
                    Violation(
                        "chan_chan_suggestive",
                        "warning",
                        rid,
                        "suggestive_of between two change entities",
                    )
                )
            else:
                findings.append(
                    Violation(
                        "bad_signature",
                        "error",
                        rid,
                        f"{rel.kind} ({src.label}, {dst.label}) not in the allowed set",
                    )
                )

    for eid, ent in graph.entities.items():
        if not is_entity_label(ent.label) or ent.group != "CHAN":
            continue
        rels = incident.get(eid, [])
        if not rels:
            findings.append(
                Violation(
                    "chan_isolated",
                    "warning",
                    eid,
                    "change entity with no incident relation",
                )
            )
        elif any(r.kind != "modify" for r in rels):
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


def to_dot(graph: ReportGraph) -> str:
    """Deterministic DOT rendering: one node per entity, one edge per relation."""
    lines = [f'digraph "{graph.doc_id}" {{']
    for eid in sorted(graph.entities):
        ent = graph.entities[eid]
        label = f"{ent.tokens}\\n{ent.label}"
        lines.append(f'  "{eid}" [label="{label}"];')
    for rel in sorted(
        graph.relations, key=lambda r: (r.source_id, r.target_id, r.kind)
    ):
        lines.append(
            f'  "{rel.source_id}" -> "{rel.target_id}" [label="{rel.kind}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
