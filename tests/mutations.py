"""Hypothesis strategies for wire-format records: valid ones, then broken.

``records()`` draws a well-formed record (disjoint entity spans inside
the text, matching token text, relations between two different existing
entities) and then applies zero to three mutations, each one a way real
annotation files go wrong: missing keys, values of the wrong JSON type,
booleans as span indices, spans outside the text or moved onto another
entity, unknown labels and kinds, dangling, self and repeated
relations, repeated entities, change entities with and without modify
relations, relation targets written as JSON scalars.  Mutations reach
into entities only while the record still has the shape to hold them.
"""

from __future__ import annotations

import copy

from hypothesis import strategies as st

from hiergraph.schema import ENTITY_LABELS, LABEL_ALIASES, RELATION_KINDS

VOCAB = ("the", "heart", "is", "enlarged", "no", "new", "effusion")
IDS = ("a", "b", "c", "d", "e")
JUNK = (None, 0, 1.5, True, False, "x", [], {}, ["a", "b"], [1], {"k": 1})
# A fresh copy of a JUNK value on each draw: later mutations append to
# and set keys on what they drew, which must not change JUNK itself.
junk = st.sampled_from(JUNK).map(copy.deepcopy)
LABELS = ENTITY_LABELS + tuple(LABEL_ALIASES) + ("FOO", "CHAN-XYZ", "anat-dp")
KINDS = RELATION_KINDS + ("causes", "MODIFY")
SPLIT_VALUES = ("train", "validation", "test", "dev", "valid", "TEST", "bogus")
SOURCE_VALUES = ("MIMIC-CXR", "mimic-cxr", "CheXpert", "synthetic", "Other")
RECORD_KEYS = ("text", "split", "source", "entities", "data_split", "data_source")
ENTITY_KEYS = ("tokens", "label", "start_ix", "end_ix", "relations")


def _entities(record):
    if isinstance(record, dict) and isinstance(record.get("entities"), dict):
        return record["entities"]
    return None


def _entity(draw, record):
    """An entity object of the record to mutate, or None."""
    entities = _entities(record)
    if not entities:
        return None
    ent = entities[draw(st.sampled_from(sorted(entities)))]
    return ent if isinstance(ent, dict) else None


def _relations(draw, record):
    """A relation list of the record to append to, or None."""
    ent = _entity(draw, record)
    if ent is None:
        return None
    rels = ent.setdefault("relations", [])
    return rels if isinstance(rels, list) else None


def drop_record_key(draw, record):
    if isinstance(record, dict) and record:
        del record[draw(st.sampled_from(sorted(record)))]


def retype_record_value(draw, record):
    if isinstance(record, dict):
        record[draw(st.sampled_from(RECORD_KEYS))] = draw(junk)


def respell_metadata(draw, record):
    if not isinstance(record, dict):
        return
    if draw(st.booleans()):
        key = draw(st.sampled_from(("split", "data_split")))
        record[key] = draw(st.sampled_from(SPLIT_VALUES))
    else:
        key = draw(st.sampled_from(("source", "data_source")))
        record[key] = draw(st.sampled_from(SOURCE_VALUES))


def drop_entity_key(draw, record):
    ent = _entity(draw, record)
    if ent:
        del ent[draw(st.sampled_from(sorted(ent)))]


def retype_entity_field(draw, record):
    ent = _entity(draw, record)
    if ent is not None:
        ent[draw(st.sampled_from(ENTITY_KEYS))] = draw(junk)


def retype_relations(draw, record):
    ent = _entity(draw, record)
    if ent is not None:
        ent["relations"] = draw(junk)


def boolean_span_index(draw, record):
    ent = _entity(draw, record)
    if ent is not None:
        ent[draw(st.sampled_from(("start_ix", "end_ix")))] = draw(st.booleans())


def bad_span(draw, record):
    ent = _entity(draw, record)
    if ent is not None:
        ent[draw(st.sampled_from(("start_ix", "end_ix")))] = draw(st.integers(-2, 10))


def wrong_token_text(draw, record):
    ent = _entity(draw, record)
    if ent is not None:
        ent["tokens"] = draw(st.sampled_from(("zzz", "", "the  heart", "heart")))


def relabel(draw, record):
    ent = _entity(draw, record)
    if ent is not None:
        ent["label"] = draw(st.sampled_from(LABELS))


def add_relation(draw, record):
    """A relation of any kind, to an entity, to itself or to nothing."""
    rels = _relations(draw, record)
    if rels is not None:
        kind = draw(st.sampled_from(KINDS + (1,)))
        target = draw(st.sampled_from(IDS + ("zz", 7)))
        rels.append([kind, target])


def repeat_relation(draw, record):
    rels = _relations(draw, record)
    if rels:
        rels.append(copy.deepcopy(draw(st.sampled_from(rels))))


def bad_relation_entry(draw, record):
    rels = _relations(draw, record)
    if rels is not None:
        rels.append(draw(st.sampled_from(("modify", ["modify"], ["modify", "a", "b"], None, {}))))


def repeat_entity(draw, record):
    """A second entity with the same span and label under a new id."""
    entities = _entities(record)
    ent = _entity(draw, record)
    if ent is not None:
        entities[draw(st.sampled_from(("x", "y")))] = copy.deepcopy(ent)


def move_entity(draw, record):
    """An entity moved whole onto another entity's tokens, its token text
    rewritten to match.  It takes the other's label, so a span and label
    repeat, or has a label of its own, so two labels cover one span."""
    entities = _entities(record)
    ids = sorted(eid for eid, ent in (entities or {}).items() if isinstance(ent, dict))
    if len(ids) < 2:
        return
    eid = draw(st.sampled_from(ids))
    ent, other = entities[eid], entities[draw(st.sampled_from([i for i in ids if i != eid]))]
    for key in ("start_ix", "end_ix", "tokens"):
        if key in other:
            ent[key] = copy.deepcopy(other[key])
    if draw(st.booleans()):
        if "label" in other:
            ent["label"] = copy.deepcopy(other["label"])
    elif ent.get("label") == other.get("label"):
        ent["label"] = draw(st.sampled_from([l for l in ENTITY_LABELS if l != ent.get("label")]))


def scalar_target(draw, record):
    """An entity renamed to ``str(v)`` of a JSON scalar ``v``, and a
    relation from another entity to ``v`` itself, which names it: the
    loader reads a relation target as its ``str``."""
    entities = _entities(record)
    ids = sorted(eid for eid, ent in (entities or {}).items() if isinstance(ent, dict))
    if len(ids) < 2:
        return
    eid = draw(st.sampled_from(ids))
    value = draw(st.sampled_from((7, -1, 2.5, True, False, None)))
    entities[str(value)] = entities.pop(eid)
    rels = entities[draw(st.sampled_from([i for i in ids if i != eid]))].setdefault("relations", [])
    if isinstance(rels, list):
        rels.append([draw(st.sampled_from(RELATION_KINDS)), value])


def junk_entity(draw, record):
    entities = _entities(record)
    if entities is not None:
        entities[draw(st.sampled_from(IDS))] = draw(junk)


MUTATIONS = (
    drop_record_key,
    retype_record_value,
    respell_metadata,
    drop_entity_key,
    retype_entity_field,
    retype_relations,
    boolean_span_index,
    bad_span,
    wrong_token_text,
    relabel,
    add_relation,
    repeat_relation,
    bad_relation_entry,
    repeat_entity,
    move_entity,
    scalar_target,
    junk_entity,
)


@st.composite
def valid_records(draw):
    """A record the loader accepts: disjoint entity spans, left to right,
    and relations only between two different entities.

    Each span starts at most one token after the previous one ends and
    covers one or two tokens, so most records hold two or more
    entities.
    """
    n = draw(st.sampled_from(range(10, 0, -1)))
    tokens = draw(st.lists(st.sampled_from(VOCAB), min_size=n, max_size=n))
    size = draw(st.sampled_from((5, 4, 3, 2, 1, 0)))
    ids = draw(st.lists(st.sampled_from(IDS), unique=True, min_size=size, max_size=size))
    entities = {}
    free = 0  # first token no entity covers yet
    for eid in ids:
        if free == n:
            break
        start = min(free + draw(st.integers(0, 1)), n - 1)
        end = min(start + draw(st.integers(0, 1)), n - 1)
        free = end + 1
        entities[eid] = {
            "tokens": " ".join(tokens[start : end + 1]),
            "label": draw(st.sampled_from(ENTITY_LABELS)),
            "start_ix": start,
            "end_ix": end,
            "relations": [],
        }
    placed = sorted(entities)
    for _ in range(draw(st.integers(0, 5)) if len(placed) > 1 else 0):
        src = draw(st.sampled_from(placed))
        dst = draw(st.sampled_from([eid for eid in placed if eid != src]))
        entities[src]["relations"].append([draw(st.sampled_from(RELATION_KINDS)), dst])
    return {
        "text": " ".join(tokens),
        "split": draw(st.sampled_from(("train", "test"))),
        "source": draw(st.sampled_from(SOURCE_VALUES[:4])),
        "entities": entities,
    }


@st.composite
def records(draw):
    """A valid record after zero to three mutations; rarely not an object."""
    if draw(st.integers(0, 30)) == 0:
        return draw(junk)
    record = draw(valid_records())
    for _ in range(draw(st.integers(0, 3))):
        draw(st.sampled_from(MUTATIONS))(draw, record)
    return record
