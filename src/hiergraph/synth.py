"""Synthetic corpora for training demos and property tests.

Three generators: a linearly separable tagging corpus (every label has
dedicated trigger tokens in fixed sentence frames), an imbalanced corpus
with one rare change label for contrasting the two training modes, and
a randomized structurally-valid corpus for round-trip and pruning
properties.  All output is deterministic given the seed.
"""

from __future__ import annotations

from ._lazy import numpy as np
from .corpus import Dataset
from .schema import ENTITY_LABELS, RELATION_KINDS, Entity, Relation, ReportGraph

# Trigger vocabulary: token -> leaf label, one consistent mapping across
# every generator so corpora can be mixed.
OBS_TRIGGERS = (
    ("opacity", "OBS-DP"),
    ("possible", "OBS-U"),
    ("clear", "OBS-DA"),
)

CHAN_TRIGGERS = (
    ("unchanged", "CHAN-NC"),
    ("new", "CHAN-CON-AP"),
    ("worsened", "CHAN-CON-WOR"),
    ("improved", "CHAN-CON-IMP"),
    ("resolved", "CHAN-CON-RES"),
    ("placed", "CHAN-DEV-AP"),
    ("repositioned", "CHAN-DEV-PLACE"),
    ("removed", "CHAN-DEV-DISA"),
)

ANAT_UP = "upper"
ANAT_HEAD = "lobe"

LEADS = ("the", "a")
LINKS = ("in", "near")
VERBS = ("has", "shows")


def _graph(doc_id, tokens, entities, relations, split, source="synthetic"):
    return ReportGraph(
        doc_id=doc_id,
        text=" ".join(tokens),
        tokens=tuple(tokens),
        split=split,
        source=source,
        entities={e.id: e for e in entities},
        relations=tuple(relations),
    )


def _entity(eid: str, tokens, start: int, end: int, label: str) -> Entity:
    return Entity(
        id=eid,
        tokens=" ".join(tokens[start : end + 1]),
        start_ix=start,
        end_ix=end,
        label=label,
    )


def _located_report(doc_id: str, i: int, split: str) -> ReportGraph:
    """Frame: <lead> <obs> <link> upper lobe .

    The observation is located_at the head anatomy token; the first
    anatomy token modifies the second (adjacent pair).
    """
    obs_tok, obs_label = OBS_TRIGGERS[i % len(OBS_TRIGGERS)]
    tokens = [LEADS[i % 2], obs_tok, LINKS[(i // 2) % 2], ANAT_UP, ANAT_HEAD, "."]
    entities = [
        _entity("1", tokens, 1, 1, obs_label),
        _entity("2", tokens, 3, 3, "ANAT-DP"),
        _entity("3", tokens, 4, 4, "ANAT-DP"),
    ]
    relations = [
        Relation("2", "3", "modify"),
        Relation("1", "3", "located_at"),
    ]
    return _graph(doc_id, tokens, entities, relations, split)


def _change_report(
    doc_id: str, i: int, split: str, chan_index: int | None = None
) -> ReportGraph:
    """Frame: <lead> <obs> <verb> <change> today .

    The trailing filler keeps this frame's window contexts disjoint
    from the located frame's anatomy positions.
    """
    obs_tok, obs_label = OBS_TRIGGERS[i % len(OBS_TRIGGERS)]
    chan_tok, chan_label = CHAN_TRIGGERS[
        (i if chan_index is None else chan_index) % len(CHAN_TRIGGERS)
    ]
    tokens = [LEADS[i % 2], obs_tok, VERBS[(i // 2) % 2], chan_tok, "today", "."]
    entities = [
        _entity("1", tokens, 1, 1, obs_label),
        _entity("2", tokens, 3, 3, chan_label),
    ]
    relations = [Relation("2", "1", "modify")]
    return _graph(doc_id, tokens, entities, relations, split)


def make_separable_corpus(
    n_reports: int = 48, seed: int = 0, split: str = "train"
) -> Dataset:
    """A corpus every linear tagger can fit exactly.

    Each token type carries exactly one label (or none) and each
    relation kind occupies its own (source label, target label, offset
    bucket) cell, so both the tagger and the pair scorer have a
    zero-error solution.  ``seed`` shifts the rotation of frame
    fillers.
    """
    reports = []
    for i in range(n_reports):
        j = i + seed
        doc_id = f"sep-{i:03d}"
        if i % 2 == 0:
            reports.append(_located_report(doc_id, j // 2, split))
        else:
            reports.append(_change_report(doc_id, j // 2, split))
    return Dataset(reports)


def make_rare_label_corpus(
    seed: int = 0,
    n_chan_train: int = 3,
    n_located_train: int = 24,
    n_chan_test: int = 2,
    n_located_test: int = 6,
) -> Dataset:
    """An imbalanced corpus where every change label is rare.

    Each of the eight change leaves gets only a few training reports
    while anatomy and observation labels dominate, echoing the real
    label distribution where change labels are the thin tail.  The
    change frames share their context tokens, so group membership has
    far more evidence than any single leaf.  The test split reuses the
    frames with rotated fillers.
    """
    reports = []
    for c in range(len(CHAN_TRIGGERS)):
        for i in range(n_chan_train):
            reports.append(
                _change_report(f"rare-train-c{c}-{i:03d}", i + seed, "train", c)
            )
    for i in range(n_located_train):
        reports.append(_located_report(f"rare-train-o-{i:03d}", i + seed, "train"))

    for c in range(len(CHAN_TRIGGERS)):
        for i in range(n_chan_test):
            reports.append(
                _change_report(f"rare-test-c{c}-{i:03d}", i + seed + 1, "test", c)
            )
    for i in range(n_located_test):
        reports.append(_located_report(f"rare-test-o-{i:03d}", i + seed + 1, "test"))
    return Dataset(reports)


_RANDOM_VOCAB = (
    "the", "lung", "heart", "clear", "opacity", "stable", "tube", "is",
    "right", "left", "seen", "small", "effusion", "borders", "midline", ".",
)


def make_random_corpus(
    n_reports: int = 100,
    seed: int = 0,
    max_entities: int = 4,
    max_relations: int = 3,
) -> Dataset:
    """Randomized structurally-valid reports for round-trip properties.

    Entity spans may overlap and relation signatures may be off-schema
    (both survive loading); ids, spans, and labels avoid the structural
    rules that block parsing.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for i in range(n_reports):
        n_tok = int(rng.integers(3, 13))
        tokens = [
            _RANDOM_VOCAB[int(rng.integers(len(_RANDOM_VOCAB)))]
            for _ in range(n_tok)
        ]
        n_ent = int(rng.integers(0, max_entities + 1))
        entities = []
        seen_triples = set()
        for _ in range(n_ent):
            start = int(rng.integers(0, n_tok))
            end = min(n_tok - 1, start + int(rng.integers(0, 2)))
            label = ENTITY_LABELS[int(rng.integers(len(ENTITY_LABELS)))]
            if (start, end, label) in seen_triples:
                continue
            seen_triples.add((start, end, label))
            entities.append(
                _entity(str(len(entities) + 1), tokens, start, end, label)
            )
        relations = []
        if len(entities) >= 2:
            seen_rels = set()
            for _ in range(int(rng.integers(0, max_relations + 1))):
                a, b = rng.choice(len(entities), size=2, replace=False)
                kind = RELATION_KINDS[int(rng.integers(len(RELATION_KINDS)))]
                key = (entities[a].id, entities[b].id, kind)
                if key in seen_rels:
                    continue
                seen_rels.add(key)
                relations.append(Relation(entities[a].id, entities[b].id, kind))
        split = ("train", "validation", "test")[int(rng.integers(3))]
        source = ("MIMIC-CXR", "CheXpert", "synthetic")[int(rng.integers(3))]
        reports.append(
            _graph(f"rand-{i:04d}", tokens, entities, relations, split, source)
        )
    return Dataset(reports)


def perturb_predictions(ds: Dataset, seed: int = 0) -> Dataset:
    """A noisy prediction set over the same documents and tokens.

    Entities are dropped, relabeled, or shifted at random and relations
    are resampled over the surviving entities, producing realistic
    partial-credit patterns for evaluator tests.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for report in ds.reports:
        tokens = list(report.tokens)
        entities = []
        seen = set()
        for ent in report.entities.values():
            roll = rng.random()
            if roll < 0.2:
                continue
            start, end, label = ent.start_ix, ent.end_ix, ent.label
            if roll < 0.4:
                label = ENTITY_LABELS[int(rng.integers(len(ENTITY_LABELS)))]
            elif roll < 0.55 and end < len(tokens) - 1:
                start, end = start + 1, end + 1
            if (start, end, label) in seen:
                continue
            seen.add((start, end, label))
            entities.append(
                _entity(str(len(entities) + 1), tokens, start, end, label)
            )
        relations = []
        if len(entities) >= 2:
            for _ in range(int(rng.integers(0, 3))):
                a, b = rng.choice(len(entities), size=2, replace=False)
                kind = RELATION_KINDS[int(rng.integers(len(RELATION_KINDS)))]
                rel = Relation(entities[a].id, entities[b].id, kind)
                if rel not in relations:
                    relations.append(rel)
        reports.append(
            _graph(
                report.doc_id, tokens, entities, relations, report.split,
                report.source,
            )
        )
    return Dataset(reports)
