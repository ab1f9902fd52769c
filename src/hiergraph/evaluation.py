"""Strict entity and relation matching with micro and macro F1.

An entity prediction counts only when span boundaries and leaf label
are all identical to an unmatched gold entity; a relation counts only
when its kind and both endpoint entities match strictly.  Matching is
one-to-one: duplicate gold items absorb at most one prediction each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import _accepted, _aligned, _selected
from .errors import DocMismatch
from .schema import ReportGraph, label_group
from .settings import EVAL_MODES


@dataclass(slots=True)
class TypeCounts:
    """True-positive, predicted, and gold tallies for one type."""

    tp: int = 0
    pred: int = 0
    gold: int = 0

    @property
    def precision(self) -> float:
        return self.tp / self.pred if self.pred else 0.0

    @property
    def recall(self) -> float:
        return self.tp / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    def add(self, other: "TypeCounts") -> None:
        self.tp += other.tp
        self.pred += other.pred
        self.gold += other.gold

    def to_json(self) -> dict:
        return {
            "tp": self.tp,
            "pred": self.pred,
            "gold": self.gold,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def _min_count_match(gold_keys, pred_keys, counts=None) -> dict[str, TypeCounts]:
    """One-to-one matching of identical keys, tallied per type into
    ``counts`` (a new dict by default), which is returned.

    Each key's first element is its type; duplicates match min-count,
    since each prediction takes one still unmatched gold copy of its key.
    """
    unmatched: dict[tuple, int] = {}
    if counts is None:
        counts = {}
    for key in gold_keys:
        unmatched[key] = unmatched.get(key, 0) + 1
        c = counts.get(key[0])
        if c is None:
            counts[key[0]] = TypeCounts(0, 0, 1)
        else:
            c.gold += 1
    for key in pred_keys:
        c = counts.get(key[0])
        if c is None:
            c = counts[key[0]] = TypeCounts()
        c.pred += 1
        n = unmatched.get(key)
        if n:
            unmatched[key] = n - 1
            c.tp += 1
    return counts


def _match_keys(report: ReportGraph) -> tuple:
    """What strict matching reads of a report, as one plain tuple: doc
    id, source, text, the entity keys ``(label, start, end)`` in entity
    order, and the relation keys ``(kind, source key, target key)``.

    Matching takes a report as a ReportGraph or as its match keys, a
    tuple, which is read as it is.  Two reports hold the same tokens
    when their texts are equal or split on whitespace alike.
    """
    entity_keys = {
        eid: (e.label, e.start_ix, e.end_ix) for eid, e in report.entities.items()
    }
    return (
        report.doc_id,
        report.source,
        report.text,
        tuple(entity_keys.values()),
        # A list builds faster than a generator feeds tuple().
        tuple(
            [
                (rel.kind, entity_keys[rel.source_id], entity_keys[rel.target_id])
                for rel in report.relations
            ]
        ),
    )


def read_match_keys(path: str, splits) -> list[tuple]:
    """``_match_keys`` of each report of ``corpus.load_dataset(path,
    splits)``, or its error, selected by the same loop but without
    building report graphs (``corpus._accepted``).  Each holds its
    record's text as decoded; the tokens are split from it only to check
    the entities."""
    return _selected(path, splits, _accepted)


def _prune_keys(keys: tuple) -> tuple:
    """``prune_to_radgraph1`` on match keys: drop every change entity
    and every relation touching one."""
    doc_id, source, tokens, entities, relations = keys
    kept = lambda key: label_group(key[0]) != "CHAN"
    return (
        doc_id,
        source,
        tokens,
        tuple(filter(kept, entities)),
        tuple(rel for rel in relations if kept(rel[1]) and kept(rel[2])),
    )


def match_entities(gold: ReportGraph, pred: ReportGraph) -> dict[str, TypeCounts]:
    """Per-label counts of strict span+label matches."""
    return evaluate_report(gold, pred).entities


def match_relations(gold: ReportGraph, pred: ReportGraph) -> dict[str, TypeCounts]:
    """Per-kind counts; endpoints must strict-match as entities."""
    return evaluate_report(gold, pred).relations


@dataclass(slots=True)
class ReportCounts:
    """Matching results for one report, tagged with its source; with no
    doc id, the sum over reports of that source."""

    doc_id: str | None
    source: str
    entities: dict[str, TypeCounts]
    relations: dict[str, TypeCounts]


def grouped_row(label: str) -> str:
    """Coarse reporting row: anatomy and change collapse to their group."""
    group = label_group(label)
    return group if group in ("ANAT", "CHAN") else label


def _merge_into(merged: dict[str, TypeCounts], per_type, grouped: bool) -> None:
    for key, counts in per_type.items():
        row = grouped_row(key) if grouped else key
        m = merged.get(row)
        if m is None:
            merged[row] = TypeCounts(counts.tp, counts.pred, counts.gold)
        else:
            m.add(counts)


def _micro(per_type: dict[str, TypeCounts]) -> TypeCounts:
    pooled = TypeCounts()
    for counts in per_type.values():
        pooled.add(counts)
    return pooled


def _macro(per_type: dict[str, TypeCounts]) -> float:
    # Sorted type order keeps the float sum independent of merge order.
    included = [
        per_type[t].f1
        for t in sorted(per_type)
        if per_type[t].gold or per_type[t].pred
    ]
    return sum(included) / len(included) if included else 0.0


def _text_row(name: str, c: TypeCounts) -> tuple[str, ...]:
    """One row of the text score table."""
    return (
        name,
        f"{c.precision:.3f}",
        f"{c.recall:.3f}",
        f"{c.f1:.3f}",
        str(c.tp),
        str(c.pred),
        str(c.gold),
    )


@dataclass
class EvalScores:
    """Aggregated scores with per-type and per-source breakdowns."""

    entity_types: dict[str, TypeCounts]
    relation_kinds: dict[str, TypeCounts]
    per_source: dict[str, "EvalScores"] = field(default_factory=dict)

    @property
    def entity_micro(self) -> TypeCounts:
        return _micro(self.entity_types)

    @property
    def relation_micro(self) -> TypeCounts:
        return _micro(self.relation_kinds)

    @property
    def entity_f1_micro(self) -> float:
        return self.entity_micro.f1

    @property
    def entity_f1_macro(self) -> float:
        return _macro(self.entity_types)

    @property
    def relation_f1_micro(self) -> float:
        return self.relation_micro.f1

    @property
    def relation_f1_macro(self) -> float:
        return _macro(self.relation_kinds)

    def _f1s(self) -> dict[str, float]:
        return {
            "entity_f1_micro": self.entity_f1_micro,
            "entity_f1_macro": self.entity_f1_macro,
            "relation_f1_micro": self.relation_f1_micro,
            "relation_f1_macro": self.relation_f1_macro,
        }

    def to_json(self) -> dict:
        doc = {
            **self._f1s(),
            "per_type": {
                "entities": {
                    t: self.entity_types[t].to_json()
                    for t in sorted(self.entity_types)
                },
                "relations": {
                    k: self.relation_kinds[k].to_json()
                    for k in sorted(self.relation_kinds)
                },
            },
        }
        if self.per_source:
            doc["per_source"] = {s: sub._f1s() for s, sub in sorted(self.per_source.items())}
        return doc

    def to_text(self) -> str:
        lines = []

        def section(title: str, per_type: dict[str, TypeCounts]) -> None:
            lines.append(title)
            rows = [("", "P", "R", "F1", "TP", "Pred", "Gold")]
            rows += [_text_row(name, per_type[name]) for name in sorted(per_type)]
            rows.append(_text_row("micro", _micro(per_type)))
            rows.append(("macro", "", "", f"{_macro(per_type):.3f}", "", "", ""))
            lines.extend(_aligned(rows))

        section("Entities", self.entity_types)
        lines.append("")
        section("Relations", self.relation_kinds)
        if self.per_source:
            lines.append("")
            lines.append("Per source")
            for s, sub in sorted(self.per_source.items()):
                lines.append(
                    f"  {s}: entity micro {sub.entity_f1_micro:.3f} "
                    f"macro {sub.entity_f1_macro:.3f}, "
                    f"relation micro {sub.relation_f1_micro:.3f} "
                    f"macro {sub.relation_f1_macro:.3f}"
                )
        return "\n".join(lines) + "\n"


def aggregate(counts, grouped: bool = False) -> EvalScores:
    """Merge per-report counts into EvalScores.

    Micro pools raw tallies; macro averages F1 over types present in
    gold or predictions.  Each report is merged once, into the rows of
    its source; the corpus rows are the merge of the per-source rows.
    The tallies are integers, so report and source order never matter.
    """
    by_source: dict[str, EvalScores] = {}
    for c in counts:
        sub = by_source.get(c.source)
        if sub is None:
            sub = by_source[c.source] = EvalScores({}, {})
        _merge_into(sub.entity_types, c.entities, grouped)
        _merge_into(sub.relation_kinds, c.relations, grouped)
    scores = EvalScores({}, {})
    for sub in by_source.values():
        _merge_into(scores.entity_types, sub.entity_types, False)
        _merge_into(scores.relation_kinds, sub.relation_kinds, False)
    if len(by_source) > 1:
        scores.per_source = {s: by_source[s] for s in sorted(by_source)}
    return scores


def evaluate_report(gold, pred, *, into: ReportCounts | None = None) -> ReportCounts:
    """Strict matching counts of one report.  ``gold`` and ``pred`` are
    each a ReportGraph or its match keys.  The counts are added to
    ``into`` when given, and to a new ReportCounts otherwise, which is
    returned.  DocMismatch if the doc ids differ, or the tokens (the
    texts, unless they split on whitespace alike)."""
    # Match keys, as evaluate_intersection passes them, are read as they are.
    doc_id, source, text, gold_entities, gold_relations = (
        gold if type(gold) is tuple else _match_keys(gold)
    )
    pred_id, _, pred_text, pred_entities, pred_relations = (
        pred if type(pred) is tuple else _match_keys(pred)
    )
    if doc_id != pred_id:
        raise DocMismatch(f"doc ids differ: {doc_id!r} vs {pred_id!r}")
    if text != pred_text and text.split() != pred_text.split():
        raise DocMismatch(f"{doc_id}: token sequences differ")
    if into is None:
        into = ReportCounts(doc_id, source, {}, {})
    _min_count_match(gold_entities, pred_entities, into.entities)
    if gold_relations or pred_relations:
        _min_count_match(gold_relations, pred_relations, into.relations)
    return into


def _keyed(reports) -> dict[str, tuple]:
    """Doc id -> match keys of a Dataset or a sequence of reports."""
    keyed = {}
    for report in getattr(reports, "reports", reports):
        keys = report if type(report) is tuple else _match_keys(report)
        keyed[keys[0]] = keys
    return keyed


def evaluate_intersection(
    gold_ds, pred_ds, mode: str = "radgraph2", grouped: bool = False
) -> EvalScores:
    """Corpus-level evaluation over the doc ids both sides hold, in gold
    order; DocMismatch if there is none.

    Each side is a Dataset or a sequence of reports, and each report a
    ReportGraph or its match keys; a doc id repeated on one side is
    scored once, with its last report.  radgraph1-common mode prunes
    change entities from both sides first, scoring only the schema
    intersection; radgraph2 scores everything.
    """
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    pred_by = _keyed(pred_ds)
    # Every report's counts go straight into the ungrouped tables of its
    # source; aggregate groups the rows of each source once.
    by_source: dict[str, ReportCounts] = {}
    prune = mode == "radgraph1-common"
    for doc_id, gold in _keyed(gold_ds).items():
        pred = pred_by.get(doc_id)
        if pred is None:
            continue
        if prune:
            gold, pred = _prune_keys(gold), _prune_keys(pred)
        into = by_source.get(gold[1])
        if into is None:
            into = by_source[gold[1]] = ReportCounts(None, gold[1], {}, {})
        evaluate_report(gold, pred, into=into)
    if not by_source:
        raise DocMismatch("no common doc ids to evaluate")
    return aggregate(by_source.values(), grouped=grouped)
