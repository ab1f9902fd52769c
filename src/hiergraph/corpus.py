"""Report tokenization, dataset loading, label statistics, and
inter-annotator agreement.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import (
    DocMismatch,
    EmptyDataset,
    FileUnreadable,
    LengthMismatch,
    MalformedRecord,
    OverlapConflict,
    ValidationError,
)
from .schema import (
    ENTITY_LABELS,
    NONE_LABEL,
    RELATION_KINDS,
    SOURCES,
    SPLITS,
    STRUCTURAL_RULES,
    ReportGraph,
    _record_head,
    _record_keys,
    label_group,
    parse_report,
    serialize_report,
    slot_init,
    validate_graph,
)

# Punctuation separated into its own token when attached to a word.
# Hyphens are deliberately absent: compounds stay whole.
PUNCTUATION = frozenset(".,;:?!()")


def tokenize(text: str) -> list[str]:
    """Whitespace split with listed punctuation emitted as separate tokens.

    Deleting whitespace from " ".join(result) reproduces the input with
    its whitespace deleted; no empty tokens are produced.
    """
    tokens: list[str] = []
    for chunk in text.split():
        word = []
        for ch in chunk:
            if ch in PUNCTUATION:
                if word:
                    tokens.append("".join(word))
                    word = []
                tokens.append(ch)
            else:
                word.append(ch)
        if word:
            tokens.append("".join(word))
    return tokens


@dataclass
class Dataset:
    """Parsed reports."""

    reports: list[ReportGraph]

    def __len__(self) -> int:
        return len(self.reports)

    def by_id(self) -> dict[str, ReportGraph]:
        return {r.doc_id: r for r in self.reports}

    def subset(self, splits) -> "Dataset":
        wanted = {splits} if isinstance(splits, str) else set(splits)
        return Dataset([r for r in self.reports if r.split in wanted])


def report_records(doc):
    """The ``(doc_id, record)`` pairs of a decoded annotation document, in
    file order, without the reserved ``_meta`` entry.  A document that is
    not an object raises MalformedRecord."""
    if not isinstance(doc, dict):
        raise MalformedRecord("<root>", "annotation document is not an object")
    for doc_id, record in doc.items():
        if doc_id != "_meta":
            yield doc_id, record


def _loaded(doc_id: str, record) -> ReportGraph:
    """The graph of one record.  Its first finding of a STRUCTURAL_RULES
    rule raises ValidationError; findings of the other rules (e.g.
    off-schema relation signatures) do not block loading and are left
    to ``validate``."""
    graph = parse_report(doc_id, record)
    for v in validate_graph(graph):
        if v.rule in STRUCTURAL_RULES:
            raise ValidationError(doc_id, v.rule, f"{v.subject}: {v.message}")
    return graph


def parse_dataset(doc: dict) -> Dataset:
    """Build a Dataset from a decoded annotation document; the first
    record that does not load raises, naming its doc_id."""
    return Dataset([_loaded(doc_id, record) for doc_id, record in report_records(doc)])


def read_text(path: str) -> str:
    """The text of a UTF-8 file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileUnreadable(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedRecord("<root>", f"{path} is not UTF-8 text: {exc}") from exc


def read_json(path: str):
    """The JSON document in a UTF-8 file."""
    try:
        return json.loads(read_text(path))
    # The decoder raises RecursionError on arrays or objects nested too deep.
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedRecord("<root>", f"invalid JSON in {path}: {exc}") from exc


def _selected(path: str, splits, build) -> list:
    """``build(doc_id, record, head)`` of each record of the annotation
    file ``path`` in ``splits``, in file order, ``head`` being its
    ``_record_head``, read once here; EmptyDataset, naming the splits the
    file holds, if there is none.  The one loop that selects by split,
    for ``load_dataset`` (graphs), ``evaluation.read_match_keys`` (match
    keys) and the CLI's ``predict`` (the fields it predicts from).

    Every record is checked, so a file fails as it would unselected.  A
    record outside ``splits`` builds nothing: it passes the key reader's
    acceptance test (``schema._record_keys``), or else is loaded and
    dropped, so that a record the loader refuses raises its own error.
    """
    chosen, held = [], set()
    for doc_id, record in report_records(read_json(path)):
        head = _record_head(doc_id, record)
        held.add(head[1])
        if head[1] in splits:
            chosen.append(build(doc_id, record, head))
        elif _record_keys(doc_id, head) is None:
            _loaded(doc_id, record)
    if not chosen:
        raise EmptyDataset(
            f"{path} holds no reports in {', '.join(splits)}"
            f" (its splits: {', '.join(s for s in SPLITS if s in held) or 'none'})"
        )
    return chosen


def load_dataset(path: str, splits=None) -> Dataset:
    """The reports of the annotation file ``path``; with ``splits``, only
    those in these splits (``_selected``).  Each of those has its head
    read twice, since ``parse_report`` takes the raw record."""
    if splits is None:
        return parse_dataset(read_json(path))
    return Dataset(_selected(path, splits, lambda doc_id, record, _: _loaded(doc_id, record)))


@contextmanager
def atomic_write(path: str):
    """A text file to write ``path`` through.  It is a temporary file
    beside ``path`` that replaces it when the block ends without error,
    so ``path`` holds either its old content or all of the new."""
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_dataset(ds: Dataset, path: str, meta: dict | None = None) -> None:
    """Write ``ds`` as one JSON object: ``{``, then ``_meta`` (if given)
    and each report on a line of its own, then ``}``.

    Each line is one ``json.dumps`` without an indent, which runs the C
    encoder, and only one report's record is alive at a time.  A repeated
    or reserved doc id raises MalformedRecord and leaves ``path`` as it
    was.
    """
    seen: set[str] = set()
    with atomic_write(path) as fh:
        fh.write("{")
        sep = "\n"
        if meta:
            fh.write(f'{sep}"_meta": {json.dumps(meta)}')
            sep = ",\n"
        for report in ds.reports:
            doc_id = report.doc_id
            if doc_id == "_meta":
                raise MalformedRecord(doc_id, "reserved key used as a doc_id")
            if doc_id in seen:
                raise MalformedRecord(doc_id, "duplicate doc_id")
            seen.add(doc_id)
            fh.write(f"{sep}{json.dumps(doc_id)}: {json.dumps(serialize_report(report))}")
            sep = ",\n"
        fh.write("\n}\n")


# --- label statistics -------------------------------------------------------


def _aligned(rows) -> list[str]:
    """Table rows as lines, each column left-aligned to its widest cell
    and two spaces apart, with trailing spaces stripped."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows
    ]


# Table rows: anatomy aggregated over its subtree, all other leaves listed.
ENTITY_ROWS = ("ANAT",) + tuple(l for l in ENTITY_LABELS if l != "ANAT-DP")


def _entity_row(label: str) -> str:
    return "ANAT" if label_group(label) == "ANAT" else label


# The table's two sections, alike in shape: a name and its rows.
_SECTIONS = (("entities", ENTITY_ROWS), ("relations", RELATION_KINDS))


def _pct(count: int, total: int) -> float:
    return 100.0 * count / total if total else 0.0


@dataclass
class ColumnStats:
    """Counts for one statistics column (a split, or a split+source)."""

    name: str
    entity_counts: dict[str, int]
    relation_counts: dict[str, int]

    @property
    def total_entities(self) -> int:
        return sum(self.entity_counts.values())

    @property
    def total_relations(self) -> int:
        return sum(self.relation_counts.values())

    def entity_pct(self, row: str) -> float:
        return _pct(self.entity_counts.get(row, 0), self.total_entities)

    def relation_pct(self, kind: str) -> float:
        return _pct(self.relation_counts.get(kind, 0), self.total_relations)

    def _sections(self) -> list[tuple[str, list[tuple[str, int, float]], int]]:
        """Each of ``_SECTIONS`` in this column: its name, a (row, count,
        percentage) cell per row, and its total."""
        sections = []
        for (name, rows), counts in zip(_SECTIONS, (self.entity_counts, self.relation_counts)):
            total = sum(counts.values())
            cells = [(row, counts.get(row, 0), _pct(counts.get(row, 0), total)) for row in rows]
            sections.append((name, cells, total))
        return sections


@dataclass
class LabelStats:
    columns: list[ColumnStats]

    def to_json(self) -> dict:
        columns = []
        for c in self.columns:
            column = {"name": c.name}
            for name, cells, total in c._sections():
                column[name] = {row: {"count": n, "pct": round(pct, 1)} for row, n, pct in cells}
                column[f"total_{name}"] = total
            columns.append(column)
        return {
            "entity_rows": list(ENTITY_ROWS),
            "relation_rows": list(RELATION_KINDS),
            "columns": columns,
        }

    def to_text(self) -> str:
        """Aligned-column rendering with one-decimal percentages."""
        labels = [""]
        for name, rows in _SECTIONS:
            labels += [*rows, f"Total {name.title()}"]
        table = [labels]
        for c in self.columns:
            cells = [c.name]
            for _, section, total in c._sections():
                cells += [f"{n} ({pct:.1f})" for _, n, pct in section]
                cells.append(f"{total} (100.0)" if total else "0 (0.0)")
            table.append(cells)
        return "\n".join(_aligned(list(zip(*table)))) + "\n"


def label_statistics(ds: Dataset) -> LabelStats:
    """Per-column entity and relation label counts with percentages,
    from one pass over the reports.

    The columns are train, validation, then the test split per source:
    the sources of SOURCES in their order, then any other by name.
    """
    counts: dict[str, tuple[Counter, Counter]] = {}
    for report in ds.reports:
        if report.split == "test":
            name = f"test/{report.source}"
        elif report.split in SPLITS:
            name = report.split
        else:
            continue
        entity_counts, relation_counts = counts.setdefault(name, (Counter(), Counter()))
        for ent in report.entities.values():
            entity_counts[_entity_row(ent.label)] += 1
        for rel in report.relations:
            relation_counts[rel.kind] += 1
    first = ["train", "validation"] + [f"test/{source}" for source in SOURCES]
    order = [name for name in first if name in counts] + sorted(counts.keys() - set(first))
    return LabelStats(
        [ColumnStats(name, dict(counts[name][0]), dict(counts[name][1])) for name in order]
    )


# --- token-level projection and agreement -----------------------------------


@slot_init
@dataclass(frozen=True, slots=True)
class TokenLabeling:
    """Per-token leaf label (or NONE) for one report."""

    doc_id: str
    labels: tuple[str, ...]


def to_token_labeling(graph: ReportGraph) -> TokenLabeling:
    """Project entities onto tokens; uncovered tokens get NONE.

    Overlapping entities with the same label merge silently; different
    labels on one token raise OverlapConflict.
    """
    labels = [NONE_LABEL] * len(graph.tokens)
    for ent in graph.entities.values():
        for i in range(ent.start_ix, ent.end_ix + 1):
            if labels[i] != NONE_LABEL and labels[i] != ent.label:
                raise OverlapConflict(
                    f"{graph.doc_id}: token {i} covered by both "
                    f"{labels[i]} and {ent.label}"
                )
            labels[i] = ent.label
    return TokenLabeling(doc_id=graph.doc_id, labels=tuple(labels))


def cohens_kappa(a, b) -> float:
    """Chance-corrected agreement between two equal-length labelings.

    Accepts TokenLabeling values or plain label sequences.  Perfect
    observed agreement returns exactly 1.0, which also covers the
    degenerate case of both marginals concentrated on one label.
    """
    labels_a = a.labels if isinstance(a, TokenLabeling) else tuple(a)
    labels_b = b.labels if isinstance(b, TokenLabeling) else tuple(b)
    if len(labels_a) != len(labels_b):
        raise LengthMismatch(
            f"labelings differ in length: {len(labels_a)} vs {len(labels_b)}"
        )
    if not labels_a:
        raise LengthMismatch("empty labelings")

    n = len(labels_a)
    agree = sum(1 for x, y in zip(labels_a, labels_b) if x == y)
    p_o = agree / n
    if p_o == 1.0:
        return 1.0

    marg_a = Counter(labels_a)
    marg_b = Counter(labels_b)
    p_e = sum(marg_a[l] * marg_b.get(l, 0) for l in marg_a) / (n * n)
    return (p_o - p_e) / (1.0 - p_e)


def dataset_kappa(ds_a: Dataset, ds_b: Dataset) -> float:
    """Token-level kappa between two annotation sets of the same reports."""
    by_a, by_b = ds_a.by_id(), ds_b.by_id()
    if set(by_a) != set(by_b):
        only_a = sorted(set(by_a) - set(by_b))
        only_b = sorted(set(by_b) - set(by_a))
        raise DocMismatch(f"doc sets differ (only in A: {only_a}, only in B: {only_b})")
    labels_a: list[str] = []
    labels_b: list[str] = []
    for doc_id in sorted(by_a):
        la = to_token_labeling(by_a[doc_id])
        lb = to_token_labeling(by_b[doc_id])
        if len(la.labels) != len(lb.labels):
            raise LengthMismatch(f"{doc_id}: token counts differ")
        labels_a.extend(la.labels)
        labels_b.extend(lb.labels)
    return cohens_kappa(labels_a, labels_b)
