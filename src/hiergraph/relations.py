"""Linear pairwise relation scorer.

Candidate pairs are ordered entity pairs whose start positions lie
within a token-distance cap.  Every pair feature is one-hot: the source
label, the target label, the bucket of the signed token offset, the
direction of that offset, and a constant.  The direction follows from
the bucket, so a pair's features depend only on its cell, the triple
(source label, target label, bucket).  One table holds the features of
every cell.  Training tallies the pairs of each cell by gold kind, and
decoding looks each pair up in a table over the cells that holds the
kept kind: the non-none argmax, if it passes the schema signature filter.

``candidate_pairs`` and ``predict_relations`` take one report's
entities or a sequence of reports.  Pairs are enumerated with array
operations over the sorted start positions, a block of reports at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import numpy as np
from .corpus import Dataset
from .errors import EmptyDataset, LengthMismatch, TrainConfigError
from .schema import (
    ENTITY_LABELS,
    RELATION_KINDS,
    Entity,
    Relation,
    relation_signature_allowed,
)
from .settings import DEFAULT_DISTANCE_CAP

NONE_KIND = "none"
OUTPUT_KINDS = RELATION_KINDS + (NONE_KIND,)

# Signed offset dst.start - src.start is bucketed into these inclusive
# ranges; near offsets get their own bucket, far ones are pooled.
DISTANCE_BUCKETS = (
    (None, -11),
    (-10, -6),
    (-5, -3),
    (-2, -2),
    (-1, -1),
    (0, 0),
    (1, 1),
    (2, 2),
    (3, 5),
    (6, 10),
    (11, None),
)

# src one-hot + dst one-hot + distance buckets + direction + constant.
FEATURE_DIM = 2 * len(ENTITY_LABELS) + len(DISTANCE_BUCKETS) + 2

# Pairs are enumerated for consecutive reports holding about this many
# entities at a time, which bounds the pair arrays of one pass.
_BLOCK_ENTITIES = 1000

_LABEL_POS = {label: i for i, label in enumerate(ENTITY_LABELS)}
_KIND_POS = {kind: i for i, kind in enumerate(OUTPUT_KINDS)}

# Lower edges of every bucket but the first: an offset's bucket is the
# number of edges at or below it.  Plain tuples, so that importing this
# module does not load numpy.
_BUCKET_EDGES = tuple(lo for lo, _ in DISTANCE_BUCKETS[1:])
# The direction bit (offset > 0) of each bucket.
_FORWARD = tuple(lo is not None and lo > 0 for lo, _ in DISTANCE_BUCKETS)
assert all(
    forward or (hi is not None and hi <= 0)
    for forward, (_, hi) in zip(_FORWARD, DISTANCE_BUCKETS)
), "a distance bucket straddles offset 0"


@dataclass
class RelationScorerParams:
    """Weights over pair features, one column per output kind."""

    weights: np.ndarray
    distance_cap: int = DEFAULT_DISTANCE_CAP

    def __post_init__(self):
        if self.weights.shape != (FEATURE_DIM, len(OUTPUT_KINDS)):
            raise LengthMismatch(
                f"weights shape {self.weights.shape} != "
                f"({FEATURE_DIM}, {len(OUTPUT_KINDS)})"
            )


def _bucket(offsets) -> np.ndarray:
    """Distance bucket index of each signed offset."""
    return np.searchsorted(np.array(_BUCKET_EDGES), offsets, side="right")


# The (source label, target label, bucket) cells; a cell index is a
# position in this shape, raveled.
_CELL_SHAPE = (len(ENTITY_LABELS), len(ENTITY_LABELS), len(DISTANCE_BUCKETS))


def _cell_features() -> np.ndarray:
    """The one-hot features of every cell, one row per cell index."""
    src, dst, bucket = np.indices(_CELL_SHAPE).reshape(3, -1)
    n_labels = len(ENTITY_LABELS)
    phi = np.zeros((len(bucket), FEATURE_DIM))
    rows = np.arange(len(bucket))
    phi[rows, src] = 1.0
    phi[rows, n_labels + dst] = 1.0
    phi[rows, 2 * n_labels + bucket] = 1.0
    phi[:, -2] = np.array(_FORWARD)[bucket]
    phi[:, -1] = 1.0
    return phi


def _ordered(entities) -> list[Entity]:
    items = entities.values() if isinstance(entities, dict) else list(entities)
    return sorted(items, key=lambda e: (e.start_ix, e.end_ix, e.id))


def _reports(entities) -> tuple[list[list[Entity]], bool]:
    """Each report's entities in ``_ordered`` order, and whether
    ``entities`` was one report rather than a sequence of reports."""
    if not isinstance(entities, dict):
        entities = list(entities)
        if entities and not isinstance(entities[0], Entity):
            return [_ordered(report) for report in entities], False
    return [_ordered(entities)], True


def _pair_blocks(reports: list[list[Entity]], cap: int):
    """Candidate pairs of ``reports``, a block of consecutive reports
    with about ``_BLOCK_ENTITIES`` entities at a time.

    Yields ``(entities, src, dst, bucket, ends)``: the block's entities
    concatenated, each pair's source and target as indices into them,
    its distance bucket, and where each report's pairs end.  Pairs come
    in report, then source, then target order; entities sharing an id
    never pair.
    """
    first = 0
    while first < len(reports):
        last, size = first, 0
        while last < len(reports) and size < _BLOCK_ENTITIES:
            size += len(reports[last])
            last += 1
        block, first = reports[first:last], last
        entities = [e for report in block for e in report]
        report = np.repeat(np.arange(len(block)), [len(r) for r in block])
        starts = np.array([e.start_ix for e in entities], dtype=np.int64)
        span = int(starts.max() - starts.min()) if entities else 0
        # Caps beyond the widest spread of starts pair the same entities.
        block_cap = min(cap, span)
        # Reports lie more than the cap apart on this axis, so no window
        # of candidate targets crosses from one report into the next.
        keys = starts + report * (span + max(block_cap, 0) + 1)
        lo = np.searchsorted(keys, keys - block_cap, side="left")
        hi = np.searchsorted(keys, keys + block_cap, side="right")
        counts = np.maximum(hi - lo, 0)
        src = np.repeat(np.arange(len(entities)), counts)
        dst = np.arange(len(src)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        codes: dict[str, int] = {}
        code = np.array([codes.setdefault(e.id, len(codes)) for e in entities], dtype=np.intp)
        distinct = code[src] != code[dst]
        src, dst = src[distinct], dst[distinct]
        ends = np.cumsum(np.bincount(report[src], minlength=len(block)))
        yield entities, src, dst, _bucket(starts[dst] - starts[src]), ends


def _split(items: list, ends) -> list[list]:
    """Cut ``items`` at the report ends."""
    starts = [0, *ends[:-1]]
    return [items[a:b] for a, b in zip(starts, ends)]


def candidate_pairs(entities, cap: int = DEFAULT_DISTANCE_CAP):
    """Ordered pairs with |dst.start - src.start| <= cap, both directions.

    ``entities`` is one report's entities (a dict by id or an iterable),
    giving a list of (src, dst) pairs, or a sequence of such collections,
    giving one list per report.
    """
    reports, single = _reports(entities)
    result = []
    for flat, src, dst, _, ends in _pair_blocks(reports, cap):
        take = flat.__getitem__
        pairs = list(zip(map(take, src.tolist()), map(take, dst.tolist())))
        result += _split(pairs, ends.tolist())
    return result[0] if single else result


def _training_pairs(ds: Dataset, cap: int):
    """Features of each cell holding a candidate pair, and each such
    cell's share of all pairs per gold output kind (cells x kinds)."""
    pairs, gold = [], []
    per_report = candidate_pairs([r.entities for r in ds.reports], cap)
    for report, report_pairs in zip(ds.reports, per_report):
        kind_of = {}
        for rel in report.relations:
            kind_of.setdefault((rel.source_id, rel.target_id), rel.kind)
        gold += [_KIND_POS[kind_of.get((s.id, d.id), NONE_KIND)] for s, d in report_pairs]
        pairs += report_pairs
    if not pairs:
        raise EmptyDataset("no candidate entity pairs to train on")
    src = np.array([_LABEL_POS[s.label] for s, _ in pairs])
    dst = np.array([_LABEL_POS[d.label] for _, d in pairs])
    offsets = np.array([d.start_ix - s.start_ix for s, d in pairs])
    cells = np.ravel_multi_index((src, dst, _bucket(offsets)), _CELL_SHAPE)
    k = len(OUTPUT_KINDS)
    counts = np.bincount(cells * k + gold, minlength=np.prod(_CELL_SHAPE) * k).reshape(-1, k)
    seen = counts.any(axis=1)
    return _cell_features()[seen], counts[seen] / len(pairs)


# Nesterov steps of relation training, fixed: the benchmark corpora reach
# relation F1 1.0 on gold entities by step 75, so this leaves a 4x margin.
_TRAIN_STEPS = 300


def _share_loss(weights, x, share, l2: float):
    """Mean pair cross-entropy plus ``l2 / 2 * |weights|^2``, and its
    gradient, from the cell features ``x`` and pair shares ``share``."""
    scores = x @ weights
    scores -= scores.max(axis=1, keepdims=True)
    log_p = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
    loss = -(share * log_p).sum() + 0.5 * l2 * (weights**2).sum()
    resid = share.sum(axis=1, keepdims=True) * np.exp(log_p) - share
    return loss, x.T @ resid + l2 * weights


def train_relation_scorer(
    ds: Dataset, l2: float = 0.0, cap: int = DEFAULT_DISTANCE_CAP
) -> RelationScorerParams:
    """Cross-entropy training of the pair scorer, with the penalty
    ``l2 / 2 * |weights|^2``, by ``_TRAIN_STEPS`` full-batch Nesterov
    steps on per-cell pair counts.  The step inverts Böhning's curvature
    bound ``0.5 * max |x|^2 + l2``, so the loss cannot diverge.  The
    weights depend on the training pairs, ``cap`` and ``l2`` alone."""
    if not 0 <= l2 < np.inf:
        raise TrainConfigError("l2 must be finite and >= 0")
    if cap < 0:
        raise TrainConfigError("distance cap must be >= 0")
    x, share = _training_pairs(ds, cap)
    step = 1.0 / (0.5 * (x**2).sum(axis=1).max() + l2)
    weights = prev = np.zeros((FEATURE_DIM, len(OUTPUT_KINDS)))
    for k in range(_TRAIN_STEPS):
        ahead = weights + k / (k + 3) * (weights - prev)
        prev, weights = weights, ahead - step * _share_loss(ahead, x, share, l2)[1]
    return RelationScorerParams(weights=weights, distance_cap=cap)


def _decode_table(params: RelationScorerParams) -> np.ndarray:
    """Kept kind index per (source label, target label, bucket); -1 where
    the argmax is "none" or fails the schema signature."""
    src, dst, _ = np.indices(_CELL_SHAPE).reshape(3, -1)
    picks = np.argmax(_cell_features() @ params.weights, axis=1)
    allowed = np.array(
        [
            [
                [kind != NONE_KIND and relation_signature_allowed(kind, s, d) for d in ENTITY_LABELS]
                for s in ENTITY_LABELS
            ]
            for kind in OUTPUT_KINDS
        ]
    )
    return np.where(allowed[picks, src, dst], picks, -1).reshape(_CELL_SHAPE)


def predict_relations(params: RelationScorerParams, entities):
    """Schema-constrained decoding over all candidate pairs.

    ``entities`` is one report's entities, giving its list of relations,
    or a sequence of reports, giving one list per report, as for
    ``candidate_pairs``.  Relations come in candidate-pair order.
    """
    reports, single = _reports(entities)
    table = _decode_table(params)
    result = []
    for flat, src, dst, bucket, ends in _pair_blocks(reports, params.distance_cap):
        labels = np.array([_LABEL_POS[e.label] for e in flat], dtype=np.intp)
        kind = table[labels[src], labels[dst], bucket]
        kept = np.flatnonzero(kind >= 0)
        relations = [
            Relation(source_id=flat[i].id, target_id=flat[j].id, kind=OUTPUT_KINDS[k])
            for i, j, k in zip(src[kept].tolist(), dst[kept].tolist(), kind[kept].tolist())
        ]
        result += _split(relations, np.searchsorted(kept, ends).tolist())
    return result[0] if single else result
