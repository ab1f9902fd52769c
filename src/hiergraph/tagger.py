"""Token tagging model and its two-phase trainer.

The model embeds each token, concatenates a fixed window of embeddings
around each position, and scores that window with one linear layer over
the taxonomy leaves plus a non-entity class.  Phase one trains with the
per-depth tree loss, phase two fine-tunes with flat cross-entropy at a
lower learning rate.  All updates use the analytic gradients from
``losses``; runs are bit-reproducible given the seed.

Training and prediction work on blocks: the reports of a minibatch, or
of a ``predict_tags`` batch, in order, grouped into runs of at most
``_BLOCK_TOKENS`` tokens, laid out as one token sequence with ``window``
zero gap slots between reports.  Each block costs one set of array calls
however many reports it holds, and the gap slots keep every window
inside its own report.  A run whose last epoch
clamps more than half of its tokens, or whose logits stop being finite,
raises ``TrainingDiverged``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import losses
from ._lazy import numpy as np
from .corpus import Dataset, to_token_labeling
from .errors import (
    EmptyDataset,
    LengthMismatch,
    NonFiniteLogit,
    TaxonomyMismatch,
    TrainingDiverged,
)
from .schema import ENTITY_LABELS, NONE_LABEL, Entity
from .settings import TrainConfig
from .taxonomy import TaxonomyTree

OOV_INDEX = 0

# Training blocks hold at most this many tokens (a longer report is a
# block alone).  A block's window features are one (tokens x (2w+1)E)
# matrix: the cap lets short reports share one set of array calls, and
# keeps that matrix near one long report's.  Whole 8-report minibatches
# of 240-token reports as one block raised the benchmark's peak RSS from
# 48.4 to 55.4 MB (+15%), and made training slower rather than faster.
_BLOCK_TOKENS = 256


@dataclass
class TaggerParams:
    """Learned parameters plus the fixed lookups needed to apply them."""

    vocab: dict[str, int]
    labels: tuple[str, ...]
    window: int
    embed_dim: int
    embeddings: np.ndarray
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        width = (2 * self.window + 1) * self.embed_dim
        if self.weights.shape != (width, len(self.labels)):
            raise LengthMismatch(
                f"weights shape {self.weights.shape} does not match "
                f"window {self.window} x dim {self.embed_dim} x "
                f"{len(self.labels)} labels"
            )
        if self.bias.shape != (len(self.labels),):
            raise LengthMismatch(f"bias shape {self.bias.shape} is wrong")


def tag_tree_for(tree: TaxonomyTree) -> TaxonomyTree:
    """The taxonomy extended with the non-entity leaf, logit order last.

    Its leaves are the labels a tagger emits, so every taxonomy leaf must
    be an entity label; TaxonomyMismatch names those that are not.
    """
    tag_tree = tree.with_extra_leaf(NONE_LABEL)
    foreign = [leaf for leaf in tree.leaves if leaf not in ENTITY_LABELS]
    if foreign:
        raise TaxonomyMismatch(
            f"taxonomy leaves are not entity labels: {', '.join(foreign)}"
        )
    return tag_tree


def build_vocab(ds: Dataset) -> dict[str, int]:
    """Token -> index in first-occurrence order; index 0 is unknown."""
    vocab: dict[str, int] = {}
    for report in ds.reports:
        for token in report.tokens:
            if token not in vocab:
                vocab[token] = len(vocab) + 1
    return vocab


def _window_features(params: TaggerParams, rows: np.ndarray) -> np.ndarray:
    """(T, (2w+1)E) feature matrix of the (T, E) embedding rows of a
    token sequence; out-of-range positions are zeros."""
    t = len(rows)
    w, e = params.window, params.embed_dim
    padded = np.zeros((t + 2 * w, e))
    padded[w : w + t] = rows
    return np.concatenate([padded[j : j + t] for j in range(2 * w + 1)], axis=1)


def _embedding_grad(params: TaggerParams, d_phi: np.ndarray) -> np.ndarray:
    """(T, E) gradient of a sequence's embedding rows from the (T, (2w+1)E)
    gradient of its window features: the transpose of ``_window_features``."""
    t = len(d_phi)
    w, e = params.window, params.embed_dim
    padded = np.zeros((t + 2 * w, e))
    for j in range(2 * w + 1):
        padded[j : j + t] += d_phi[:, j * e : (j + 1) * e]
    return padded[w : w + t]


def _scatter_rows(token_ids: np.ndarray, grads: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, E) sums of the (T, E) rows ``grads``, row t added into
    row ``token_ids[t]``, in order: the bits of ``np.add.at`` on zeros,
    by one ``np.bincount`` over the flat cells ``token_id * E + column``."""
    e = grads.shape[1]
    cells = (token_ids[:, None] * e + np.arange(e)).ravel()
    return np.bincount(cells, weights=grads.ravel(), minlength=n_rows * e).reshape(n_rows, e)


def _blocks(sizes: list[int], window: int):
    """Reports of ``sizes`` tokens, in order, in blocks of at most
    ``_BLOCK_TOKENS`` tokens; a longer report is a block alone.

    Yields ``(start, stop, rows, length)``: the block's tokens are
    ``start:stop`` of the reports' tokens laid end to end; ``rows`` gives
    the row of each in the block's sequence, and ``length`` that
    sequence's length.  The sequence puts ``window`` gap slots between
    consecutive reports.
    """
    first = start = 0
    while first < len(sizes):
        last, size = first + 1, sizes[first]
        while last < len(sizes) and size + sizes[last] <= _BLOCK_TOKENS:
            size += sizes[last]
            last += 1
        gaps = window * np.repeat(np.arange(last - first), sizes[first:last])
        yield start, start + size, np.arange(size) + gaps, size + window * (last - first - 1)
        first, start = last, start + size


def _block_features(params: TaggerParams, token_ids, rows, length) -> np.ndarray:
    """Window features of a ``_blocks`` block's sequence: its tokens'
    embeddings at ``rows``, zeros in the gap slots."""
    x = np.zeros((length, params.embed_dim))
    x[rows] = params.embeddings[token_ids]
    return _window_features(params, x)


def _token_ids(vocab: dict[str, int], tokens) -> np.ndarray:
    return np.array([vocab.get(tok, OOV_INDEX) for tok in tokens], dtype=int)


def _prepare(ds: Dataset, tag_tree: TaxonomyTree, vocab: dict[str, int]):
    """Per-report (token ids, gold leaf indices)."""
    leaf_pos = {name: i for i, name in enumerate(tag_tree.leaves)}
    samples = []
    for report in ds.reports:
        labeling = to_token_labeling(report)
        for lab in labeling.labels:
            if lab not in leaf_pos:
                raise TaxonomyMismatch(
                    f"{report.doc_id}: label {lab!r} is not a taxonomy leaf"
                )
        gold = np.array([leaf_pos[lab] for lab in labeling.labels], dtype=np.intp)
        samples.append((_token_ids(vocab, report.tokens), gold))
    return samples


def _run_phase(
    params: TaggerParams,
    tag_tree: TaxonomyTree,
    samples: list[tuple[np.ndarray, np.ndarray]],
    loss_fn,
    epochs: int,
    lr: float,
    cfg: TrainConfig,
    rng: np.random.Generator,
    phase: int,
    on_epoch,
) -> dict | None:
    """Minibatch gradient descent with one loss call per minibatch.

    Each minibatch is split by ``_blocks``.  A block gets one embedding
    gather into its sequence (gap slots stay zero), one window-feature
    matrix and one forward GEMM; the logits of its real tokens are
    picked out, and the minibatch's real-token rows go through the loss
    as one matrix, in report order.  On the way back each block's
    gradient is scattered to its real rows (gap rows stay zero), gives
    one weight-gradient GEMM, one feature-gradient GEMM and one
    ``_embedding_grad``; the real tokens' rows of all blocks are added
    into the embedding gradient by one ``_scatter_rows``.  The gap
    bookkeeping only touches arrays one embedding or one leaf row wide,
    never the window features.

    Returns the last epoch's record, or None when ``epochs`` is zero.
    """
    n_leaves = len(params.labels)
    record = None
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(samples))
        loss_sum = 0.0
        depth_sums: dict[int, float] = {}
        clamped = 0
        token_count = 0
        grad_norm_sum = 0.0
        updates = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [
                samples[s]
                for s in order[start : start + cfg.batch_size]
                if len(samples[s][0])
            ]
            if not batch:
                continue
            batch_ids = np.concatenate([token_ids for token_ids, _ in batch])
            blocks = list(_blocks([len(token_ids) for token_ids, _ in batch], params.window))
            feats, logits = [], []
            for start, stop, rows, length in blocks:
                phi = _block_features(params, batch_ids[start:stop], rows, length)
                feats.append(phi)
                logits.append((phi @ params.weights)[rows])
            try:
                report = loss_fn(
                    tag_tree,
                    np.concatenate(logits) + params.bias,
                    np.concatenate([gold for _, gold in batch]),
                )
            except NonFiniteLogit:
                raise TrainingDiverged(
                    f"phase {phase} epoch {epoch}: logits are no longer finite "
                    f"({clamped} of {token_count} tokens clamped before them)"
                ) from None
            loss_sum += report.loss
            clamped += report.clamped
            for d, v in report.per_depth.items():
                depth_sums[d] = depth_sums.get(d, 0.0) + v

            d_w = np.zeros_like(params.weights)
            d_rows = []
            for (start, stop, rows, length), phi in zip(blocks, feats):
                g = np.zeros((length, n_leaves))
                g[rows] = report.grad[start:stop]
                d_w += phi.T @ g
                d_rows.append(_embedding_grad(params, g @ params.weights.T)[rows])
            d_emb = _scatter_rows(batch_ids, np.concatenate(d_rows), len(params.embeddings))
            n = len(batch_ids)
            token_count += n
            d_w /= n
            grad_norm_sum += float(np.linalg.norm(d_w))
            updates += 1
            params.weights -= lr * (d_w + cfg.l2 * params.weights)
            params.bias -= lr * (report.grad.sum(axis=0) / n)
            params.embeddings -= lr * (d_emb / n)
        per_token = token_count or 1
        record = {
            "phase": phase,
            "epoch": epoch,
            "loss": loss_sum / per_token,
            "tokens": token_count,
            "per_depth": {d: v / per_token for d, v in sorted(depth_sums.items())},
            "clamped": clamped,
            "weight_norm": float(np.linalg.norm(params.weights)),
            "grad_norm": grad_norm_sum / (updates or 1),
        }
        if on_epoch is not None:
            on_epoch(record)
    return record


def train_two_phase(
    ds: Dataset,
    tree: TaxonomyTree,
    cfg: TrainConfig | None = None,
    on_epoch=None,
) -> TaggerParams:
    """Train the tagger: tree loss first, then a flat fine-tune.

    Setting ``phase1_epochs`` to zero yields the flat-only baseline.
    Raises TrainingDiverged when the last epoch run clamped more than
    half of its tokens, or when logits stop being finite.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    if not ds.reports:
        raise EmptyDataset("no reports to train on")

    tag_tree = tag_tree_for(tree)
    vocab = build_vocab(ds)
    samples = _prepare(ds, tag_tree, vocab)
    if not any(len(token_ids) for token_ids, _ in samples):
        raise EmptyDataset("no tokens to train on")

    rng = np.random.default_rng(cfg.seed)
    width = (2 * cfg.window + 1) * cfg.embed_dim
    params = TaggerParams(
        vocab=vocab,
        labels=tag_tree.leaves,
        window=cfg.window,
        embed_dim=cfg.embed_dim,
        embeddings=rng.normal(0.0, 0.1, size=(len(vocab) + 1, cfg.embed_dim)),
        weights=np.zeros((width, len(tag_tree.leaves))),
        bias=np.zeros(len(tag_tree.leaves)),
    )

    last = None
    # Overflow on the way to divergence is reported as TrainingDiverged,
    # not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for phase, loss_fn, epochs, lr in (
            (1, losses.conditional_hier_loss, cfg.phase1_epochs, cfg.lr_phase1),
            (2, losses.unconditional_loss, cfg.phase2_epochs, cfg.lr_phase2),
        ):
            record = _run_phase(
                params, tag_tree, samples, loss_fn, epochs, lr, cfg, rng, phase, on_epoch
            )
            last = record or last
    if last is not None and 2 * last["clamped"] > last["tokens"]:
        raise TrainingDiverged(
            f"phase {last['phase']} epoch {last['epoch']}: {last['clamped']} of "
            f"{last['tokens']} tokens clamped; lower the learning rates"
        )
    return params


def predict_tags(params: TaggerParams, tree: TaxonomyTree, tokens) -> list:
    """Per-token label names (including the non-entity class).

    ``tokens`` is one report's token sequence, which gives its tag list,
    or a list of such sequences, which gives one tag list per report.
    The batch's token ids are looked up in one pass into one array, and
    reports run in the same blocks as training (see ``_blocks``), so a
    batch costs one set of array calls per block, not per report.
    """
    expected = tag_tree_for(tree).leaves
    if params.labels != expected:
        raise TaxonomyMismatch(
            "model labels do not match the supplied taxonomy "
            f"({params.labels} vs {expected})"
        )
    batch = len(tokens) > 0 and not isinstance(tokens[0], str)
    reports = tokens if batch else [tokens]
    ids = _token_ids(params.vocab, chain.from_iterable(reports))
    sizes = [len(report) for report in reports if len(report)]
    names: list[str] = []
    for start, stop, rows, length in _blocks(sizes, params.window):
        logits = (_block_features(params, ids[start:stop], rows, length) @ params.weights)[rows]
        names.extend(params.labels[i] for i in np.argmax(logits + params.bias, axis=1).tolist())
    tags, start = [], 0
    for report in reports:
        tags.append(names[start : start + len(report)])
        start += len(report)
    return tags if batch else tags[0]


def decode_entities(tags, tokens, single_token: bool = False) -> list[Entity]:
    """Entities from a tag sequence.

    Adjacent tokens with the same label merge into one span unless
    ``single_token`` is set.  Ids are assigned "1", "2", ... in span
    order.
    """
    if len(tags) != len(tokens):
        raise LengthMismatch(f"{len(tags)} tags for {len(tokens)} tokens")
    entities: list[Entity] = []
    i = 0
    while i < len(tags):
        label = tags[i]
        if label == NONE_LABEL:
            i += 1
            continue
        j = i
        if not single_token:
            while j + 1 < len(tags) and tags[j + 1] == label:
                j += 1
        entities.append(
            Entity(
                id=str(len(entities) + 1),
                tokens=" ".join(tokens[i : j + 1]),
                start_ix=i,
                end_ix=j,
                label=label,
            )
        )
        i = j + 1
    return entities
