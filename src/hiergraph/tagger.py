"""Token tagging model and its two-phase trainer.

The model embeds each token, concatenates a fixed window of embeddings
around each position, and scores that window with one linear layer over
the taxonomy leaves plus a non-entity class.  Phase one trains with the
per-depth tree loss, phase two fine-tunes with flat cross-entropy at a
lower learning rate.  All updates use the analytic gradients from
``losses``; runs are bit-reproducible given the seed.

Training works on blocks: the reports of a minibatch, in order, grouped
into runs of at most ``_BLOCK_TOKENS`` tokens, laid out as one token
sequence with ``window`` zero gap slots between reports.  Each block
costs one set of array calls however many reports it holds, and the gap
slots keep every window inside its own report.  A run whose last epoch
clamps more than half of its tokens, or whose logits stop being finite,
raises ``TrainingDiverged``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import numpy as np
from .corpus import Dataset, to_token_labeling
from .errors import (
    DuplicateNode,
    EmptyDataset,
    LengthMismatch,
    NonFiniteLogit,
    TaxonomyMismatch,
    TrainConfigError,
    TrainingDiverged,
)
from .losses import conditional_hier_loss, unconditional_loss
from .schema import NONE_LABEL, Entity
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
class TrainConfig:
    phase1_epochs: int = 20
    phase2_epochs: int = 10
    lr_phase1: float = 0.1
    lr_phase2: float = 0.02
    seed: int = 0
    batch_size: int = 8
    l2: float = 0.0
    window: int = 2
    embed_dim: int = 32

    def validate(self) -> None:
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise TrainConfigError("epoch counts must be >= 0")
        if not (0 < self.lr_phase1 < np.inf and 0 < self.lr_phase2 < np.inf):
            raise TrainConfigError("learning rates must be positive and finite")
        if self.lr_phase2 >= self.lr_phase1:
            raise TrainConfigError("phase two must use a smaller learning rate")
        if self.batch_size < 1:
            raise TrainConfigError("batch_size must be >= 1")
        if not 0 <= self.l2 < np.inf:
            raise TrainConfigError("l2 must be finite and >= 0")
        if self.window < 0:
            raise TrainConfigError("window must be >= 0")
        if self.embed_dim < 1:
            raise TrainConfigError("embed_dim must be >= 1")


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
    """The taxonomy extended with the non-entity leaf, logit order last."""
    return tree.with_extra_leaf(NONE_LABEL)


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


def _blocks(batch: list[tuple[np.ndarray, np.ndarray]], window: int):
    """The reports of ``batch``, in order, in blocks of at most
    ``_BLOCK_TOKENS`` tokens; a longer report is a block alone.

    Yields ``(token_ids, rows, length)``: the block's token ids, the row
    of each in the block's sequence, and that sequence's length.  The
    sequence puts ``window`` gap slots between consecutive reports.
    """
    start = 0
    while start < len(batch):
        stop, size = start + 1, len(batch[start][0])
        while stop < len(batch) and size + len(batch[stop][0]) <= _BLOCK_TOKENS:
            size += len(batch[stop][0])
            stop += 1
        group = [token_ids for token_ids, _ in batch[start:stop]]
        gaps = window * np.repeat(np.arange(len(group)), [len(ids) for ids in group])
        yield np.concatenate(group), np.arange(size) + gaps, size + window * (len(group) - 1)
        start = stop


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
    ``_embedding_grad``, and its real tokens' rows are added into the
    embedding gradient.  The gap bookkeeping only touches arrays one
    embedding or one leaf row wide, never the window features.

    Returns the last epoch's record, or None when ``epochs`` is zero.
    """
    e, n_leaves = params.embed_dim, len(params.labels)
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
            blocks = list(_blocks(batch, params.window))
            feats, logits = [], []
            for token_ids, rows, length in blocks:
                x = np.zeros((length, e))
                x[rows] = params.embeddings[token_ids]
                phi = _window_features(params, x)
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

            d_emb = np.zeros_like(params.embeddings)
            d_w = np.zeros_like(params.weights)
            ends = np.cumsum([len(token_ids) for token_ids, _, _ in blocks])
            for (token_ids, rows, length), phi, g_real in zip(
                blocks, feats, np.split(report.grad, ends[:-1])
            ):
                g = np.zeros((length, n_leaves))
                g[rows] = g_real
                d_w += phi.T @ g
                np.add.at(d_emb, token_ids, _embedding_grad(params, g @ params.weights.T)[rows])
            n = int(ends[-1])
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
            (1, conditional_hier_loss, cfg.phase1_epochs, cfg.lr_phase1),
            (2, unconditional_loss, cfg.phase2_epochs, cfg.lr_phase2),
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


def predict_tags(params: TaggerParams, tree: TaxonomyTree, tokens) -> list[str]:
    """Per-token label names (including the non-entity class)."""
    # The leaves of tag_tree_for(tree), without building that tree.
    if NONE_LABEL in tree:
        raise DuplicateNode(f"node {NONE_LABEL!r} already exists")
    expected = tree.leaves + (NONE_LABEL,)
    if params.labels != expected:
        raise TaxonomyMismatch(
            "model labels do not match the supplied taxonomy "
            f"({params.labels} vs {expected})"
        )
    if not tokens:
        return []
    phi = _window_features(params, params.embeddings[_token_ids(params.vocab, tokens)])
    logits = phi @ params.weights + params.bias
    picks = np.argmax(logits, axis=1)
    return [params.labels[int(i)] for i in picks]


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
