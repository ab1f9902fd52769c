"""Token tagging model and its two-phase trainer.

The model embeds each token, concatenates a fixed window of embeddings
around each position, and scores that window with one linear layer over
the taxonomy leaves plus a non-entity class.  Phase one trains with the
per-depth tree loss, phase two fine-tunes with flat cross-entropy at a
lower learning rate.  All updates use the analytic gradients from
``losses``; runs are bit-reproducible given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Dataset, to_token_labeling
from .errors import (
    EmptyDataset,
    LengthMismatch,
    TaxonomyMismatch,
    TrainConfigError,
)
from .losses import conditional_hier_loss, unconditional_loss
from .schema import NONE_LABEL, Entity
from .taxonomy import TaxonomyTree

OOV_INDEX = 0


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
        if self.lr_phase1 <= 0 or self.lr_phase2 <= 0:
            raise TrainConfigError("learning rates must be positive")
        if self.lr_phase2 >= self.lr_phase1:
            raise TrainConfigError("phase two must use a smaller learning rate")
        if self.batch_size < 1:
            raise TrainConfigError("batch_size must be >= 1")
        if self.l2 < 0:
            raise TrainConfigError("l2 must be >= 0")
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


def _window_features(params: TaggerParams, token_ids: np.ndarray) -> np.ndarray:
    """(T, (2w+1)E) feature matrix; out-of-range positions are zeros."""
    t = len(token_ids)
    w, e = params.window, params.embed_dim
    padded = np.zeros((t + 2 * w, e))
    padded[w : w + t] = params.embeddings[token_ids]
    return np.concatenate([padded[j : j + t] for j in range(2 * w + 1)], axis=1)


def _token_ids(vocab: dict[str, int], tokens) -> np.ndarray:
    return np.array([vocab.get(tok, OOV_INDEX) for tok in tokens], dtype=int)


class _Sample(NamedTuple):
    """One report, ready for training.

    ``slots`` indexes the rows of the (T * (2w+1), E) view of a window
    feature gradient that fall inside the report, window slot by window
    slot; ``rows`` is the embedding row each of them reads.
    """

    token_ids: np.ndarray
    gold: np.ndarray
    slots: np.ndarray
    rows: np.ndarray


def _prepare(ds: Dataset, tag_tree: TaxonomyTree, vocab: dict[str, int], window: int):
    """Per-report token ids, gold leaf indices and window scatter indices."""
    leaf_pos = {name: i for i, name in enumerate(tag_tree.leaves)}
    span = 2 * window + 1
    samples = []
    for report in ds.reports:
        labeling = to_token_labeling(report)
        for lab in labeling.labels:
            if lab not in leaf_pos:
                raise TaxonomyMismatch(
                    f"{report.doc_id}: label {lab!r} is not a taxonomy leaf"
                )
        token_ids = _token_ids(vocab, report.tokens)
        t = len(token_ids)
        # src[j, i]: the position window slot j of token i reads.
        src = np.arange(t) - window + np.arange(span)[:, None]
        ok = (src >= 0) & (src < t)
        slots = (np.arange(t) * span + np.arange(span)[:, None])[ok]
        samples.append(
            _Sample(
                token_ids,
                np.array([leaf_pos[lab] for lab in labeling.labels], dtype=np.intp),
                slots,
                token_ids[src[ok]],
            )
        )
    return samples


def _run_phase(
    params: TaggerParams,
    tag_tree: TaxonomyTree,
    samples: list[_Sample],
    loss_fn,
    epochs: int,
    lr: float,
    cfg: TrainConfig,
    rng: np.random.Generator,
    phase: int,
    on_epoch,
) -> None:
    """Minibatch gradient descent with one loss call per minibatch.

    Window features are built report by report, so windows never cross
    report boundaries; only the logits of a minibatch are stacked.
    """
    e = cfg.embed_dim
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(samples))
        loss_sum = 0.0
        depth_sums: dict[int, float] = {}
        clamped = 0
        token_count = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [
                samples[s]
                for s in order[start : start + cfg.batch_size]
                if len(samples[s].token_ids)
            ]
            if not batch:
                continue
            feats = [_window_features(params, s.token_ids) for s in batch]
            logits = np.concatenate([phi @ params.weights for phi in feats])
            report = loss_fn(
                tag_tree, logits + params.bias, np.concatenate([s.gold for s in batch])
            )
            loss_sum += report.loss
            clamped += report.clamped
            for d, v in report.per_depth.items():
                depth_sums[d] = depth_sums.get(d, 0.0) + v

            d_emb = np.zeros_like(params.embeddings)
            d_w = np.zeros_like(params.weights)
            ends = np.cumsum([len(s.token_ids) for s in batch])
            for s, phi, g in zip(batch, feats, np.split(report.grad, ends[:-1])):
                d_w += phi.T @ g
                d_phi = (g @ params.weights.T).reshape(-1, e)
                np.add.at(d_emb, s.rows, d_phi[s.slots])
            n = int(ends[-1])
            token_count += n
            params.weights -= lr * (d_w / n + cfg.l2 * params.weights)
            params.bias -= lr * (report.grad.sum(axis=0) / n)
            params.embeddings -= lr * (d_emb / n)
        if on_epoch is not None:
            per_token = token_count or 1
            on_epoch(
                {
                    "phase": phase,
                    "epoch": epoch,
                    "loss": loss_sum / per_token,
                    "tokens": token_count,
                    "per_depth": {
                        d: v / per_token for d, v in sorted(depth_sums.items())
                    },
                    "clamped": clamped,
                }
            )


def train_two_phase(
    ds: Dataset,
    tree: TaxonomyTree,
    cfg: TrainConfig | None = None,
    on_epoch=None,
) -> TaggerParams:
    """Train the tagger: tree loss first, then a flat fine-tune.

    Setting ``phase1_epochs`` to zero yields the flat-only baseline.
    """
    cfg = cfg or TrainConfig()
    cfg.validate()
    if not ds.reports:
        raise EmptyDataset("no reports to train on")

    tag_tree = tag_tree_for(tree)
    vocab = build_vocab(ds)
    samples = _prepare(ds, tag_tree, vocab, cfg.window)
    if not any(len(s.token_ids) for s in samples):
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

    _run_phase(
        params, tag_tree, samples, conditional_hier_loss, cfg.phase1_epochs,
        cfg.lr_phase1, cfg, rng, 1, on_epoch,
    )
    _run_phase(
        params, tag_tree, samples, unconditional_loss, cfg.phase2_epochs,
        cfg.lr_phase2, cfg, rng, 2, on_epoch,
    )
    return params


def predict_tags(params: TaggerParams, tree: TaxonomyTree, tokens) -> list[str]:
    """Per-token label names (including the non-entity class)."""
    expected = tag_tree_for(tree).leaves
    if params.labels != expected:
        raise TaxonomyMismatch(
            "model labels do not match the supplied taxonomy "
            f"({params.labels} vs {expected})"
        )
    if not tokens:
        return []
    token_ids = _token_ids(params.vocab, tokens)
    phi = _window_features(params, token_ids)
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
