"""Model persistence: one JSON container per trained model.

The file is self-describing: it embeds the taxonomy edge list and its
hash, the vocabulary, every parameter array, and the training
configuration.  Loading against a different taxonomy is refused.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    FileUnreadable,
    LengthMismatch,
    ModelFormatError,
    TaxonomyMismatch,
)
from .relations import RelationScorerParams
from .tagger import TaggerParams, TrainConfig
from .taxonomy import TaxonomyTree

FORMAT_VERSION = 1


@dataclass
class LoadedModel:
    tree: TaxonomyTree
    tagger: TaggerParams
    relations: RelationScorerParams | None
    train_config: TrainConfig | None


def _array(obj, name: str) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"field {name!r} is not numeric") from exc
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"field {name!r} holds non-finite values")
    return arr


def save_model(
    path: str,
    tree: TaxonomyTree,
    tagger: TaggerParams,
    relations: RelationScorerParams | None = None,
    train_config: TrainConfig | None = None,
) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "taxonomy_hash": tree.config_hash,
        "taxonomy_edges": [list(e) for e in tree.edges],
        "tagger": {
            "vocab": tagger.vocab,
            "labels": list(tagger.labels),
            "window": tagger.window,
            "embed_dim": tagger.embed_dim,
            "embeddings": tagger.embeddings.tolist(),
            "weights": tagger.weights.tolist(),
            "bias": tagger.bias.tolist(),
        },
        "relations": None
        if relations is None
        else {
            "weights": relations.weights.tolist(),
            "kinds": list(relations.kinds),
            "distance_cap": relations.distance_cap,
        },
        "train_config": None if train_config is None else asdict(train_config),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def _is_int(obj) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def _int(obj, name: str, low: int) -> int:
    if not _is_int(obj) or obj < low:
        raise ModelFormatError(f"field {name!r} must be an integer >= {low}")
    return obj


def load_model(path: str, tree: TaxonomyTree | None = None) -> LoadedModel:
    """Load a model file, checking it against ``tree`` when supplied.

    Without a tree the taxonomy is rebuilt from the embedded edges and
    verified against the stored hash.  A file that is not a well-formed
    model raises ``ModelFormatError``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileUnreadable(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ModelFormatError(f"{path}: invalid JSON: {exc}") from exc

    if not isinstance(doc, dict) or doc.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(f"{path}: unknown model format")
    try:
        stored_hash = doc["taxonomy_hash"]
        edges = doc["taxonomy_edges"]
        tagger_doc = doc["tagger"]
        vocab = tagger_doc["vocab"]
        labels = tuple(tagger_doc["labels"])
        window = _int(tagger_doc["window"], "tagger.window", 0)
        embed_dim = _int(tagger_doc["embed_dim"], "tagger.embed_dim", 1)
        embeddings = _array(tagger_doc["embeddings"], "embeddings")
        weights = _array(tagger_doc["weights"], "weights")
        bias = _array(tagger_doc["bias"], "bias")
        rel_doc = doc.get("relations")
        if rel_doc is not None:
            rel_weights = _array(rel_doc["weights"], "relations.weights")
            kinds = tuple(rel_doc["kinds"])
            cap = _int(rel_doc["distance_cap"], "relations.distance_cap", 0)
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"{path}: missing or malformed field: {exc}") from exc

    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(isinstance(n, str) for n in e)
        for e in edges
    ):
        raise ModelFormatError("taxonomy_edges must be [parent, child] name pairs")
    embedded = TaxonomyTree.from_edges([tuple(e) for e in edges])
    if embedded.config_hash != stored_hash:
        raise TaxonomyMismatch("embedded taxonomy does not match its stored hash")
    if tree is not None:
        if tree.config_hash != stored_hash:
            raise TaxonomyMismatch(
                "model was trained against a different taxonomy "
                f"({stored_hash[:12]} vs {tree.config_hash[:12]})"
            )
        embedded = tree

    if embeddings.ndim != 2 or embeddings.shape[1] != embed_dim or not len(embeddings):
        raise ModelFormatError(
            f"embeddings shape {embeddings.shape} does not match embed_dim {embed_dim}"
        )
    if not isinstance(vocab, dict) or not all(
        _is_int(i) and 1 <= i < len(embeddings) for i in vocab.values()
    ):
        raise ModelFormatError(
            f"vocab ids must be integers in 1..{len(embeddings) - 1}"
        )
    try:
        tagger = TaggerParams(
            vocab=vocab,
            labels=labels,
            window=window,
            embed_dim=embed_dim,
            embeddings=embeddings,
            weights=weights,
            bias=bias,
        )
        relations = None
        if rel_doc is not None:
            relations = RelationScorerParams(
                weights=rel_weights, kinds=kinds, distance_cap=cap
            )
    except LengthMismatch as exc:
        raise ModelFormatError(str(exc)) from exc

    train_config = None
    cfg_doc = doc.get("train_config")
    if cfg_doc is not None:
        known = {f.name for f in fields(TrainConfig)}
        if not isinstance(cfg_doc, dict) or not set(cfg_doc) <= known:
            raise ModelFormatError(
                f"train_config must be an object with keys among {sorted(known)}"
            )
        train_config = TrainConfig(**cfg_doc)

    return LoadedModel(
        tree=embedded, tagger=tagger, relations=relations, train_config=train_config
    )
