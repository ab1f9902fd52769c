"""Model persistence: one JSON container per trained model.

The file is self-describing: it embeds the taxonomy edge list and its
hash, the vocabulary, every parameter array, and the training
configuration.  A model is used with the taxonomy it embeds; a file
whose edges do not match the stored hash is refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from ._lazy import numpy as np
from .corpus import atomic_write
from .errors import (
    FileUnreadable,
    LengthMismatch,
    ModelFormatError,
    TaxonomyMismatch,
    TrainConfigError,
)
from .relations import OUTPUT_KINDS, RelationScorerParams
from .schema import NONE_LABEL
from .settings import TrainConfig
from .tagger import TaggerParams, tag_tree_for
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
            "kinds": list(OUTPUT_KINDS),
            "distance_cap": relations.distance_cap,
        },
        "train_config": None if train_config is None else asdict(train_config),
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc) + "\n")


def _is_int(obj) -> bool:
    return isinstance(obj, int) and not isinstance(obj, bool)


def _int(obj, name: str, low: int) -> int:
    if not _is_int(obj) or obj < low:
        raise ModelFormatError(f"field {name!r} must be an integer >= {low}")
    return obj


def _train_config(obj) -> TrainConfig:
    """A stored training configuration, checked field by field."""
    # Each field's type is that of its default: int or float.
    known = {f.name: type(f.default) for f in fields(TrainConfig)}
    if not isinstance(obj, dict) or not set(obj) <= set(known):
        raise ModelFormatError(
            f"train_config must be an object with keys among {sorted(known)}"
        )
    for name, value in obj.items():
        if known[name] is float:
            ok = (_is_int(value) or isinstance(value, float)) and math.isfinite(value)
        else:
            ok = _is_int(value)
        if not ok:
            raise ModelFormatError(f"train_config.{name} must be {known[name].__name__}")
    cfg = TrainConfig(**obj)
    try:
        cfg.validate()
    except TrainConfigError as exc:
        raise ModelFormatError(f"train_config: {exc}") from exc
    return cfg


def load_model(path: str) -> LoadedModel:
    """Load a model file with the taxonomy it embeds.

    The taxonomy is rebuilt from the embedded edges and verified against
    the stored hash.  A file that is not a well-formed model raises
    ``ModelFormatError``.
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
            if tuple(rel_doc["kinds"]) != OUTPUT_KINDS:
                raise ModelFormatError(f"relations.kinds must be {list(OUTPUT_KINDS)}")
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
    if labels != tag_tree_for(embedded).leaves:
        raise ModelFormatError(f"tagger.labels must be the taxonomy leaves, then {NONE_LABEL!r}")

    if embeddings.ndim != 2 or embeddings.shape[1] != embed_dim or not len(embeddings):
        raise ModelFormatError(
            f"embeddings shape {embeddings.shape} does not match embed_dim {embed_dim}"
        )
    if not isinstance(vocab, dict) or not all(
        _is_int(i) and 1 <= i < len(embeddings) for i in vocab.values()
    ):
        raise ModelFormatError(f"vocab ids must be integers in 1..{len(embeddings) - 1}")
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
            relations = RelationScorerParams(weights=rel_weights, distance_cap=cap)
    except LengthMismatch as exc:
        raise ModelFormatError(str(exc)) from exc

    cfg_doc = doc.get("train_config")
    train_config = None if cfg_doc is None else _train_config(cfg_doc)

    return LoadedModel(
        tree=embedded, tagger=tagger, relations=relations, train_config=train_config
    )
