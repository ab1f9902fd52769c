"""Hierarchical information extraction over report graphs.

Builds entity taxonomies, computes node probabilities from leaf logits,
trains a token tagger in two phases (tree loss, then flat fine-tune),
scores entity-pair relations, and evaluates predictions with strict
span+type matching.

Importing the package runs none of its submodules.  Each module that
owns a public name is bound through ``_lazy.bind`` and runs on first
use; each public name is looked up in its module on first access and
then kept here.
"""

from __future__ import annotations

from . import _lazy

__version__ = "0.1.0"

# The public names, by the submodule that owns them.
_EXPORTS = {
    "corpus": (
        "Dataset",
        "cohens_kappa",
        "dataset_kappa",
        "label_statistics",
        "load_dataset",
        "save_dataset",
        "to_token_labeling",
        "tokenize",
    ),
    "errors": (
        "CycleDetected",
        "DepthOutOfRange",
        "DocMismatch",
        "DuplicateNode",
        "EmptyDataset",
        "FileUnreadable",
        "HierGraphError",
        "LengthMismatch",
        "MalformedRecord",
        "ModelFormatError",
        "MultipleRoots",
        "NonFiniteLogit",
        "NotALeaf",
        "OverlapConflict",
        "RootHasNoParent",
        "TaxonomyConfigError",
        "TaxonomyMismatch",
        "TrainConfigError",
        "TrainingDiverged",
        "UnknownNode",
        "UnknownParent",
        "UnknownSplit",
        "ValidationError",
        "ZeroParentMass",
    ),
    "evaluation": (
        "EvalScores",
        "TypeCounts",
        "aggregate",
        "evaluate_intersection",
        "match_entities",
        "match_relations",
    ),
    "losses": (
        "LossReport",
        "check_loss_gradients",
        "check_loss_invariants",
        "conditional_hier_loss",
        "gradient_check",
        "unconditional_loss",
    ),
    "model_io": ("LoadedModel", "load_model", "save_model"),
    "relations": (
        "RelationScorerParams",
        "candidate_pairs",
        "predict_relations",
        "train_relation_scorer",
    ),
    "schema": (
        "ENTITY_LABELS",
        "NONE_LABEL",
        "RELATION_KINDS",
        "Entity",
        "Relation",
        "ReportGraph",
        "parse_report",
        "prune_to_radgraph1",
        "relation_signature_allowed",
        "serialize_report",
        "to_dot",
        "validate_graph",
    ),
    "settings": ("TrainConfig",),
    "tagger": (
        "TaggerParams",
        "build_vocab",
        "decode_entities",
        "predict_tags",
        "tag_tree_for",
        "train_two_phase",
    ),
    "taxonomy": (
        "TaxonomyTree",
        "argmax_leaf",
        "build_tree",
        "conditional_probability",
        "leaf_distribution",
        "load_taxonomy",
        "propagate",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
# ``from hiergraph import *`` gives the public names, as it did when
# they were imported here.
__all__ = tuple(_OWNER)

for _module in _EXPORTS:
    globals()[_module] = _lazy.bind(f"{__name__}.{_module}")
del _module


def __getattr__(name: str):
    """A public name, looked up in its module on first access (PEP 562)."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_OWNER[name]], name)
    return value


def __dir__():
    return sorted(globals().keys() | _OWNER.keys())
