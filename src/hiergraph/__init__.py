"""Hierarchical information extraction over report graphs.

Builds entity taxonomies, computes node probabilities from leaf logits,
trains a token tagger in two phases (tree loss, then flat fine-tune),
scores entity-pair relations, and evaluates predictions with strict
span+type matching.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .corpus import (
    Dataset,
    cohens_kappa,
    dataset_kappa,
    label_statistics,
    load_dataset,
    save_dataset,
    to_token_labeling,
    tokenize,
)
from .errors import (
    CycleDetected,
    DepthOutOfRange,
    DocMismatch,
    DuplicateNode,
    EmptyDataset,
    FileUnreadable,
    HierGraphError,
    LengthMismatch,
    MalformedRecord,
    ModelFormatError,
    MultipleRoots,
    NonFiniteLogit,
    NotALeaf,
    OverlapConflict,
    RootHasNoParent,
    TaxonomyConfigError,
    TaxonomyMismatch,
    TrainConfigError,
    TrainingDiverged,
    UnknownNode,
    UnknownParent,
    UnknownSplit,
    ValidationError,
    ZeroParentMass,
)
from .evaluation import (
    EvalScores,
    TypeCounts,
    aggregate,
    evaluate_intersection,
    match_entities,
    match_relations,
)
from .losses import (
    LossReport,
    check_loss_gradients,
    check_loss_invariants,
    conditional_hier_loss,
    gradient_check,
    unconditional_loss,
)
from .model_io import LoadedModel, load_model, save_model
from .relations import (
    RelationScorerParams,
    candidate_pairs,
    predict_relations,
    train_relation_scorer,
)
from .schema import (
    ENTITY_LABELS,
    NONE_LABEL,
    RELATION_KINDS,
    Entity,
    Relation,
    ReportGraph,
    parse_report,
    prune_to_radgraph1,
    relation_signature_allowed,
    serialize_report,
    to_dot,
    validate_graph,
)
from .tagger import (
    TaggerParams,
    TrainConfig,
    build_vocab,
    decode_entities,
    predict_tags,
    tag_tree_for,
    train_two_phase,
)
from .taxonomy import (
    TaxonomyTree,
    argmax_leaf,
    build_tree,
    conditional_probability,
    leaf_distribution,
    load_taxonomy,
    propagate,
)
