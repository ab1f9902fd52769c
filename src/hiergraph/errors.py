"""Exception classes shared across the package.

Every error raised by hiergraph derives from HierGraphError so callers
(notably the CLI) can map failures to exit codes without enumerating
modules.
"""

from __future__ import annotations


class HierGraphError(Exception):
    """Base class for all hiergraph errors."""


# --- taxonomy configuration ------------------------------------------------

class TaxonomyConfigError(HierGraphError):
    """A taxonomy config file is not a single rooted tree."""


class CycleDetected(TaxonomyConfigError):
    pass


class MultipleRoots(TaxonomyConfigError):
    pass


class DuplicateNode(TaxonomyConfigError):
    pass


class UnknownParent(TaxonomyConfigError):
    pass


# --- taxonomy queries / probability ops ------------------------------------

class UnknownNode(HierGraphError):
    pass


class LengthMismatch(HierGraphError):
    pass


class NonFiniteLogit(HierGraphError):
    pass


class RootHasNoParent(HierGraphError):
    pass


class ZeroParentMass(HierGraphError):
    pass


class NotALeaf(HierGraphError):
    pass


class DepthOutOfRange(HierGraphError):
    pass


# --- corpus / file IO -------------------------------------------------------

class FileUnreadable(HierGraphError):
    pass


class MalformedRecord(HierGraphError):
    """A report record in an annotation file has the wrong JSON shape."""

    def __init__(self, doc_id: str, reason: str):
        # The fields are the arguments, so a pickled copy rebuilds.
        super().__init__(doc_id, reason)
        self.doc_id = doc_id
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.doc_id}: {self.reason}"


class ValidationError(HierGraphError):
    """A report failed a structural validation rule while loading."""

    def __init__(self, doc_id: str, rule: str, message: str):
        super().__init__(doc_id, rule, message)
        self.doc_id = doc_id
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.doc_id}: [{self.rule}] {self.message}"


class UnknownSplit(HierGraphError):
    """A split name that is neither a split nor an alias of one."""


class OverlapConflict(HierGraphError):
    """Two entities with different labels cover the same token."""


class ModelFormatError(HierGraphError):
    """A model file is missing fields or holds non-finite parameters."""


# --- training ---------------------------------------------------------------

class TrainConfigError(HierGraphError, ValueError):
    """A training configuration field is out of range.

    Also a ValueError so callers may catch it generically.
    """


class EmptyDataset(HierGraphError):
    pass


class TrainingDiverged(HierGraphError):
    """Training ran away: its last epoch clamped more than half of its
    tokens, or its logits stopped being finite."""


class TaxonomyMismatch(HierGraphError):
    """A model file was trained against a different taxonomy."""


# --- evaluation -------------------------------------------------------------

class DocMismatch(HierGraphError):
    """Two sides of a comparison hold different reports or tokens."""

    # Doc ids a doc-set message names per side; the rest are counted.
    SHOWN_IDS = 5

    @classmethod
    def doc_sets(cls, a_ids, b_ids) -> "DocMismatch":
        """The error for two doc sets A and B that differ: ``a_ids`` are
        only in A, ``b_ids`` only in B.  Each side gives its count and
        its first SHOWN_IDS ids in sorted order, so the message stays
        one short line however many ids differ."""

        def side(name: str, ids) -> str:
            ids = sorted(ids)
            shown = ", ".join(map(repr, ids[: cls.SHOWN_IDS]))
            more = ", ..." if len(ids) > cls.SHOWN_IDS else ""
            return f"{name} ({len(ids)}): [{shown}{more}]"

        return cls(f"doc sets differ ({side('only in A', a_ids)}; {side('only in B', b_ids)})")
