"""Entity taxonomy trees and probability computations over them.

A taxonomy is a single rooted tree whose leaves are the predictable
labels.  A model scores one logit per leaf; the probability of any
internal node is the total softmax mass of the leaves below it.  All
values here are immutable and safe to share across workers; a tree's
array tables are computed on first read.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from ._lazy import numpy as np
from .errors import (
    CycleDetected,
    DepthOutOfRange,
    DuplicateNode,
    FileUnreadable,
    LengthMismatch,
    MultipleRoots,
    NonFiniteLogit,
    NotALeaf,
    RootHasNoParent,
    TaxonomyConfigError,
    UnknownNode,
    UnknownParent,
    ZeroParentMass,
)

ROOT_NAME = "ROOT"

# Node masses below this are treated as zero when forming conditionals,
# to avoid catastrophic division noise.
ZERO_MASS = 1e-12

# Environment variable naming a directory searched for taxonomy configs.
TAXONOMY_DIR_ENV = "HIERGRAPH_TAXONOMY_DIR"

SHIPPED_CONFIGS = ("radgraph2_depth3", "radgraph2_depth2", "radgraph1_depth2")


@dataclass(frozen=True)
class TaxonomyNode:
    """One node of the taxonomy; parent/children are stored by name."""

    name: str
    parent: str | None
    children: tuple[str, ...]
    depth: int

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TaxonomyTree:
    """A validated taxonomy with stable leaf ordering.

    ``leaves`` is the persisted logit order: leaf i carries logit i.
    ``edges`` preserves the declaration order of the source config and
    is the canonical form used for hashing and model persistence.  The
    tree holds only what validating the edges produces; every query on
    names and depths walks parent links and needs no numpy.

    The batched losses read the tree through two tables over
    ``mass_nodes``, the leaves in logit order followed by the internal
    nodes breadth-first, so leaf i is column i and the root is column
    ``len(leaves)``.  ``path_columns[i, d]`` is the column of leaf i's
    ancestor at depth d, for 1 <= d <= the leaf's depth, and the root's
    column everywhere else; with the root standing for "no node", every
    entry is a valid column.  ``ancestors[i, k]`` is 1.0 when column k
    lies on leaf i's root path (both ends included), so a (rows x leaves)
    softmax times ``ancestors`` gives every node mass.  Each table is
    built on its first read, once per tree, and is read-only.
    """

    nodes: dict[str, TaxonomyNode]
    leaves: tuple[str, ...]
    max_depth: int
    edges: tuple[tuple[str, str], ...]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_config_text(cls, text: str) -> "TaxonomyTree":
        """Parse a "PARENT CHILD" edge list (one per line, # comments)."""
        edges: list[tuple[str, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TaxonomyConfigError(
                    f"line {lineno}: expected 'PARENT CHILD', got {line!r}"
                )
            edges.append((parts[0], parts[1]))
        return cls.from_edges(edges)

    @classmethod
    def from_edges(cls, edges: list[tuple[str, str]]) -> "TaxonomyTree":
        if not edges:
            raise TaxonomyConfigError("empty taxonomy config")

        parent_of: dict[str, str] = {}
        children_of: dict[str, list[str]] = {}
        for parent, child in edges:
            if child == ROOT_NAME:
                raise TaxonomyConfigError(f"{ROOT_NAME} cannot be a child")
            if child in parent_of:
                raise DuplicateNode(f"node {child!r} declared as a child twice")
            parent_of[child] = parent
            children_of.setdefault(parent, []).append(child)

        # Cycle check, one pass: follow parent links from each child in
        # edge order, stopping at a node an earlier walk already cleared.
        # A walk that meets its own node has found a cycle; the node named
        # is the first one met twice, which the edge order fixes.
        walk_of: dict[str, int] = {}
        for walk, (_, child) in enumerate(edges):
            cur: str | None = child
            while cur is not None and cur not in walk_of:
                walk_of[cur] = walk
                cur = parent_of.get(cur)
            if cur is not None and walk_of[cur] == walk:
                raise CycleDetected(f"cycle through node {cur!r}")

        if ROOT_NAME not in children_of:
            roots = sorted(n for n in children_of if n not in parent_of)
            raise MultipleRoots(
                f"mandatory root {ROOT_NAME!r} absent; found root(s) {roots}"
            )
        for parent in children_of:
            if parent != ROOT_NAME and parent not in parent_of:
                raise UnknownParent(
                    f"parent {parent!r} is never attached under {ROOT_NAME!r}"
                )

        # Acyclic + every non-root parent attached + single declared root
        # implies every node's parent chain ends at ROOT, so the tree is
        # connected.  Depths follow.
        nodes: dict[str, TaxonomyNode] = {}
        order = [(ROOT_NAME, 0)]
        for name, depth in order:  # grows as it goes: breadth-first
            children = tuple(children_of.get(name, ()))
            nodes[name] = TaxonomyNode(name, parent_of.get(name), children, depth)
            order.extend((child, depth + 1) for child in children)

        # Leaf order = declaration order of the config (each node is a
        # child in exactly one edge); this order is persisted with any
        # trained parameters.
        leaves = tuple(child for _, child in edges if nodes[child].is_leaf)
        if len(leaves) < 2:
            raise TaxonomyConfigError("a taxonomy needs at least 2 leaves")

        return cls(
            nodes=nodes,
            leaves=leaves,
            max_depth=max(depth for _, depth in order),
            edges=tuple(edges),
        )

    # -- tables --------------------------------------------------------------

    @cached_property
    def mass_nodes(self) -> tuple[str, ...]:
        return self.leaves + tuple(n for n in self.nodes if not self.nodes[n].is_leaf)

    @cached_property
    def _column(self) -> dict[str, int]:
        """Node name -> its column of ``ancestors``; leaf i is column i."""
        return {name: k for k, name in enumerate(self.mass_nodes)}

    @cached_property
    def path_columns(self) -> np.ndarray:
        cols = np.full((len(self.leaves), self.max_depth + 1), len(self.leaves), np.intp)
        for i, leaf in enumerate(self.leaves):
            path = [self._column[name] for name in self.root_path(leaf)]
            cols[i, : len(path)] = path
        return _read_only(cols)

    @cached_property
    def ancestors(self) -> np.ndarray:
        # The root padding of ``path_columns`` writes the root's 1.0.
        ancestors = np.zeros((len(self.leaves), len(self.mass_nodes)))
        ancestors[np.arange(len(self.leaves))[:, None], self.path_columns] = 1.0
        return _read_only(ancestors)

    # -- queries -------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def node(self, name: str) -> TaxonomyNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise UnknownNode(f"no node named {name!r}") from None

    def depth_of(self, name: str) -> int:
        return self.node(name).depth

    def is_ancestor(self, a: str, b: str) -> bool:
        """True iff ``a`` lies on the path from the root to ``b``, excluding b."""
        self.node(a)
        return a in self.root_path(b)[:-1]

    def subtree_leaf_indices(self, name: str) -> tuple[int, ...]:
        """Logit indices of the leaves below (or at) ``name``, ascending."""
        self.node(name)
        return tuple(
            i for i, leaf in enumerate(self.leaves) if name in self.root_path(leaf)
        )

    def leaf_index(self, name: str) -> int:
        node = self.node(name)
        if not node.is_leaf:
            raise NotALeaf(f"{name!r} is an internal node")
        return self._column[name]

    def correct_node_at_depth(self, gold_leaf: str, d: int) -> str | None:
        """The node on the root-to-gold path at depth ``d``; None past the leaf."""
        node = self.node(gold_leaf)
        if not node.is_leaf:
            raise NotALeaf(f"{gold_leaf!r} is an internal node")
        if not 0 <= d <= self.max_depth:
            raise DepthOutOfRange(f"depth {d} outside [0, {self.max_depth}]")
        if d > node.depth:
            return None
        return self.root_path(gold_leaf)[d]

    def root_path(self, name: str) -> tuple[str, ...]:
        """Names from the root down to ``name`` inclusive: the one parent walk."""
        path = [name]
        cur = self.node(name).parent
        while cur is not None:
            path.append(cur)
            cur = self.nodes[cur].parent
        return tuple(reversed(path))

    # -- persistence ---------------------------------------------------------

    def canonical_text(self) -> str:
        return "\n".join(f"{p} {c}" for p, c in self.edges) + "\n"

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def with_extra_leaf(self, name: str, parent: str = ROOT_NAME) -> "TaxonomyTree":
        """A new tree with one more leaf appended under ``parent``.

        Used to attach the non-entity class under the root for tagging;
        the appended leaf takes the last logit index.
        """
        if name in self.nodes:
            raise DuplicateNode(f"node {name!r} already exists")
        return TaxonomyTree.from_edges(list(self.edges) + [(parent, name)])


def build_tree(config_text: str) -> TaxonomyTree:
    """Build and validate a taxonomy from config text."""
    return TaxonomyTree.from_config_text(config_text)


def _load_config_file(path: str) -> TaxonomyTree:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileUnreadable(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise TaxonomyConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return build_tree(text)


def load_taxonomy(name_or_path: str) -> TaxonomyTree:
    """Load a taxonomy config by path, by name in $HIERGRAPH_TAXONOMY_DIR,
    or by shipped config name (radgraph2_depth3, radgraph2_depth2,
    radgraph1_depth2)."""
    if os.path.exists(name_or_path):
        return _load_config_file(name_or_path)

    env_dir = os.environ.get(TAXONOMY_DIR_ENV)
    if env_dir:
        candidate = os.path.join(env_dir, name_or_path + ".txt")
        if os.path.exists(candidate):
            return _load_config_file(candidate)

    if name_or_path in SHIPPED_CONFIGS:
        text = (
            resources.files("hiergraph")
            .joinpath("configs", name_or_path + ".txt")
            .read_text(encoding="utf-8")
        )
        return build_tree(text)

    raise FileUnreadable(f"no taxonomy file or shipped config named {name_or_path!r}")


# --- probability computations ----------------------------------------------


def leaf_distribution(tree: TaxonomyTree, logits) -> np.ndarray:
    """Softmax over the leaf logits, computed shift-invariantly.

    ``logits`` is one row of leaf logits or a (rows x leaves) matrix,
    normalised row by row.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != len(tree.leaves):
        raise LengthMismatch(
            f"expected {len(tree.leaves)} logits per row, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise NonFiniteLogit("logits must be finite")
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def propagate(tree: TaxonomyTree, dist) -> dict[str, float]:
    """Bottom-up subtree masses for every node given a leaf distribution.

    Internal values are literal sums of the children's values (in child
    order), so parent == sum(children) holds exactly in floating point.
    """
    p = np.asarray(dist, dtype=np.float64)
    if p.shape != (len(tree.leaves),):
        raise LengthMismatch(
            f"expected {len(tree.leaves)} probabilities, got shape {p.shape}"
        )
    if np.any(p < -1e-12) or not math.isclose(float(p.sum()), 1.0, abs_tol=1e-6):
        raise ValueError("not a probability distribution over the leaves")

    # ``nodes`` is breadth-first, so in reverse every child comes before
    # its parent: no recursion, however deep the tree.
    by_node: dict[str, float] = {}
    for name in reversed(tree.nodes):
        children = tree.nodes[name].children
        if children:
            by_node[name] = sum(by_node[c] for c in children)
        else:
            by_node[name] = float(p[tree.leaf_index(name)])
    return by_node


def conditional_probability(
    tree: TaxonomyTree, node_probs: dict[str, float], child: str
) -> float:
    """P(child | parent) as the ratio of subtree masses."""
    node = tree.node(child)
    if node.parent is None:
        raise RootHasNoParent("the root has no parent to condition on")
    parent_mass = node_probs[node.parent]
    if parent_mass < ZERO_MASS:
        raise ZeroParentMass(
            f"parent {node.parent!r} mass {parent_mass:.3e} below {ZERO_MASS:.0e}"
        )
    return node_probs[child] / parent_mass


def argmax_leaf(tree: TaxonomyTree, dist) -> str:
    """Leaf with maximal probability; ties break to the lowest leaf index."""
    p = np.asarray(dist, dtype=np.float64)
    if p.shape != (len(tree.leaves),):
        raise LengthMismatch(
            f"expected {len(tree.leaves)} probabilities, got shape {p.shape}"
        )
    return tree.leaves[int(np.argmax(p))]
