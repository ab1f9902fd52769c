"""Entity taxonomy trees and probability computations over them.

A taxonomy is a single rooted tree whose leaves are the predictable
labels.  A model scores one logit per leaf; the probability of any
internal node is the total softmax mass of the leaves below it.  All
values here are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

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


@dataclass(frozen=True, eq=False)
class TaxonomyTree:
    """A validated taxonomy with stable leaf ordering.

    ``leaves`` is the persisted logit order: leaf i carries logit i.
    ``edges`` preserves the declaration order of the source config and
    is the canonical form used for hashing and model persistence.

    The batched losses read the tree as matrices over ``mass_nodes``, the
    leaves in logit order followed by the internal nodes breadth-first
    (root first): ``ancestors[i, k]`` is 1.0 when node k lies on the
    root-to-leaf path of leaf i (both ends included), so a (rows x
    leaves) softmax times ``ancestors`` gives every node mass;
    ``path_masks`` is the same path without the root; ``node_depths``
    gives each column's depth.  These arrays are read-only.
    """

    nodes: dict[str, TaxonomyNode]
    leaves: tuple[str, ...]
    max_depth: int
    edges: tuple[tuple[str, str], ...]
    mass_nodes: tuple[str, ...] = field(repr=False)
    ancestors: np.ndarray = field(repr=False)
    path_masks: np.ndarray = field(repr=False)
    node_depths: np.ndarray = field(repr=False)
    _leaf_indices: dict[str, tuple[int, ...]] = field(repr=False, default_factory=dict)
    # Trees made by with_extra_leaf, keyed by (name, parent).
    _extended: dict[tuple[str, str], "TaxonomyTree"] = field(
        repr=False, default_factory=dict
    )

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

        names = set(parent_of) | set(children_of)
        # Cycle check: follow parent links; a chain longer than the node
        # count must have revisited something.
        for name in names:
            seen = set()
            cur: str | None = name
            while cur is not None:
                if cur in seen:
                    raise CycleDetected(f"cycle through node {cur!r}")
                seen.add(cur)
                cur = parent_of.get(cur)

        if ROOT_NAME not in children_of:
            roots = sorted(n for n in names if n not in parent_of)
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
        depth_of: dict[str, int] = {ROOT_NAME: 0}
        order = [ROOT_NAME]
        queue = [ROOT_NAME]
        while queue:
            cur = queue.pop(0)
            for child in children_of.get(cur, ()):
                depth_of[child] = depth_of[cur] + 1
                order.append(child)
                queue.append(child)

        for name in order:
            nodes[name] = TaxonomyNode(
                name=name,
                parent=parent_of.get(name),
                children=tuple(children_of.get(name, ())),
                depth=depth_of[name],
            )

        # Leaf order = declaration order of the config (first mention as a
        # child); this order is persisted with any trained parameters.
        declared = []
        for _, child in edges:
            if child not in declared:
                declared.append(child)
        leaves = tuple(n for n in declared if nodes[n].is_leaf)
        if len(leaves) < 2:
            raise TaxonomyConfigError("a taxonomy needs at least 2 leaves")

        leaf_pos = {n: i for i, n in enumerate(leaves)}
        leaf_indices: dict[str, tuple[int, ...]] = {}

        def collect(name: str) -> tuple[int, ...]:
            node = nodes[name]
            if node.is_leaf:
                idx: tuple[int, ...] = (leaf_pos[name],)
            else:
                idx = tuple(i for c in node.children for i in collect(c))
            leaf_indices[name] = idx
            return idx

        collect(ROOT_NAME)

        mass_nodes = leaves + tuple(n for n in order if not nodes[n].is_leaf)
        column = {n: k for k, n in enumerate(mass_nodes)}
        ancestors = np.zeros((len(leaves), len(mass_nodes)))
        for i, leaf in enumerate(leaves):
            cur: str | None = leaf
            while cur is not None:
                ancestors[i, column[cur]] = 1.0
                cur = parent_of.get(cur)
        node_depths = np.array([depth_of[n] for n in mass_nodes])
        path_masks = (ancestors > 0.0) & (node_depths > 0)
        for arr in (ancestors, path_masks, node_depths):
            arr.flags.writeable = False

        return cls(
            nodes=nodes,
            leaves=leaves,
            max_depth=max(depth_of.values()),
            edges=tuple(edges),
            _leaf_indices=leaf_indices,
            mass_nodes=mass_nodes,
            ancestors=ancestors,
            path_masks=path_masks,
            node_depths=node_depths,
        )

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
        cur = self.node(b).parent
        while cur is not None:
            if cur == a:
                return True
            cur = self.nodes[cur].parent
        return False

    def subtree_leaf_indices(self, name: str) -> tuple[int, ...]:
        """Logit indices of the leaves below (or at) ``name``."""
        self.node(name)
        return self._leaf_indices[name]

    def leaf_index(self, name: str) -> int:
        node = self.node(name)
        if not node.is_leaf:
            raise NotALeaf(f"{name!r} is an internal node")
        return self._leaf_indices[name][0]

    def correct_node_at_depth(self, gold_leaf: str, d: int) -> str | None:
        """The node on the root-to-gold path at depth ``d``; None past the leaf."""
        node = self.node(gold_leaf)
        if not node.is_leaf:
            raise NotALeaf(f"{gold_leaf!r} is an internal node")
        if not 0 <= d <= self.max_depth:
            raise DepthOutOfRange(f"depth {d} outside [0, {self.max_depth}]")
        if d > node.depth:
            return None
        cur = gold_leaf
        for _ in range(node.depth - d):
            cur = self.nodes[cur].parent  # type: ignore[assignment]
        return cur

    def root_path(self, name: str) -> tuple[str, ...]:
        """Names from the root down to ``name`` inclusive."""
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
        the appended leaf takes the last logit index.  The new tree is
        built once per (name, parent) and shared by later calls.
        """
        if name in self.nodes:
            raise DuplicateNode(f"node {name!r} already exists")
        key = (name, parent)
        if key not in self._extended:
            self._extended[key] = TaxonomyTree.from_edges(
                list(self.edges) + [(parent, name)]
            )
        return self._extended[key]


def build_tree(config_text: str) -> TaxonomyTree:
    """Build and validate a taxonomy from config text."""
    return TaxonomyTree.from_config_text(config_text)


def load_taxonomy(name_or_path: str) -> TaxonomyTree:
    """Load a taxonomy config by path, by name in $HIERGRAPH_TAXONOMY_DIR,
    or by shipped config name (radgraph2_depth3, radgraph2_depth2,
    radgraph1_depth2)."""
    if os.path.exists(name_or_path):
        try:
            with open(name_or_path, encoding="utf-8") as fh:
                return build_tree(fh.read())
        except OSError as exc:
            raise FileUnreadable(str(exc)) from exc

    env_dir = os.environ.get(TAXONOMY_DIR_ENV)
    if env_dir:
        candidate = os.path.join(env_dir, name_or_path + ".txt")
        if os.path.exists(candidate):
            with open(candidate, encoding="utf-8") as fh:
                return build_tree(fh.read())

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

    by_node: dict[str, float] = {}

    def mass(name: str) -> float:
        node = tree.nodes[name]
        if node.is_leaf:
            value = float(p[tree.leaf_index(name)])
        else:
            value = sum(mass(c) for c in node.children)
        by_node[name] = value
        return value

    mass(ROOT_NAME)
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
