"""Training losses over a taxonomy: the per-depth conditional loss, the
flat cross-entropy used for fine-tuning, and a finite-difference
gradient checker.

Both losses consume leaf logits, one row or a batch of rows, and return
the analytic gradient with respect to them, so callers never need
autodiff.  A batch is one array computation: node masses are the
softmax rows times the tree's leaf-by-node ancestor matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LengthMismatch, NonFiniteLogit, NotALeaf
from .taxonomy import TaxonomyTree, leaf_distribution

# Floor applied to any node mass before taking its log.
TINY = 1e-300

# Ceiling on the total loss of one example; beyond it the value and its
# gradient are rescaled to keep updates bounded.
LOSS_CEILING = 1e3


@dataclass
class LossReport:
    """A loss value, its decomposition by depth, and its gradient.

    For one example, ``per_depth`` maps depth d to that depth's
    contribution; depth 0 is always present with value 0.0 (the root is
    certain).  The entries sum to ``loss``.  ``clamped`` marks values
    rescaled at the ceiling.  For a batch of N examples, ``loss`` and
    every ``per_depth`` entry are sums over the rows, ``grad`` has one
    row per example, and ``clamped`` counts the clamped rows.
    """

    loss: float
    per_depth: dict[int, float] = field(default_factory=dict)
    grad: np.ndarray = field(default_factory=lambda: np.zeros(0))
    clamped: bool | int = False


def _rows(tree: TaxonomyTree, logits, gold_leaf):
    """Softmax rows, gold leaf indices and node masses (rows x mass_nodes).

    One example is 1-D logits with one gold leaf name; a batch is
    (N, leaves) logits with N gold leaves, given as names or as leaf
    (logit) indices.
    """
    probs = np.atleast_2d(leaf_distribution(tree, logits))
    if np.ndim(logits) == 1:
        gold = np.array([tree.leaf_index(gold_leaf)])
    else:
        gold = np.asarray(gold_leaf)
        if gold.ndim != 1 or len(gold) != len(probs):
            raise LengthMismatch(
                f"{len(probs)} logit rows need as many gold leaves, "
                f"got shape {gold.shape}"
            )
        if gold.dtype.kind in "iu":
            if np.any((gold < 0) | (gold >= len(tree.leaves))):
                raise NotALeaf(f"gold leaf indices outside [0, {len(tree.leaves)})")
        else:
            gold = np.array([tree.leaf_index(str(n)) for n in gold], dtype=np.intp)
    return probs, gold, probs @ tree.ancestors


def _report(
    tree: TaxonomyTree, mask: np.ndarray, mass: np.ndarray, grad: np.ndarray, one: bool
) -> LossReport:
    """-log of every masked node mass, filed by depth, then clamped row by row.

    A row is pinned at the ceiling when a masked mass underflowed or its
    total overran it; its components and gradient are rescaled in
    proportion so its per-depth sum still equals its loss.
    """
    terms = np.where(mask, -np.log(np.maximum(mass, TINY)), 0.0)
    # Each row masks at most one node per depth, so this matmul only
    # moves terms into depth columns and rounds nothing.
    comps = terms @ np.eye(tree.max_depth + 1)[tree.node_depths]
    totals = comps.sum(axis=1)
    clamped = (mask & (mass < TINY)).any(axis=1) | (totals > LOSS_CEILING)
    scale = LOSS_CEILING / np.where(clamped, totals, LOSS_CEILING)
    comps *= scale[:, None]
    grad *= scale[:, None]
    losses = np.where(clamped, LOSS_CEILING, totals)
    depths = sorted({0, *tree.node_depths[mask.any(axis=0)].tolist()})
    if one:
        return LossReport(
            loss=float(losses[0]),
            per_depth={d: float(comps[0, d]) for d in depths},
            grad=grad[0],
            clamped=bool(clamped[0]),
        )
    return LossReport(
        loss=float(losses.sum()),
        per_depth={d: float(comps[:, d].sum()) for d in depths},
        grad=grad,
        clamped=int(clamped.sum()),
    )


def conditional_hier_loss(tree: TaxonomyTree, logits, gold_leaf) -> LossReport:
    """Negative log probability of the gold node at every depth.

    The term at depth d is -log of the subtree mass of the gold leaf's
    ancestor at that depth; depths past the gold leaf contribute nothing.
    A gold leaf shallower than the tree's maximum therefore trains only
    the depths it defines.

    Takes one example (1-D logits, one leaf name) or a batch ((N, leaves)
    logits, N gold leaves); see ``LossReport`` for what a batch returns.
    """
    probs, gold, mass = _rows(tree, logits, gold_leaf)
    mask = tree.path_masks[gold]
    # d/dx of -log(sum_{i in S} softmax_i), summed over the path nodes S:
    # softmax once per node, minus softmax_i / mass(S) inside each subtree.
    grad = mask.sum(axis=1, keepdims=True) * probs - probs * (
        (mask / np.maximum(mass, TINY)) @ tree.ancestors.T
    )
    return _report(tree, mask, mass, grad, np.ndim(logits) == 1)


def unconditional_loss(tree: TaxonomyTree, logits, gold_leaf) -> LossReport:
    """Plain cross-entropy on the leaf softmax, ignoring the hierarchy.

    The single component is filed under the gold leaf's depth so reports
    stay comparable with the conditional loss.  Takes one example or a
    batch, as ``conditional_hier_loss`` does.
    """
    probs, gold, mass = _rows(tree, logits, gold_leaf)
    # The path cut down to the leaf alone; leaf i is mass column i.
    mask = np.eye(len(tree.leaves), mass.shape[1], dtype=bool)[gold]
    grad = probs.copy()
    grad[np.arange(len(gold)), gold] -= 1.0
    return _report(tree, mask, mass, grad, np.ndim(logits) == 1)


def gradient_check(fn, x, step: float = 1e-5) -> float:
    """Worst relative error between fn's gradient and central differences.

    ``fn(x)`` must return ``(loss, grad)``.  The relative error at each
    coordinate uses max(|analytic|, |numeric|, 1e-8) as denominator so
    near-zero entries do not blow up the ratio.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise LengthMismatch("gradient_check expects a 1-d point")
    if not np.all(np.isfinite(x)):
        raise NonFiniteLogit("gradient_check point must be finite")
    _, grad = fn(x)
    worst = 0.0
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        lp, _ = fn(xp)
        lm, _ = fn(xm)
        numeric = (lp - lm) / (2.0 * step)
        denom = max(abs(float(grad[i])), abs(numeric), 1e-8)
        worst = max(worst, abs(float(grad[i]) - numeric) / denom)
    return worst


def check_loss_gradients(
    tree: TaxonomyTree,
    trials: int = 100,
    seed: int = 0,
    scale: float = 1.5,
) -> dict[str, float]:
    """Max finite-difference error for both losses over random trials.

    Each trial draws fresh logits and a random gold leaf; every logit
    coordinate is checked, so the coordinate count is trials times the
    leaf count.  The logit scale keeps softmax masses large enough that
    double-precision central differences stay meaningful; the gradient
    itself is exact for any finite logits.
    """
    rng = np.random.default_rng(seed)
    worst = {"conditional": 0.0, "unconditional": 0.0}
    for _ in range(trials):
        logits = rng.normal(0.0, scale, size=len(tree.leaves))
        gold = tree.leaves[int(rng.integers(len(tree.leaves)))]
        for key, loss_fn in (
            ("conditional", conditional_hier_loss),
            ("unconditional", unconditional_loss),
        ):
            err = gradient_check(
                lambda x, f=loss_fn: (
                    (r := f(tree, x, gold)).loss,
                    r.grad,
                ),
                logits,
            )
            worst[key] = max(worst[key], err)
    return worst
