"""Training losses over a taxonomy: the per-depth conditional loss, the
flat cross-entropy used for fine-tuning, a finite-difference gradient
checker, and a self-test of the probability and loss invariants.

Both losses consume leaf logits, one row or a batch of rows, and return
the analytic gradient with respect to them, so callers never need
autodiff.  A batch is one array computation: node masses are the
softmax rows times the tree's leaf-by-node ancestor matrix, each row's
gold path is one gather of them through ``path_columns``, so its terms
come out laid out by depth, and the flat loss reads the gold softmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._lazy import numpy as np
from .errors import LengthMismatch, NonFiniteLogit, NotALeaf
from .taxonomy import (
    TaxonomyTree,
    conditional_probability,
    leaf_distribution,
    propagate,
)

# Floor applied to any node mass before taking its log.
TINY = 1e-300

# Ceiling on the total loss of one example; beyond it the value and its
# gradient are rescaled to keep updates bounded.
LOSS_CEILING = 1e3

CENTRAL_DIFFERENCE_STEP = 1e-5

# Scale of the random logits in ``check_loss_gradients``.  It keeps
# softmax masses large enough that double-precision central differences
# stay meaningful; the gradient itself is exact for any finite logits.
CHECK_LOGIT_SCALE = 1.5


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
    """Softmax rows and gold leaf indices.

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
    return probs, gold


def _report(picked: np.ndarray, valid: np.ndarray, grad: np.ndarray, one: bool) -> LossReport:
    """-log of every valid picked mass, filed by depth, then clamped row by row.

    ``picked[r, d]`` is row r's node mass at depth d (one column stands
    for every depth) and ``valid[r, d]`` says whether that depth has a
    term.  A row is pinned at the ceiling when a valid mass underflowed
    or its total overran it; its components and gradient are rescaled in
    proportion so its per-depth sum still equals its loss.  With no row
    pinned the scale would be exactly 1.0, so nothing is rescaled.
    """
    # ``+ 0.0`` makes the -0.0 of -log(1.0) read 0.0, as a sum of terms would.
    comps = np.where(valid, -np.log(np.maximum(picked, TINY)), 0.0) + 0.0
    totals = comps.sum(axis=1)
    clamped = (valid & (picked < TINY)).any(axis=1) | (totals > LOSS_CEILING)
    if clamped.any():
        scale = LOSS_CEILING / np.where(clamped, totals, LOSS_CEILING)
        comps *= scale[:, None]
        grad *= scale[:, None]
        totals = np.where(clamped, LOSS_CEILING, totals)
    depths = [0, *np.flatnonzero(valid.any(axis=0)).tolist()]
    if one:
        return LossReport(
            loss=float(totals[0]),
            per_depth={d: float(comps[0, d]) for d in depths},
            grad=grad[0],
            clamped=bool(clamped[0]),
        )
    # Each depth's column, laid out contiguously, sums as it would alone.
    sums = np.ascontiguousarray(comps.T).sum(axis=1)
    return LossReport(
        loss=float(totals.sum()),
        per_depth={d: float(sums[d]) for d in depths},
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
    probs, gold = _rows(tree, logits, gold_leaf)
    mass = probs @ tree.ancestors
    rows = np.arange(len(gold))[:, None]
    cols = tree.path_columns[gold]
    picked = mass[rows, cols]
    valid = cols != len(tree.leaves)
    # d/dx of -log(sum_{i in S} softmax_i), summed over the path nodes S:
    # softmax once per node, minus softmax_i / mass(S) inside each subtree.
    inv = np.zeros_like(mass)
    inv[rows, cols] = np.where(valid, 1.0 / np.maximum(picked, TINY), 0.0)
    grad = valid.sum(axis=1, keepdims=True) * probs - probs * (inv @ tree.ancestors.T)
    return _report(picked, valid, grad, np.ndim(logits) == 1)


def unconditional_loss(tree: TaxonomyTree, logits, gold_leaf) -> LossReport:
    """Plain cross-entropy on the leaf softmax, ignoring the hierarchy.

    The single component is filed under the gold leaf's depth so reports
    stay comparable with the conditional loss.  Takes one example or a
    batch, as ``conditional_hier_loss`` does.
    """
    probs, gold = _rows(tree, logits, gold_leaf)
    rows = np.arange(len(gold))
    grad = probs.copy()
    grad[rows, gold] -= 1.0
    valid = tree.path_columns[gold] == gold[:, None]
    return _report(probs[rows, gold][:, None], valid, grad, np.ndim(logits) == 1)


def gradient_check(fn, x) -> float:
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
        xp[i] += CENTRAL_DIFFERENCE_STEP
        xm[i] -= CENTRAL_DIFFERENCE_STEP
        lp, _ = fn(xp)
        lm, _ = fn(xm)
        numeric = (lp - lm) / (2.0 * CENTRAL_DIFFERENCE_STEP)
        denom = max(abs(float(grad[i])), abs(numeric), 1e-8)
        worst = max(worst, abs(float(grad[i]) - numeric) / denom)
    return worst


def check_loss_gradients(
    tree: TaxonomyTree,
    trials: int = 100,
    seed: int = 0,
) -> dict[str, float]:
    """Max finite-difference error for both losses over random trials.

    Each trial draws fresh logits and a random gold leaf; every logit
    coordinate is checked, so the coordinate count is trials times the
    leaf count.
    """
    rng = np.random.default_rng(seed)
    worst = {"conditional": 0.0, "unconditional": 0.0}
    for _ in range(trials):
        logits = rng.normal(0.0, CHECK_LOGIT_SCALE, size=len(tree.leaves))
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


def check_loss_invariants(
    tree: TaxonomyTree, trials: int = 100, seed: int = 0
) -> list[str]:
    """Probability and loss invariants on random logits; returns failures.

    Each trial checks the leaf distribution's node masses (root mass 1,
    children summing exactly to their parent, no child above its
    parent), the chain rule along every root path, and, for a random
    gold leaf, that the conditional loss is at least the flat loss,
    splits into its per-depth terms and is not clamped.  Stops at the
    first failing trial.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(trials):
        logits = rng.normal(0.0, 3.0, size=len(tree.leaves))
        dist = leaf_distribution(tree, logits)
        masses = propagate(tree, dist)
        if abs(masses["ROOT"] - 1.0) > 1e-9:
            failures.append("root mass != 1")
        for name, node in tree.nodes.items():
            if node.children:
                if masses[name] != sum(masses[c] for c in node.children):
                    failures.append(f"mass of {name} != sum of children")
                for c in node.children:
                    if masses[c] > masses[name] + 1e-15:
                        failures.append(f"child {c} above parent {name}")
        for i, leaf in enumerate(tree.leaves):
            chained = 1.0
            for name in tree.root_path(leaf)[1:]:
                chained *= conditional_probability(tree, masses, name)
            if abs(chained - dist[i]) > 1e-9:
                failures.append(f"chain rule off at {leaf}")
        gold = tree.leaves[int(rng.integers(len(tree.leaves)))]
        cond = conditional_hier_loss(tree, logits, gold)
        flat = unconditional_loss(tree, logits, gold)
        if cond.loss < flat.loss - 1e-9:
            failures.append("conditional loss below flat loss")
        if abs(sum(cond.per_depth.values()) - cond.loss) > 1e-9:
            failures.append("per-depth components do not sum to the loss")
        if cond.clamped or flat.clamped:
            failures.append("unexpected loss clamp")
        if failures:
            break
    return failures
