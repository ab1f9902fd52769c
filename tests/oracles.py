"""Independent reference implementations used to certify the package.

Everything here is deliberately naive: extended-precision arithmetic,
path walks instead of recursion, exhaustive assignment search instead
of counting tricks, and a per-token training loop instead of batched
array maths.  Slow is fine; agreeing with these is the point.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from hiergraph import (
    TaggerParams,
    build_vocab,
    conditional_hier_loss,
    tag_tree_for,
    to_token_labeling,
    unconditional_loss,
)

mp.mp.dps = 50


def _to_mpf(x):
    return x if isinstance(x, mp.mpf) else mp.mpf(float(x))


def mp_leaf_probs(logits):
    exps = [mp.e ** _to_mpf(x) for x in logits]
    z = mp.fsum(exps)
    return [e / z for e in exps]


def mp_conditional_loss(tree, logits, gold):
    """Eq-style per-depth loss summed in 50-digit arithmetic."""
    probs = mp_leaf_probs(logits)
    total = mp.mpf(0)
    for d in range(1, tree.depth_of(gold) + 1):
        node = tree.correct_node_at_depth(gold, d)
        mass = mp.fsum(probs[i] for i in tree.subtree_leaf_indices(node))
        total -= mp.log(mass)
    return total


def mp_unconditional_loss(tree, logits, gold):
    probs = mp_leaf_probs(logits)
    return -mp.log(probs[tree.leaf_index(gold)])


def path_masses(tree, dist):
    """Node masses computed from root paths, not child recursion."""
    masses = {name: 0.0 for name in tree.nodes}
    for i, leaf in enumerate(tree.leaves):
        for name in tree.root_path(leaf):
            masses[name] += float(dist[i])
    return masses


def _best_assignment(pred_items, gold_items, same):
    """Maximum one-to-one match count by exhaustive search."""
    best = 0

    def rec(pi, used, count):
        nonlocal best
        best = max(best, count)
        if pi == len(pred_items):
            return
        rec(pi + 1, used, count)
        for gi in range(len(gold_items)):
            if gi not in used and same(pred_items[pi], gold_items[gi]):
                rec(pi + 1, used | {gi}, count + 1)

    rec(0, frozenset(), 0)
    return best


def _entity_key(e):
    return (e.label, e.start_ix, e.end_ix)


def _relation_key(graph, r):
    return (
        r.kind,
        _entity_key(graph.entities[r.source_id]),
        _entity_key(graph.entities[r.target_id]),
    )


def brute_entity_counts(gold, pred):
    """(tp, pred, gold) per label via exhaustive assignment."""
    labels = {e.label for e in gold.entities.values()}
    labels |= {e.label for e in pred.entities.values()}
    out = {}
    for label in labels:
        g = [e for e in gold.entities.values() if e.label == label]
        p = [e for e in pred.entities.values() if e.label == label]
        tp = _best_assignment(p, g, lambda a, b: _entity_key(a) == _entity_key(b))
        out[label] = (tp, len(p), len(g))
    return out


def brute_relation_counts(gold, pred):
    g_keys = [_relation_key(gold, r) for r in gold.relations]
    p_keys = [_relation_key(pred, r) for r in pred.relations]
    kinds = {k[0] for k in g_keys} | {k[0] for k in p_keys}
    out = {}
    for kind in kinds:
        g = [k for k in g_keys if k[0] == kind]
        p = [k for k in p_keys if k[0] == kind]
        tp = _best_assignment(p, g, lambda a, b: a == b)
        out[kind] = (tp, len(p), len(g))
    return out


def brute_pooled_f1(count_dicts):
    """Micro F1 from a list of per-type (tp, pred, gold) dicts."""
    tp = sum(v[0] for d in count_dicts for v in d.values())
    pred = sum(v[1] for d in count_dicts for v in d.values())
    gold = sum(v[2] for d in count_dicts for v in d.values())
    p = tp / pred if pred else 0.0
    r = tp / gold if gold else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def reference_train(ds, tree, cfg):
    """``train_two_phase`` as a per-token loop: one single-row loss call per
    token and 2w+1 embedding scatter-adds per report.

    Returns the parameters and the epoch records (phase, epoch, mean loss,
    tokens, mean per-depth loss, clamped tokens).
    """
    tag_tree = tag_tree_for(tree)
    vocab = build_vocab(ds)
    samples = [
        (
            np.array([vocab.get(tok, 0) for tok in r.tokens], dtype=int),
            to_token_labeling(r).labels,
        )
        for r in ds.reports
    ]
    rng = np.random.default_rng(cfg.seed)
    w, e = cfg.window, cfg.embed_dim
    params = TaggerParams(
        vocab=vocab,
        labels=tag_tree.leaves,
        window=w,
        embed_dim=e,
        embeddings=rng.normal(0.0, 0.1, size=(len(vocab) + 1, e)),
        weights=np.zeros(((2 * w + 1) * e, len(tag_tree.leaves))),
        bias=np.zeros(len(tag_tree.leaves)),
    )

    def features(token_ids):
        t = len(token_ids)
        padded = np.zeros((t + 2 * w, e))
        padded[w : w + t] = params.embeddings[token_ids]
        return np.concatenate([padded[j : j + t] for j in range(2 * w + 1)], axis=1)

    records = []
    phases = (
        (1, conditional_hier_loss, cfg.phase1_epochs, cfg.lr_phase1),
        (2, unconditional_loss, cfg.phase2_epochs, cfg.lr_phase2),
    )
    for phase, loss_fn, epochs, lr in phases:
        for epoch in range(1, epochs + 1):
            order = rng.permutation(len(samples))
            loss_sum, per_depth, clamped, token_count = 0.0, {}, 0, 0
            for start in range(0, len(order), cfg.batch_size):
                d_emb = np.zeros_like(params.embeddings)
                d_w = np.zeros_like(params.weights)
                d_b = np.zeros_like(params.bias)
                n = 0
                for s in order[start : start + cfg.batch_size]:
                    token_ids, gold = samples[s]
                    t = len(token_ids)
                    if t == 0:
                        continue
                    phi = features(token_ids)
                    logits = phi @ params.weights + params.bias
                    grads = np.zeros_like(logits)
                    for i in range(t):
                        rep = loss_fn(tag_tree, logits[i], gold[i])
                        loss_sum += rep.loss
                        clamped += rep.clamped
                        for d, v in rep.per_depth.items():
                            per_depth[d] = per_depth.get(d, 0.0) + v
                        grads[i] = rep.grad
                    d_w += phi.T @ grads
                    d_b += grads.sum(axis=0)
                    d_phi = grads @ params.weights.T
                    positions = np.arange(t)
                    for j in range(2 * w + 1):
                        src = positions - w + j
                        ok = (src >= 0) & (src < t)
                        np.add.at(d_emb, token_ids[src[ok]], d_phi[ok, j * e : (j + 1) * e])
                    n += t
                if n == 0:
                    continue
                token_count += n
                params.weights -= lr * (d_w / n + cfg.l2 * params.weights)
                params.bias -= lr * (d_b / n)
                params.embeddings -= lr * (d_emb / n)
            per_token = token_count or 1
            records.append({
                "phase": phase,
                "epoch": epoch,
                "loss": loss_sum / per_token,
                "tokens": token_count,
                "per_depth": {d: v / per_token for d, v in sorted(per_depth.items())},
                "clamped": clamped,
            })
    return params, records
