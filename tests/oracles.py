"""Independent reference implementations used to certify the package.

Everything here is deliberately naive: extended-precision arithmetic,
path walks instead of recursion, exhaustive assignment search instead
of counting tricks, a per-token training loop instead of batched array
maths, a per-pair relation scorer with dense feature vectors instead of
index lookups, and the record loader and strict evaluator written
with per-call helpers, Counters and two merges per report instead of
import-time tables and plain dicts, and the dataset writer as one
indented dump of the whole document instead of one compact line per
report, and ``predict`` through whole report graphs instead of only the
fields it predicts from.  Slow is fine; agreeing with these is the
point.
"""

from __future__ import annotations

import dataclasses
import json

import mpmath as mp
import numpy as np

from collections import Counter

from hiergraph import (
    Dataset,
    Relation,
    RelationScorerParams,
    TaggerParams,
    __version__,
    build_vocab,
    conditional_hier_loss,
    decode_entities,
    leaf_distribution,
    load_dataset,
    load_model,
    predict_relations,
    predict_tags,
    save_dataset,
    tag_tree_for,
    to_token_labeling,
    relation_signature_allowed,
    unconditional_loss,
)
from hiergraph.errors import DocMismatch, EmptyDataset, MalformedRecord
from hiergraph.evaluation import EvalScores, ReportCounts, TypeCounts, grouped_row
from hiergraph.relations import (
    DISTANCE_BUCKETS,
    FEATURE_DIM,
    NONE_KIND,
    OUTPUT_KINDS,
)
from hiergraph.schema import (
    ENTITY_LABELS,
    RELATION_KINDS,
    SOURCES,
    SPLIT_ALIASES,
    SPLITS,
    Entity,
    ReportGraph,
    Violation,
    is_entity_label,
    normalize_label,
    serialize_report,
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


def reference_report(tree, logits, gold, flat, one):
    """A loss as first batched, from dense tables built here out of root
    paths and depths: each row's terms masked over ``mass_nodes`` (the
    gold leaf's root path without the root, or for ``flat`` the gold leaf
    alone), moved to depth columns by a one-hot matmul, every row
    rescaled (by exactly 1.0 when it is not clamped), and each depth's
    column summed on its own.  ``gold`` holds leaf indices, one per row of
    ``logits``; ``one`` reports a single row as one example.  Returns
    (loss, per_depth, grad, clamped)."""
    from hiergraph.losses import LOSS_CEILING, TINY

    column = {name: k for k, name in enumerate(tree.mass_nodes)}
    depth_of = np.array([tree.depth_of(name) for name in tree.mass_nodes])
    onehot = np.eye(tree.max_depth + 1)[depth_of]
    ancestors = np.zeros((len(tree.leaves), len(column)))
    paths = np.zeros(ancestors.shape, dtype=bool)
    for i, leaf in enumerate(tree.leaves):
        path = [column[name] for name in tree.root_path(leaf)]
        ancestors[i, path] = 1.0
        paths[i, path[1:]] = True
    probs = np.atleast_2d(leaf_distribution(tree, logits))
    mass = probs @ ancestors
    rows = np.arange(len(gold))
    if flat:
        mask = np.zeros(mass.shape, dtype=bool)
        mask[rows, gold] = True
        grad = probs.copy()
        grad[rows, gold] -= 1.0
    else:
        mask = paths[gold]
        grad = mask.sum(axis=1, keepdims=True) * probs - probs * (
            (mask / np.maximum(mass, TINY)) @ ancestors.T
        )

    terms = np.where(mask, -np.log(np.maximum(mass, TINY)), 0.0)
    comps = terms @ onehot
    totals = comps.sum(axis=1)
    clamped = (mask & (mass < TINY)).any(axis=1) | (totals > LOSS_CEILING)
    scale = LOSS_CEILING / np.where(clamped, totals, LOSS_CEILING)
    comps *= scale[:, None]
    grad *= scale[:, None]
    losses = np.where(clamped, LOSS_CEILING, totals)
    depths = sorted({0, *depth_of[mask.any(axis=0)].tolist()})
    if one:
        return (float(losses[0]), {d: float(comps[0, d]) for d in depths}, grad[0],
                bool(clamped[0]))
    return (float(losses.sum()), {d: float(comps[:, d].sum()) for d in depths}, grad,
            int(clamped.sum()))


def path_masses(tree, dist):
    """Node masses computed from root paths, not child recursion."""
    masses = {name: 0.0 for name in tree.nodes}
    for i, leaf in enumerate(tree.leaves):
        for name in tree.root_path(leaf):
            masses[name] += float(dist[i])
    return masses


def reference_propagate(tree, dist):
    """Node masses by child recursion, as ``propagate`` computed them
    before it walked the nodes in reverse breadth-first order."""
    masses = {}

    def mass(name):
        node = tree.nodes[name]
        if node.is_leaf:
            value = float(dist[tree.leaf_index(name)])
        else:
            value = sum(mass(c) for c in node.children)
        masses[name] = value
        return value

    mass("ROOT")
    return masses


def reference_subtree_leaf_indices(tree):
    """Node name -> logit indices of its leaves in depth-first child
    order, as ``TaxonomyTree`` collected them before it read them from
    its ``ancestors`` matrix."""
    position = {leaf: i for i, leaf in enumerate(tree.leaves)}
    indices = {}

    def collect(name):
        node = tree.nodes[name]
        if node.is_leaf:
            indices[name] = (position[name],)
        else:
            indices[name] = tuple(i for c in node.children for i in collect(c))
        return indices[name]

    collect("ROOT")
    return indices


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


# --- relation scorer, one pair at a time --------------------------------------


def bucket_index(offset):
    """Distance bucket of one offset, by scanning the bucket ranges."""
    for i, (lo, hi) in enumerate(DISTANCE_BUCKETS):
        if (lo is None or offset >= lo) and (hi is None or offset <= hi):
            return i
    raise AssertionError("bucket ranges cover every integer")


def pair_features(src, dst):
    """Dense one-hot feature vector of one pair."""
    phi = np.zeros(FEATURE_DIM)
    phi[ENTITY_LABELS.index(src.label)] = 1.0
    phi[len(ENTITY_LABELS) + ENTITY_LABELS.index(dst.label)] = 1.0
    offset = dst.start_ix - src.start_ix
    base = 2 * len(ENTITY_LABELS)
    phi[base + bucket_index(offset)] = 1.0
    if offset > 0:
        phi[base + len(DISTANCE_BUCKETS)] = 1.0
    phi[-1] = 1.0
    return phi


def reference_pairs(entities, cap):
    """Candidate pairs of one report by a double loop over all entities."""
    items = entities.values() if isinstance(entities, dict) else list(entities)
    ordered = sorted(items, key=lambda e: (e.start_ix, e.end_ix, e.id))
    return [
        (src, dst)
        for src in ordered
        for dst in ordered
        if src.id != dst.id and abs(dst.start_ix - src.start_ix) <= cap
    ]


def reference_relations(params, entities):
    """Decode one report by scoring every pair's dense features."""
    pairs = reference_pairs(entities, params.distance_cap)
    if not pairs:
        return []
    phi = np.array([pair_features(src, dst) for src, dst in pairs])
    picks = np.argmax(phi @ params.weights, axis=1)
    relations = []
    for (src, dst), pick in zip(pairs, picks):
        kind = OUTPUT_KINDS[int(pick)]
        if kind == NONE_KIND:
            continue
        if not relation_signature_allowed(kind, src.label, dst.label):
            continue
        relations.append(Relation(source_id=src.id, target_id=dst.id, kind=kind))
    return relations


def reference_pair_features(ds, cap):
    """Dense features and gold output kind index of every candidate pair."""
    features = []
    gold = []
    for report in ds.reports:
        kind_of = {}
        for rel in report.relations:
            kind_of.setdefault((rel.source_id, rel.target_id), rel.kind)
        for src, dst in reference_pairs(report.entities, cap):
            features.append(pair_features(src, dst))
            gold.append(OUTPUT_KINDS.index(kind_of.get((src.id, dst.id), NONE_KIND)))
    if not features:
        raise EmptyDataset("no candidate entity pairs to train on")
    return np.array(features), np.array(gold, dtype=int)


def reference_pair_loss(phi, gold, weights, l2):
    """Mean per-pair cross-entropy plus ``l2 / 2 * |weights|^2``, and its
    gradient, summed pair by pair."""
    loss = 0.5 * l2 * (weights**2).sum()
    grad = l2 * weights
    for x, kind in zip(phi, gold):
        scores = x @ weights
        log_p = scores - scores.max() - np.log(np.exp(scores - scores.max()).sum())
        loss -= log_p[kind] / len(gold)
        resid = np.exp(log_p)
        resid[kind] -= 1.0
        grad = grad + np.outer(x, resid) / len(gold)
    return loss, grad


def reference_train_relations(ds, cfg, cap):
    """Minibatch SGD on dense per-pair features, at the phase-1 rate for
    both epoch budgets: a baseline for the relation scorer's quality."""
    phi, gold = reference_pair_features(ds, cap)
    weights = np.zeros((FEATURE_DIM, len(OUTPUT_KINDS)))
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.phase1_epochs + cfg.phase2_epochs):
        order = rng.permutation(len(gold))
        for start in range(0, len(gold), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            scores = phi[batch] @ weights
            scores -= scores.max(axis=1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=1, keepdims=True)
            probs[np.arange(len(batch)), gold[batch]] -= 1.0
            grad = phi[batch].T @ probs / len(batch)
            weights -= cfg.lr_phase1 * (grad + cfg.l2 * weights)
    return RelationScorerParams(weights=weights, distance_cap=cap)


# --- dataset writer, one indented dump of the whole document -----------------


def reference_dataset_text(ds, meta=None):
    """A dataset file's text as ``json.dumps(doc, indent=1)`` of the
    whole document, ``_meta`` first, as datasets were first written."""
    doc = {}
    if meta:
        doc["_meta"] = meta
    doc.update({r.doc_id: serialize_report(r) for r in ds.reports})
    return json.dumps(doc, indent=1) + "\n"


# --- split selection, every report loaded first -------------------------------


def reference_load_selected(path, splits):
    """The reports of ``path`` in ``splits``: every report loaded, then
    filtered; EmptyDataset, naming the splits the file holds, if none
    is left."""
    reports = load_dataset(path).reports
    chosen = [r for r in reports if r.split in splits]
    if not chosen:
        held = [s for s in SPLITS if any(r.split == s for r in reports)]
        raise EmptyDataset(
            f"{path} holds no reports in {', '.join(splits)} "
            f"(its splits: {', '.join(held) or 'none'})"
        )
    return chosen


# --- predict, through report graphs ------------------------------------------


def reference_predict(model_path, data_path, out_path, splits, single_token=False):
    """``predict`` on report graphs: each selected report loaded with its
    gold entities and relations (``load_dataset(path, splits)``), which
    ``dataclasses.replace`` then swaps for the predicted ones, and the
    result written with ``save_dataset``."""
    model = load_model(model_path)
    reports = load_dataset(data_path, splits).reports
    tokens = [report.tokens for report in reports]
    tags = predict_tags(model.tagger, model.tree, tokens)
    entities = [
        decode_entities(report_tags, report_tokens, single_token=single_token)
        for report_tags, report_tokens in zip(tags, tokens)
    ]
    if model.relations:
        relations = predict_relations(model.relations, entities)
    else:
        relations = [[] for _ in entities]
    predicted = [
        dataclasses.replace(
            report, entities={e.id: e for e in report_entities}, relations=tuple(report_relations)
        )
        for report, report_entities, report_relations in zip(reports, entities, relations)
    ]
    meta = {"version": __version__, "taxonomy_hash": model.tree.config_hash}
    save_dataset(Dataset(predicted), out_path, meta=meta)


# --- record loader, one helper call per check ---------------------------------

_SOURCE_BY_LOWER = {s.lower(): s for s in SOURCES}


def reference_parse_report(doc_id, record):
    """``parse_report`` with keyword construction and per-entity helpers."""
    if not isinstance(record, dict):
        raise MalformedRecord(doc_id, "record is not an object")
    try:
        text = record["text"]
    except KeyError:
        raise MalformedRecord(doc_id, "missing 'text'") from None
    if not isinstance(text, str):
        raise MalformedRecord(doc_id, "'text' is not a string")

    split = record.get("split", record.get("data_split", "test"))
    if not isinstance(split, str):
        raise MalformedRecord(doc_id, "'split' is not a string")
    split = SPLIT_ALIASES.get(split.lower(), split.lower())
    if split not in SPLITS:
        raise MalformedRecord(doc_id, f"unknown split {split!r}")

    source = record.get("source", record.get("data_source", "synthetic"))
    if not isinstance(source, str):
        raise MalformedRecord(doc_id, "'source' is not a string")
    source = _SOURCE_BY_LOWER.get(source.lower(), source)

    raw_entities = record.get("entities", {})
    if not isinstance(raw_entities, dict):
        raise MalformedRecord(doc_id, "'entities' is not an object")

    entities = {}
    relations = []
    for eid, raw in raw_entities.items():
        if not isinstance(raw, dict):
            raise MalformedRecord(doc_id, f"entity {eid!r} is not an object")
        try:
            tokens = raw["tokens"]
            label = raw["label"]
            start_ix = raw["start_ix"]
            end_ix = raw["end_ix"]
        except KeyError as exc:
            raise MalformedRecord(doc_id, f"entity {eid!r} missing {exc}") from None
        if not isinstance(tokens, str) or not isinstance(label, str):
            raise MalformedRecord(doc_id, f"entity {eid!r} has non-string fields")
        if type(start_ix) is not int or type(end_ix) is not int:
            raise MalformedRecord(doc_id, f"entity {eid!r} has non-integer span")
        entities[str(eid)] = Entity(
            id=str(eid),
            tokens=tokens,
            start_ix=start_ix,
            end_ix=end_ix,
            label=normalize_label(label),
        )
        raw_rels = raw.get("relations", [])
        if not isinstance(raw_rels, list):
            raise MalformedRecord(doc_id, f"entity {eid!r} relations not a list")
        for item in raw_rels:
            if not (isinstance(item, list) and len(item) == 2):
                raise MalformedRecord(
                    doc_id, f"entity {eid!r} relation entry not a [kind, target] pair"
                )
            kind, target = item
            relations.append(
                Relation(source_id=str(eid), target_id=str(target), kind=str(kind))
            )

    return ReportGraph(
        doc_id=doc_id,
        text=text,
        tokens=tuple(text.split()),
        split=split,
        source=source,
        entities=entities,
        relations=tuple(relations),
    )


def reference_validate_graph(graph):
    """``validate_graph`` with per-relation signature calls and incident lists."""
    findings = []
    n = len(graph.tokens)

    seen_triples = {}
    for eid, ent in graph.entities.items():
        if not is_entity_label(ent.label):
            findings.append(
                Violation("unknown_label", "error", eid, f"unknown label {ent.label!r}")
            )
            continue
        if not (0 <= ent.start_ix <= ent.end_ix < n):
            findings.append(
                Violation(
                    "span_bounds",
                    "error",
                    eid,
                    f"span [{ent.start_ix}, {ent.end_ix}] outside 0..{n - 1}",
                )
            )
            continue
        span = graph.span_text(ent)
        if span != ent.tokens:
            findings.append(
                Violation(
                    "token_text",
                    "error",
                    eid,
                    f"entity text {ent.tokens!r} != report span {span!r}",
                )
            )
        triple = (ent.start_ix, ent.end_ix, ent.label)
        if triple in seen_triples:
            findings.append(
                Violation(
                    "duplicate_entity",
                    "error",
                    eid,
                    f"same span and label as entity {seen_triples[triple]!r}",
                )
            )
        else:
            seen_triples[triple] = eid

    incident = {eid: [] for eid in graph.entities}
    seen_rels = set()
    for rel in graph.relations:
        rid = f"{rel.source_id}-{rel.kind}->{rel.target_id}"
        if rel.kind not in RELATION_KINDS:
            findings.append(
                Violation(
                    "unknown_relation_kind", "error", rid, f"unknown kind {rel.kind!r}"
                )
            )
            continue
        if rel.source_id not in graph.entities or rel.target_id not in graph.entities:
            missing = (
                rel.target_id if rel.target_id not in graph.entities else rel.source_id
            )
            findings.append(
                Violation(
                    "dangling_relation",
                    "error",
                    rid,
                    f"endpoint {missing!r} does not resolve",
                )
            )
            continue
        if rel.source_id == rel.target_id:
            findings.append(
                Violation("self_relation", "error", rid, "entity related to itself")
            )
            continue
        incident[rel.source_id].append(rel)
        incident[rel.target_id].append(rel)

        key = (rel.source_id, rel.target_id, rel.kind)
        if key in seen_rels:
            findings.append(
                Violation("duplicate_relation", "warning", rid, "relation repeated")
            )
        seen_rels.add(key)

        src = graph.entities[rel.source_id]
        dst = graph.entities[rel.target_id]
        if not (is_entity_label(src.label) and is_entity_label(dst.label)):
            continue
        if not relation_signature_allowed(rel.kind, src.label, dst.label):
            if (
                rel.kind == "suggestive_of"
                and src.group == "CHAN"
                and dst.group == "CHAN"
            ):
                findings.append(
                    Violation(
                        "chan_chan_suggestive",
                        "warning",
                        rid,
                        "suggestive_of between two change entities",
                    )
                )
            else:
                findings.append(
                    Violation(
                        "bad_signature",
                        "error",
                        rid,
                        f"{rel.kind} ({src.label}, {dst.label}) not in the allowed set",
                    )
                )

    for eid, ent in graph.entities.items():
        if not is_entity_label(ent.label) or ent.group != "CHAN":
            continue
        rels = incident.get(eid, [])
        if not rels:
            findings.append(
                Violation(
                    "chan_isolated",
                    "warning",
                    eid,
                    "change entity with no incident relation",
                )
            )
        elif any(r.kind != "modify" for r in rels):
            findings.append(
                Violation(
                    "chan_non_modify",
                    "warning",
                    eid,
                    "change entity attached via a non-modify relation",
                )
            )

    return findings


# --- strict evaluator, Counters and one merge per aggregation level ----------


def reference_min_count_match(gold_keys, pred_keys, types):
    """One-to-one matching of identical keys by two Counters."""
    gold_c = Counter(gold_keys)
    pred_c = Counter(pred_keys)
    counts = {t: TypeCounts() for t in types}
    for key, n in gold_c.items():
        counts[key[0]].gold += n
    for key, n in pred_c.items():
        counts[key[0]].pred += n
        counts[key[0]].tp += min(n, gold_c.get(key, 0))
    return {t: c for t, c in counts.items() if c.gold or c.pred}


def _reference_relation_keys(graph):
    keys = []
    for rel in graph.relations:
        src = graph.entities[rel.source_id]
        dst = graph.entities[rel.target_id]
        keys.append(
            (
                rel.kind,
                (src.label, src.start_ix, src.end_ix),
                (dst.label, dst.start_ix, dst.end_ix),
            )
        )
    return keys


def reference_evaluate_report(gold, pred):
    """``evaluate_report`` checking alignment once per matcher."""
    counts = []
    for keys_of in (
        lambda g: [(e.label, e.start_ix, e.end_ix) for e in g.entities.values()],
        _reference_relation_keys,
    ):
        if gold.doc_id != pred.doc_id:
            raise DocMismatch(f"doc ids differ: {gold.doc_id!r} vs {pred.doc_id!r}")
        if gold.tokens != pred.tokens:
            raise DocMismatch(f"{gold.doc_id}: token sequences differ")
        gold_keys, pred_keys = keys_of(gold), keys_of(pred)
        types = {k[0] for k in gold_keys} | {k[0] for k in pred_keys}
        counts.append(reference_min_count_match(gold_keys, pred_keys, types))
    return ReportCounts(gold.doc_id, gold.source, counts[0], counts[1])


def _reference_merge(dicts, grouped):
    merged = {}
    for d in dicts:
        for key, counts in d.items():
            row = grouped_row(key) if grouped else key
            merged.setdefault(row, TypeCounts()).add(counts)
    return merged


def reference_aggregate(counts, grouped=False, with_sources=True):
    """``aggregate`` merging every report into the corpus and its source."""
    counts = list(counts)
    scores = EvalScores(
        entity_types=_reference_merge((c.entities for c in counts), grouped),
        relation_kinds=_reference_merge((c.relations for c in counts), grouped),
    )
    if with_sources:
        sources = sorted({c.source for c in counts})
        if len(sources) > 1:
            scores.per_source = {
                s: reference_aggregate(
                    [c for c in counts if c.source == s],
                    grouped=grouped,
                    with_sources=False,
                )
                for s in sources
            }
    return scores
