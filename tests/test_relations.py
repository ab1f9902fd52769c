"""Pairwise relation scorer: features, candidates, training, decoding."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiergraph import (
    Dataset,
    EmptyDataset,
    LengthMismatch,
    RelationScorerParams,
    TrainConfigError,
    candidate_pairs,
    parse_report,
    predict_relations,
    train_relation_scorer,
)
from hiergraph import relations
from hiergraph.relations import (
    DISTANCE_BUCKETS,
    FEATURE_DIM,
    NONE_KIND,
    OUTPUT_KINDS,
    _CELL_SHAPE,
    _bucket,
    _cell_features,
    _share_loss,
    _training_pairs,
)
from hiergraph.schema import ENTITY_LABELS, Entity
from hiergraph.synth import make_random_corpus, make_separable_corpus
from hiergraph.tagger import TrainConfig
from oracles import (
    pair_features,
    reference_pair_features,
    reference_pair_loss,
    reference_pairs,
    reference_relations,
    reference_train_relations,
)


def ent(eid, label, start, end=None):
    end = start if end is None else end
    return Entity(id=eid, tokens="x", start_ix=start, end_ix=end, label=label)


def features(src, dst):
    """The one-hot feature row of one pair, read from the cell table."""
    cell = (
        ENTITY_LABELS.index(src.label),
        ENTITY_LABELS.index(dst.label),
        _bucket(dst.start_ix - src.start_ix),
    )
    return _cell_features()[np.ravel_multi_index(cell, _CELL_SHAPE)]


def relation_f1(params, ds):
    """Micro F1 of the relations decoded over each report's gold entities."""
    hits = predicted = gold = 0
    for report in ds.reports:
        got, want = set(predict_relations(params, report.entities)), set(report.relations)
        hits += len(got & want)
        predicted += len(got)
        gold += len(want)
    return 2 * hits / (predicted + gold)


class TestFeatures:
    def test_dimension(self):
        assert FEATURE_DIM == 2 * 12 + 11 + 2 == 37
        phi = features(ent("1", "OBS-DP", 0), ent("2", "ANAT-DP", 3))
        assert phi.shape == (FEATURE_DIM,)

    def test_one_hots(self):
        phi = features(ent("1", "OBS-DP", 0), ent("2", "ANAT-DP", 3))
        assert phi[ENTITY_LABELS.index("OBS-DP")] == 1.0
        assert phi[12 + ENTITY_LABELS.index("ANAT-DP")] == 1.0
        assert phi[:12].sum() == 1.0
        assert phi[12:24].sum() == 1.0
        assert phi[-1] == 1.0

    def test_direction_bit(self):
        fwd = features(ent("1", "OBS-DP", 0), ent("2", "ANAT-DP", 3))
        bwd = features(ent("1", "OBS-DP", 3), ent("2", "ANAT-DP", 0))
        same = features(ent("1", "OBS-DP", 2), ent("2", "ANAT-DP", 2))
        direction = 24 + len(DISTANCE_BUCKETS)
        assert fwd[direction] == 1.0
        assert bwd[direction] == 0.0
        assert same[direction] == 0.0

    def test_bucket_boundaries(self):
        # Inclusive range edges, pooled tails.
        cases = {
            -900: 0, -11: 0, -10: 1, -6: 1, -5: 2, -3: 2, -2: 3, -1: 4,
            0: 5, 1: 6, 2: 7, 3: 8, 5: 8, 6: 9, 10: 9, 11: 10, 900: 10,
        }
        for offset, want in cases.items():
            assert _bucket(offset) == want, offset
        assert _bucket(list(cases)).tolist() == list(cases.values())

    def test_every_offset_in_exactly_one_bucket(self):
        for offset in range(-40, 41):
            hits = [
                i
                for i, (lo, hi) in enumerate(DISTANCE_BUCKETS)
                if (lo is None or offset >= lo) and (hi is None or offset <= hi)
            ]
            assert hits == [_bucket(offset)]

    def test_tables_match_array_form(self):
        """The bucket edges and direction bits are tuples, turned into
        arrays where used; the results equal those of array tables."""
        edges = np.array([lo for lo, _ in DISTANCE_BUCKETS[1:]])
        forward = np.array([lo is not None and lo > 0 for lo, _ in DISTANCE_BUCKETS])
        offsets = np.arange(-40, 41)
        assert np.array_equal(_bucket(offsets), np.searchsorted(edges, offsets, side="right"))
        src, dst, bucket = np.indices(_CELL_SHAPE).reshape(3, -1)
        rows = np.arange(len(bucket))
        want = np.zeros((len(bucket), FEATURE_DIM))
        want[rows, src] = want[rows, 12 + dst] = want[rows, 24 + bucket] = 1.0
        want[:, -2] = forward[bucket]
        want[:, -1] = 1.0
        assert np.array_equal(_cell_features(), want)

    def test_exactly_one_bucket_bit_set(self):
        for offset in (-15, -4, 0, 4, 15):
            phi = features(ent("1", "OBS-DP", 10), ent("2", "ANAT-DP", 10 + offset))
            assert phi[24 : 24 + len(DISTANCE_BUCKETS)].sum() == 1.0

    def test_matches_dense_reference(self):
        for src_label in ENTITY_LABELS:
            for dst_label in ENTITY_LABELS:
                for offset in range(-14, 15):
                    src, dst = ent("1", src_label, 20), ent("2", dst_label, 20 + offset)
                    assert np.array_equal(features(src, dst), pair_features(src, dst))


class TestCandidates:
    def test_single_entity_no_pairs(self):
        assert candidate_pairs([ent("1", "OBS-DP", 0)]) == []
        assert candidate_pairs([]) == []

    def test_both_directions(self):
        pairs = candidate_pairs([ent("1", "OBS-DP", 0), ent("2", "ANAT-DP", 2)])
        assert [(s.id, d.id) for s, d in pairs] == [("1", "2"), ("2", "1")]

    def test_distance_cap(self):
        near = ent("1", "OBS-DP", 0)
        far = ent("2", "ANAT-DP", 25)
        assert candidate_pairs([near, far], cap=20) == []
        assert len(candidate_pairs([near, far], cap=25)) == 2

    def test_deterministic_order(self):
        entities = {
            "b": ent("b", "OBS-DP", 4),
            "a": ent("a", "ANAT-DP", 0),
            "c": ent("c", "OBS-U", 2),
        }
        pairs = candidate_pairs(entities)
        assert [(s.id, d.id) for s, d in pairs] == [
            ("a", "c"), ("a", "b"), ("c", "a"), ("c", "b"), ("b", "a"), ("b", "c"),
        ]

    def test_tie_breaks_by_id(self):
        entities = [ent("2", "OBS-DP", 0), ent("1", "ANAT-DP", 0)]
        pairs = candidate_pairs(entities)
        assert [(s.id, d.id) for s, d in pairs] == [("1", "2"), ("2", "1")]

    def test_same_id_never_pairs(self):
        entities = [ent("1", "OBS-DP", 0), ent("1", "ANAT-DP", 1), ent("2", "OBS-U", 2)]
        pairs = candidate_pairs(entities)
        assert [(s.start_ix, d.start_ix) for s, d in pairs] == [
            (0, 2), (1, 2), (2, 0), (2, 1),
        ]

    def test_caps_beyond_any_offset_and_below_zero(self):
        entities = [ent("1", "OBS-DP", 0), ent("2", "ANAT-DP", 7)]
        assert len(candidate_pairs(entities, cap=10**18)) == 2
        assert candidate_pairs(entities, cap=-1) == []

    def test_batch_gives_one_list_per_report(self):
        a = [ent("1", "OBS-DP", 0), ent("2", "ANAT-DP", 2)]
        b = {"7": ent("7", "OBS-U", 5)}
        c = [ent("1", "OBS-DP", 3), ent("2", "ANAT-DP", 3)]
        got = candidate_pairs([a, b, [], c])
        assert got == [candidate_pairs(a), [], [], candidate_pairs(c)]
        assert len(got[0]) == len(got[3]) == 2

    def test_reports_never_pair_across(self):
        # Equal starts in consecutive reports would pair if windows crossed.
        reports = [[ent("1", "OBS-DP", 5)], [ent("2", "ANAT-DP", 5)]]
        assert candidate_pairs(reports) == [[], []]

    def test_empty_batch(self):
        assert candidate_pairs([]) == []
        assert candidate_pairs([[]]) == [[]]


CORPORA = [
    make_separable_corpus(n_reports=12, seed=3),
    make_random_corpus(n_reports=40, seed=5, max_entities=6),
]
CORPUS_IDS = ["separable", "random"]


class TestTraining:
    def test_recovers_separable_relations(self):
        ds = make_separable_corpus(n_reports=48, seed=0)
        params = train_relation_scorer(ds)
        for report in ds.reports:
            got = set(predict_relations(params, report.entities))
            want = set(report.relations)
            assert got == want, report.doc_id

    def test_deterministic(self):
        ds = make_separable_corpus(n_reports=16, seed=1)
        a = train_relation_scorer(ds, 0.01)
        b = train_relation_scorer(ds, 0.01)
        assert np.array_equal(a.weights, b.weights)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            train_relation_scorer(Dataset([]))

    def test_no_pairs(self):
        ds = Dataset(
            [
                parse_report(
                    "d",
                    {
                        "text": "heart",
                        "entities": {
                            "1": {
                                "tokens": "heart",
                                "label": "ANAT-DP",
                                "start_ix": 0,
                                "end_ix": 0,
                                "relations": [],
                            }
                        },
                    },
                )
            ]
        )
        with pytest.raises(EmptyDataset):
            train_relation_scorer(ds)

    @pytest.mark.parametrize("l2", [-0.01, float("nan"), float("inf")])
    def test_l2_must_be_finite_and_non_negative(self, l2):
        with pytest.raises(TrainConfigError):
            train_relation_scorer(make_separable_corpus(n_reports=4, seed=2), l2)

    def test_cap_stored_in_params(self):
        ds = make_separable_corpus(n_reports=8, seed=2)
        params = train_relation_scorer(ds, cap=7)
        assert params.distance_cap == 7

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("ds", CORPORA, ids=CORPUS_IDS)
    def test_share_loss_matches_per_pair_loss(self, ds, l2):
        x, share = _training_pairs(ds, 7)
        weights = np.random.default_rng(11).normal(size=(FEATURE_DIM, len(OUTPUT_KINDS)))
        loss, grad = _share_loss(weights, x, share, l2)
        want_loss, want_grad = reference_pair_loss(*reference_pair_features(ds, 7), weights, l2)
        assert abs(loss - want_loss) <= 1e-12
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "cfg",
        [TrainConfig(seed=5), TrainConfig(2, 1, seed=5, batch_size=3, l2=0.01)],
        ids=["defaults", "short-l2"],
    )
    @pytest.mark.parametrize("ds", CORPORA, ids=CORPUS_IDS)
    def test_at_least_as_good_as_sgd_reference(self, ds, cfg):
        got = train_relation_scorer(ds, cfg.l2, cap=7)
        want = reference_train_relations(ds, cfg, 7)
        assert relation_f1(got, ds) >= relation_f1(want, ds)
        x, share = _training_pairs(ds, 7)
        loss = _share_loss(got.weights, x, share, cfg.l2)[0]
        assert loss <= _share_loss(want.weights, x, share, cfg.l2)[0]

    def test_weight_shape_validated(self):
        with pytest.raises(LengthMismatch):
            RelationScorerParams(weights=np.zeros((5, 4)))


class TestDecoding:
    def test_signature_filter_drops_forbidden_kind(self):
        # Force located_at as the argmax for every pair: an anatomy
        # source can never emit it, so nothing survives.
        weights = np.zeros((FEATURE_DIM, len(OUTPUT_KINDS)))
        weights[-1, OUTPUT_KINDS.index("located_at")] = 5.0
        params = RelationScorerParams(weights=weights)
        anat_only = [ent("1", "ANAT-DP", 0), ent("2", "ANAT-DP", 2)]
        assert predict_relations(params, anat_only) == []
        mixed = [ent("1", "OBS-DP", 0), ent("2", "ANAT-DP", 2)]
        got = predict_relations(params, mixed)
        assert [(r.source_id, r.target_id, r.kind) for r in got] == [
            ("1", "2", "located_at")
        ]

    def test_none_argmax_emits_nothing(self):
        weights = np.zeros((FEATURE_DIM, len(OUTPUT_KINDS)))
        weights[-1, OUTPUT_KINDS.index(NONE_KIND)] = 5.0
        params = RelationScorerParams(weights=weights)
        assert predict_relations(params, [ent("1", "OBS-DP", 0), ent("2", "ANAT-DP", 1)]) == []

    def test_respects_stored_cap(self):
        weights = np.zeros((FEATURE_DIM, len(OUTPUT_KINDS)))
        weights[-1, OUTPUT_KINDS.index("modify")] = 5.0
        params = RelationScorerParams(weights=weights, distance_cap=3)
        spread = [ent("1", "OBS-DP", 0), ent("2", "OBS-DP", 10)]
        assert predict_relations(params, spread) == []

    def test_accepts_entity_dict(self):
        weights = np.zeros((FEATURE_DIM, len(OUTPUT_KINDS)))
        weights[-1, OUTPUT_KINDS.index("modify")] = 5.0
        params = RelationScorerParams(weights=weights)
        entities = {
            "1": ent("1", "OBS-DP", 0),
            "2": ent("2", "OBS-U", 1),
        }
        got = predict_relations(params, entities)
        assert len(got) == 2

    def test_batch_gives_one_list_per_report(self):
        weights = np.zeros((FEATURE_DIM, len(OUTPUT_KINDS)))
        weights[-1, OUTPUT_KINDS.index("modify")] = 5.0
        params = RelationScorerParams(weights=weights)
        a = [ent("1", "OBS-DP", 0), ent("2", "OBS-U", 1)]
        b = {"1": ent("1", "ANAT-DP", 0)}
        got = predict_relations(params, [a, b, a])
        assert got == [predict_relations(params, a), [], predict_relations(params, a)]
        assert len(got[0]) == 2
        assert predict_relations(params, []) == []


entity = st.builds(
    lambda eid, label, start, width: ent(eid, label, start, start + width),
    st.sampled_from("abcd"),
    st.sampled_from(ENTITY_LABELS),
    st.integers(0, 40),
    st.integers(0, 2),
)


@settings(max_examples=150, deadline=None)
@given(
    reports=st.lists(st.lists(entity, max_size=10), min_size=1, max_size=5),
    cap=st.integers(0, 30),
    weight_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    block=st.integers(1, 12),
)
def test_batch_single_and_reference_agree(reports, cap, weight_seed, block):
    """Batched and single-report decoding match the per-pair reference,
    with blocks of reports that may end inside the batch."""
    shape = (FEATURE_DIM, len(OUTPUT_KINDS))
    if weight_seed is None:
        weights = np.zeros(shape)
    else:
        weights = np.random.default_rng(weight_seed).normal(0.0, 2.0, size=shape)
    params = RelationScorerParams(weights=weights, distance_cap=cap)
    with mock.patch.object(relations, "_BLOCK_ENTITIES", block):
        batch_pairs = candidate_pairs(reports, cap)
        batch_relations = predict_relations(params, reports)
    assert len(batch_pairs) == len(batch_relations) == len(reports)
    for report, pairs, found in zip(reports, batch_pairs, batch_relations):
        assert pairs == candidate_pairs(report, cap) == reference_pairs(report, cap)
        assert found == predict_relations(params, report) == reference_relations(params, report)
