"""Two-phase tagger training, prediction, and span decoding."""

import numpy as np
import pytest

from hiergraph import (
    Dataset,
    EmptyDataset,
    LengthMismatch,
    OverlapConflict,
    TaggerParams,
    TaxonomyMismatch,
    TrainConfig,
    build_vocab,
    decode_entities,
    parse_report,
    predict_tags,
    tag_tree_for,
    to_token_labeling,
    train_two_phase,
)
from hiergraph.synth import make_separable_corpus

from oracles import reference_train

# Enough epochs for the linear model to separate the synthetic frames.
FULL_FIT = dict(phase1_epochs=60, phase2_epochs=30, lr_phase1=0.3, lr_phase2=0.06)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig().validate()

    def test_phase2_rate_must_be_smaller(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_phase1=0.1, lr_phase2=0.1).validate()
        with pytest.raises(ValueError):
            TrainConfig(lr_phase1=0.1, lr_phase2=0.5).validate()

    def test_other_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(phase1_epochs=-1).validate()
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(l2=-0.1).validate()
        with pytest.raises(ValueError):
            TrainConfig(lr_phase1=0.0, lr_phase2=0.0).validate()
        with pytest.raises(ValueError):
            TrainConfig(embed_dim=0).validate()


class TestVocab:
    def test_first_occurrence_order(self):
        ds = Dataset(
            [
                parse_report("a", {"text": "the heart the lung"}),
                parse_report("b", {"text": "lung is clear"}),
            ]
        )
        assert build_vocab(ds) == {
            "the": 1,
            "heart": 2,
            "lung": 3,
            "is": 4,
            "clear": 5,
        }

    def test_tag_tree_appends_none_last(self, tree3):
        tag_tree = tag_tree_for(tree3)
        assert tag_tree.leaves[:-1] == tree3.leaves
        assert tag_tree.leaves[-1] == "NONE"
        assert tag_tree.depth_of("NONE") == 1


class TestTraining:
    def test_separable_corpus_reaches_gold(self, tree3):
        ds = make_separable_corpus(n_reports=48, seed=0)
        params = train_two_phase(ds, tree3, TrainConfig(**FULL_FIT, seed=0))
        for report in ds.reports:
            got = predict_tags(params, tree3, report.tokens)
            assert got == list(to_token_labeling(report).labels), report.doc_id

    def test_bit_reproducible(self, tree3):
        ds = make_separable_corpus(n_reports=16, seed=1)
        cfg = TrainConfig(phase1_epochs=3, phase2_epochs=2, seed=5)
        a = train_two_phase(ds, tree3, cfg)
        b = train_two_phase(ds, tree3, cfg)
        assert np.array_equal(a.embeddings, b.embeddings)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.vocab == b.vocab

    def test_seed_changes_parameters(self, tree3):
        ds = make_separable_corpus(n_reports=16, seed=1)
        a = train_two_phase(ds, tree3, TrainConfig(2, 1, seed=0))
        b = train_two_phase(ds, tree3, TrainConfig(2, 1, seed=1))
        assert not np.array_equal(a.embeddings, b.embeddings)

    def test_zero_phase1_ignores_phase1_rate(self, tree3):
        # With no tree-loss epochs the phase-1 rate is inert, so wildly
        # different values must give bit-identical parameters.
        ds = make_separable_corpus(n_reports=16, seed=2)
        a = train_two_phase(ds, tree3, TrainConfig(0, 4, lr_phase1=0.5, lr_phase2=0.02, seed=3))
        b = train_two_phase(ds, tree3, TrainConfig(0, 4, lr_phase1=9.9, lr_phase2=0.02, seed=3))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.embeddings, b.embeddings)

    def test_epoch_records(self, tree3):
        ds = make_separable_corpus(n_reports=16, seed=3)
        records = []
        train_two_phase(ds, tree3, TrainConfig(3, 2, seed=0), on_epoch=records.append)
        assert [r["phase"] for r in records] == [1, 1, 1, 2, 2]
        assert [r["epoch"] for r in records] == [1, 2, 3, 1, 2]
        n_tokens = sum(len(r.tokens) for r in ds.reports)
        assert all(r["tokens"] == n_tokens for r in records)
        assert all(np.isfinite(r["loss"]) for r in records)
        assert all(r["clamped"] == 0 for r in records)
        for r in records:
            assert r["per_depth"][0] == 0.0
            assert sum(r["per_depth"].values()) == pytest.approx(r["loss"], rel=1e-12)

    def test_loss_decreases_on_separable(self, tree3):
        ds = make_separable_corpus(n_reports=32, seed=4)
        records = []
        train_two_phase(
            ds, tree3, TrainConfig(**FULL_FIT, seed=0), on_epoch=records.append
        )
        phase1 = [r["loss"] for r in records if r["phase"] == 1]
        assert phase1[-1] < phase1[0] / 2

    def test_l2_shrinks_weights(self, tree3):
        ds = make_separable_corpus(n_reports=16, seed=5)
        plain = train_two_phase(ds, tree3, TrainConfig(10, 5, seed=0))
        decayed = train_two_phase(ds, tree3, TrainConfig(10, 5, seed=0, l2=0.5))
        assert np.linalg.norm(decayed.weights) < np.linalg.norm(plain.weights)

    def test_matches_per_token_reference(self, tree3):
        # Mixed lengths, an empty report and batches of three: a window
        # that crossed a report boundary, or a row sent to the wrong
        # report's gradient, would move the parameters far past 1e-12.
        def report(doc_id, text, *spans):
            entities = {
                str(i): {"tokens": "x", "label": label, "start_ix": a,
                         "end_ix": b, "relations": []}
                for i, (label, a, b) in enumerate(spans, start=1)
            }
            return parse_report(doc_id, {"text": text, "entities": entities})

        mixed = [
            report("one", "opacity", ("OBS-DP", 0, 0)),
            report("empty", ""),
            report("two", "improved today", ("CHAN-CON-IMP", 0, 0)),
            report("long", "the right upper lobe has a new opacity that is unchanged",
                   ("ANAT-DP", 1, 3), ("CHAN-CON-AP", 6, 6), ("OBS-DP", 7, 7),
                   ("CHAN-NC", 10, 10)),
            report("plain", "no acute process"),
        ]
        ds = Dataset(mixed + list(make_separable_corpus(n_reports=6, seed=8).reports))
        for window in (0, 2):
            cfg = TrainConfig(4, 3, 0.5, 0.1, seed=2, batch_size=3, window=window,
                              embed_dim=5)
            records = []
            got = train_two_phase(ds, tree3, cfg, on_epoch=records.append)
            want, want_records = reference_train(ds, tree3, cfg)
            for name in ("weights", "bias", "embeddings"):
                np.testing.assert_allclose(
                    getattr(got, name), getattr(want, name), rtol=0, atol=1e-12
                )
            assert len(records) == len(want_records) == 7
            for r, w in zip(records, want_records):
                assert (r["phase"], r["epoch"], r["tokens"], r["clamped"]) == (
                    w["phase"], w["epoch"], w["tokens"], w["clamped"])
                assert r["loss"] == pytest.approx(w["loss"], rel=1e-12)
                assert r["per_depth"].keys() == w["per_depth"].keys()
                for d, v in w["per_depth"].items():
                    assert r["per_depth"][d] == pytest.approx(v, rel=1e-12, abs=1e-15)

    def test_empty_dataset(self, tree3):
        with pytest.raises(EmptyDataset):
            train_two_phase(Dataset([]), tree3, TrainConfig(1, 1))

    def test_unknown_gold_label_rejected(self, tree1):
        # A change label cannot be trained under the 4-leaf taxonomy.
        ds = Dataset(
            [
                parse_report(
                    "d",
                    {
                        "text": "stable overall",
                        "entities": {
                            "1": {
                                "tokens": "stable",
                                "label": "CHAN-NC",
                                "start_ix": 0,
                                "end_ix": 0,
                                "relations": [],
                            }
                        },
                    },
                )
            ]
        )
        with pytest.raises(TaxonomyMismatch):
            train_two_phase(ds, tree1, TrainConfig(1, 1))

    def test_conflicting_overlap_propagates(self, tree3):
        ds = Dataset(
            [
                parse_report(
                    "d",
                    {
                        "text": "right lower lobe",
                        "entities": {
                            "1": {"tokens": "right lower", "label": "ANAT-DP", "start_ix": 0, "end_ix": 1, "relations": []},
                            "2": {"tokens": "lower", "label": "OBS-DP", "start_ix": 1, "end_ix": 1, "relations": []},
                        },
                    },
                )
            ]
        )
        with pytest.raises(OverlapConflict):
            train_two_phase(ds, tree3, TrainConfig(1, 1))


class TestPredict:
    def test_all_none_model(self, tree3):
        ds = Dataset([parse_report("d", {"text": "all quiet on the film"})])
        params = train_two_phase(ds, tree3, TrainConfig(5, 3, seed=0))
        assert predict_tags(params, tree3, ["all", "quiet"]) == ["NONE", "NONE"]

    def test_empty_tokens(self, tree3):
        ds = make_separable_corpus(n_reports=8, seed=6)
        params = train_two_phase(ds, tree3, TrainConfig(1, 1, seed=0))
        assert predict_tags(params, tree3, []) == []

    def test_wrong_taxonomy_rejected(self, tree3, tree1):
        ds = make_separable_corpus(n_reports=8, seed=6)
        params = train_two_phase(ds, tree3, TrainConfig(1, 1, seed=0))
        with pytest.raises(TaxonomyMismatch):
            predict_tags(params, tree1, ["hi"])

    def test_oov_tokens_still_tagged(self, tree3):
        ds = make_separable_corpus(n_reports=8, seed=7)
        params = train_two_phase(ds, tree3, TrainConfig(1, 1, seed=0))
        tags = predict_tags(params, tree3, ["zzz", "qqq"])
        assert len(tags) == 2
        assert all(t in params.labels for t in tags)

    def test_params_shape_validation(self, tree3):
        labels = tag_tree_for(tree3).leaves
        with pytest.raises(LengthMismatch):
            TaggerParams(
                vocab={},
                labels=labels,
                window=2,
                embed_dim=4,
                embeddings=np.zeros((1, 4)),
                weights=np.zeros((3, len(labels))),
                bias=np.zeros(len(labels)),
            )


class TestDecode:
    def test_run_merging(self):
        tags = ["ANAT-DP", "ANAT-DP", "NONE", "OBS-DP"]
        tokens = ["right", "lung", "is", "clear"]
        ents = decode_entities(tags, tokens)
        assert [(e.label, e.start_ix, e.end_ix, e.tokens) for e in ents] == [
            ("ANAT-DP", 0, 1, "right lung"),
            ("OBS-DP", 3, 3, "clear"),
        ]
        assert [e.id for e in ents] == ["1", "2"]

    def test_label_change_splits_run(self):
        ents = decode_entities(["OBS-DP", "OBS-DA"], ["a", "b"])
        assert [(e.label, e.start_ix) for e in ents] == [("OBS-DP", 0), ("OBS-DA", 1)]

    def test_single_token_mode(self):
        ents = decode_entities(
            ["ANAT-DP", "ANAT-DP"], ["right", "lung"], single_token=True
        )
        assert [(e.start_ix, e.end_ix) for e in ents] == [(0, 0), (1, 1)]

    def test_all_none(self):
        assert decode_entities(["NONE", "NONE"], ["a", "b"]) == []
        assert decode_entities([], []) == []

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            decode_entities(["NONE"], ["a", "b"])
