"""Two-phase tagger training, prediction, and span decoding."""

import numpy as np
import pytest

from hiergraph import (
    Dataset,
    DuplicateNode,
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
from hiergraph import tagger
from hiergraph.tagger import _blocks, _embedding_grad, _scatter_rows, _window_features
from hiergraph.taxonomy import SHIPPED_CONFIGS, load_taxonomy

from oracles import reference_train

# Enough epochs for the linear model to separate the synthetic frames.
FULL_FIT = dict(phase1_epochs=60, phase2_epochs=30, lr_phase1=0.3, lr_phase2=0.06)


def mixed_corpus():
    """Reports of 0 to 11 tokens, then six separable frames."""
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
    return Dataset(mixed + list(make_separable_corpus(n_reports=6, seed=8).reports))


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


class TestWindowLayout:
    @pytest.mark.parametrize("window", [0, 1, 2, 3])
    def test_embedding_grad_is_adjoint_of_window_features(self, window):
        # <F(X), Y> == <X, G(Y)> for the window features F of a block's
        # embedding rows X and the embedding gradient G.  The block holds
        # reports of every length up to past the window, reports shorter
        # than it included, with gap slots between them.
        rng = np.random.default_rng(window)
        dim = 3
        params = TaggerParams(
            vocab={},
            labels=("A", "NONE"),
            window=window,
            embed_dim=dim,
            embeddings=rng.normal(size=(12, dim)),
            weights=np.zeros(((2 * window + 1) * dim, 2)),
            bias=np.zeros(2),
        )
        batch = [rng.integers(0, 12, size=n) for n in rng.permutation(np.arange(1, 8))]
        [(start, stop, rows, length)] = _blocks([len(ids) for ids in batch], window)
        assert (start, stop, length) == (0, 28, 28 + 6 * window)
        x = np.zeros((length, dim))
        x[rows] = params.embeddings[np.concatenate(batch)]
        y = rng.normal(size=(length, (2 * window + 1) * dim))
        phi = _window_features(params, x)
        assert abs(np.sum(phi * y) - np.sum(x * _embedding_grad(params, y))) <= 1e-12
        # The gap slots keep each window inside its report: a report's
        # rows of the block features are the features it has alone.
        ends = np.cumsum([len(ids) for ids in batch])
        for ids, report_rows in zip(batch, np.split(rows, ends[:-1])):
            alone = _window_features(params, params.embeddings[ids])
            np.testing.assert_array_equal(phi[report_rows], alone)

    def test_blocks_cap_tokens_and_keep_order(self, monkeypatch):
        monkeypatch.setattr(tagger, "_BLOCK_TOKENS", 5)
        lengths = [2, 3, 1, 7, 4, 1, 5]
        ids = np.concatenate([np.full(n, i) for i, n in enumerate(lengths)])
        blocks = list(_blocks(lengths, 2))
        # 2+3 fill a block; 1 alone, since 1+7 > 5; 7 over the cap alone.
        assert [np.unique(ids[start:stop]).tolist() for start, stop, _, _ in blocks] == [
            [0, 1], [2], [3], [4, 5], [6]]
        assert [length for _, _, _, length in blocks] == [7, 1, 7, 7, 5]
        np.testing.assert_array_equal(blocks[0][2], [0, 1, 4, 5, 6])
        # The blocks cover the tokens laid end to end, in order.
        assert [(start, stop) for start, stop, _, _ in blocks] == [
            (0, 5), (5, 6), (6, 13), (13, 18), (18, 23)]


class TestScatterRows:
    """One ``np.bincount`` over a minibatch gives the bits of one
    ``np.add.at`` per block, added in block order."""

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_bits(self, n_blocks, seed):
        rng = np.random.default_rng(seed)
        vocab, dim = 6, 5
        lengths = rng.integers(1, 300, size=n_blocks)
        # Few ids, so each repeats many times; magnitudes far apart, so
        # that adding in another order changes the bits.
        blocks = [rng.integers(0, vocab, size=n) for n in lengths]
        grads = [rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
                 for n in lengths]
        want = np.zeros((vocab + 2, dim))
        for ids, g in zip(blocks, grads):
            np.add.at(want, ids, g)
        got = _scatter_rows(np.concatenate(blocks), np.concatenate(grads), vocab + 2)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # The order of the additions shows in the bits.
        shuffled = np.zeros_like(want)
        order = rng.permutation(int(lengths.sum()))
        np.add.at(shuffled, np.concatenate(blocks)[order], np.concatenate(grads)[order])
        assert shuffled.tobytes() != want.tobytes()


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
        params = train_two_phase(ds, tree3, TrainConfig(3, 2, seed=0), on_epoch=records.append)
        assert [r["phase"] for r in records] == [1, 1, 1, 2, 2]
        assert [r["epoch"] for r in records] == [1, 2, 3, 1, 2]
        n_tokens = sum(len(r.tokens) for r in ds.reports)
        assert all(r["tokens"] == n_tokens for r in records)
        assert all(np.isfinite(r["loss"]) for r in records)
        assert all(r["clamped"] == 0 for r in records)
        for r in records:
            assert r["per_depth"][0] == 0.0
            assert sum(r["per_depth"].values()) == pytest.approx(r["loss"], rel=1e-12)
            assert r["grad_norm"] > 0
        assert records[-1]["weight_norm"] == np.linalg.norm(params.weights)

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
        ds = mixed_corpus()
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

    def test_small_blocks_match_per_token_reference(self, tree3, monkeypatch):
        # A 4-token cap splits minibatches of three across blocks, and the
        # 11-token report is a block alone, over the cap.
        monkeypatch.setattr(tagger, "_BLOCK_TOKENS", 4)
        self.test_matches_per_token_reference(tree3)

    def test_window_features_see_at_most_a_block(self, tree3, monkeypatch):
        # Real embedding rows are nonzero and gap slots zero, so each call
        # shows its real tokens and, as runs of nonzero rows, its reports.
        monkeypatch.setattr(tagger, "_BLOCK_TOKENS", 4)
        calls = []

        def spy(params, rows):
            real = np.any(rows != 0, axis=1)
            starts = real & ~np.concatenate([[False], real[:-1]])
            calls.append((int(real.sum()), int(starts.sum())))
            return _window_features(params, rows)

        monkeypatch.setattr(tagger, "_window_features", spy)
        ds = mixed_corpus()
        records = []
        cfg = TrainConfig(2, 1, 0.5, 0.1, seed=2, batch_size=3, window=2, embed_dim=5)
        train_two_phase(ds, tree3, cfg, on_epoch=records.append)
        assert all(tokens <= 4 or reports == 1 for tokens, reports in calls), calls
        assert any(reports > 1 for _, reports in calls)
        assert any(tokens > 4 for tokens, _ in calls)
        assert sum(tokens for tokens, _ in calls) == sum(r["tokens"] for r in records)

    def test_norms_on_one_token(self, tree3):
        # One one-token report, window 0, one flat epoch from zero weights:
        # the softmax is uniform over the L tag leaves, so the logit
        # gradient 1/L - onehot(NONE) has norm sqrt((L-1)/L), and d_w is
        # its outer product with the token's initial embedding x.  The one
        # step is -lr * d_w, and l2 does not enter grad_norm.
        ds = Dataset([parse_report("d", {"text": "clear"})])
        cfg = TrainConfig(0, 1, lr_phase1=1.0, lr_phase2=0.5, seed=4, window=0,
                          embed_dim=3, l2=0.25)
        records = []
        train_two_phase(ds, tree3, cfg, on_epoch=records.append)
        x = np.random.default_rng(4).normal(0.0, 0.1, size=(2, 3))[1]
        n_leaves = len(tree3.leaves) + 1
        want = np.linalg.norm(x) * np.sqrt((n_leaves - 1) / n_leaves)
        [r] = records
        assert r["grad_norm"] == pytest.approx(want, rel=1e-12)
        assert r["weight_norm"] == pytest.approx(0.5 * want, rel=1e-12)

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

    @pytest.mark.parametrize("cap", [4, 256])
    def test_batch_matches_reports_alone(self, tree3, monkeypatch, cap):
        # Reports of 0 to 11 tokens, in blocks of at most ``cap`` tokens:
        # each report's tags are those its windows give alone, and a batch
        # tags as one call per report does.  Random weights make every
        # window slot count, so a neighbouring report's token would show.
        monkeypatch.setattr(tagger, "_BLOCK_TOKENS", cap)
        ds = mixed_corpus()
        vocab = build_vocab(ds)
        labels = tag_tree_for(tree3).leaves
        rng = np.random.default_rng(3)
        params = TaggerParams(vocab, labels, 2, 4, rng.normal(size=(len(vocab) + 1, 4)),
                              rng.normal(size=(20, len(labels))), rng.normal(size=len(labels)))
        tokens = [report.tokens for report in ds.reports]
        want = []
        for report in tokens:
            ids = [params.vocab.get(token, 0) for token in report]
            logits = _window_features(params, params.embeddings[ids]) @ params.weights
            want.append([params.labels[i] for i in np.argmax(logits + params.bias, axis=1)])
        assert len({tag for tags in want for tag in tags}) > 2
        assert predict_tags(params, tree3, tokens) == want
        assert [predict_tags(params, tree3, report) for report in tokens] == want
        assert predict_tags(params, tree3, [[], []]) == [[], []]

    def test_wrong_taxonomy_rejected(self, tree3, tree1):
        ds = make_separable_corpus(n_reports=8, seed=6)
        params = train_two_phase(ds, tree3, TrainConfig(1, 1, seed=0))
        with pytest.raises(TaxonomyMismatch):
            predict_tags(params, tree1, ["hi"])

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_tag_labels_on_shipped_trees(self, config):
        tree = load_taxonomy(config)
        tag_tree = tag_tree_for(tree)
        assert tag_tree.leaves == tree.leaves + ("NONE",)

        def params(labels):
            n = len(labels)
            return TaggerParams({}, labels, 0, 1, np.zeros((1, 1)), np.zeros((1, n)), np.zeros(n))

        assert predict_tags(params(tag_tree.leaves), tree, ["a", "b"]) == [tree.leaves[0]] * 2
        for labels in (tree.leaves, ("NONE",) + tree.leaves, tag_tree.leaves[::-1]):
            for tokens in ([], ["a"]):
                with pytest.raises(TaxonomyMismatch):
                    predict_tags(params(labels), tree, tokens)
        # The tag tree already has the non-entity leaf.
        for tokens in ([], ["a"]):
            with pytest.raises(DuplicateNode):
                predict_tags(params(tag_tree.leaves), tag_tree, tokens)
        with pytest.raises(DuplicateNode):
            tag_tree_for(tag_tree)

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
