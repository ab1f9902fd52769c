"""Hierarchical and flat losses: values, components, gradients, clamping."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiergraph import (
    LengthMismatch,
    NonFiniteLogit,
    NotALeaf,
    UnknownNode,
    check_loss_gradients,
    conditional_hier_loss,
    gradient_check,
    leaf_distribution,
    tag_tree_for,
    unconditional_loss,
)
from hiergraph.losses import LOSS_CEILING, TINY

from oracles import mp_conditional_loss, mp_unconditional_loss, reference_report

ROOT = Path(__file__).resolve().parents[1]

UNIFORM12 = np.zeros(12)


class TestSpotValues:
    """Frozen values for uniform logits on the shipped 12-leaf tree.

    Depth-d component = -log(mass of the gold path node at depth d);
    with uniform logits each leaf has mass 1/12.
    """

    def test_three_level_gold(self, tree3):
        # CHAN-CON-IMP: masses 8/12, 4/12, 1/12.
        rep = conditional_hier_loss(tree3, UNIFORM12, "CHAN-CON-IMP")
        assert rep.loss == pytest.approx(3.988984, abs=1e-6)
        assert rep.per_depth[0] == 0.0
        assert rep.per_depth[1] == pytest.approx(math.log(12 / 8), abs=1e-12)
        assert rep.per_depth[2] == pytest.approx(math.log(12 / 4), abs=1e-12)
        assert rep.per_depth[3] == pytest.approx(math.log(12), abs=1e-12)
        assert not rep.clamped

    def test_two_level_gold(self, tree3):
        # ANAT-DP: masses 1/12 at depth 1 and depth 2; no depth-3 term.
        rep = conditional_hier_loss(tree3, UNIFORM12, "ANAT-DP")
        assert rep.loss == pytest.approx(4.969813, abs=1e-6)
        assert sorted(rep.per_depth) == [0, 1, 2]

    def test_shallow_change_gold(self, tree3):
        # CHAN-NC: masses 8/12 then 1/12.
        rep = conditional_hier_loss(tree3, UNIFORM12, "CHAN-NC")
        assert rep.loss == pytest.approx(2.890372, abs=1e-6)

    def test_flat_uniform_13(self, tree3):
        ext = tree3.with_extra_leaf("NONE")
        rep = unconditional_loss(ext, np.zeros(13), "OBS-U")
        assert rep.loss == pytest.approx(math.log(13), abs=1e-9)
        assert rep.per_depth == {0: 0.0, 2: rep.loss}

    def test_flat_uniform_12(self, tree3):
        rep = unconditional_loss(tree3, UNIFORM12, "ANAT-DP")
        assert rep.loss == pytest.approx(math.log(12), abs=1e-9)


class TestAgainstOracle:
    def test_conditional_matches_high_precision(self, tree3, tree2, tree1):
        rng = np.random.default_rng(4)
        for tree in (tree3, tree2, tree1):
            k = len(tree.leaves)
            for _ in range(40):
                logits = rng.normal(size=k) * 2
                gold = tree.leaves[rng.integers(k)]
                rep = conditional_hier_loss(tree, logits, gold)
                want = float(mp_conditional_loss(tree, logits, gold))
                assert rep.loss == pytest.approx(want, abs=1e-9)

    def test_flat_matches_high_precision(self, tree3, tree1):
        rng = np.random.default_rng(9)
        for tree in (tree3, tree1):
            k = len(tree.leaves)
            for _ in range(40):
                logits = rng.normal(size=k) * 2
                gold = tree.leaves[rng.integers(k)]
                rep = unconditional_loss(tree, logits, gold)
                want = float(mp_unconditional_loss(tree, logits, gold))
                assert rep.loss == pytest.approx(want, abs=1e-9)


class TestStructure:
    def test_components_sum_to_loss(self, tree3):
        rng = np.random.default_rng(6)
        for _ in range(30):
            logits = rng.normal(size=12) * 3
            gold = tree3.leaves[rng.integers(12)]
            rep = conditional_hier_loss(tree3, logits, gold)
            assert rep.loss == pytest.approx(sum(rep.per_depth.values()), abs=1e-12)
            assert rep.per_depth[0] == 0.0
            assert all(v >= 0.0 for v in rep.per_depth.values())
            assert max(rep.per_depth) == tree3.depth_of(gold)
            assert not rep.clamped

    def test_no_terms_past_gold_depth(self, tree3):
        rep = conditional_hier_loss(tree3, UNIFORM12, "ANAT-DP")
        assert 3 not in rep.per_depth
        rep = conditional_hier_loss(tree3, UNIFORM12, "CHAN-NC")
        assert sorted(rep.per_depth) == [0, 1, 2]

    def test_dominates_flat(self, tree3, tree2, tree1):
        # Ancestor terms only add mass penalties, so the hierarchical
        # loss is never below the flat loss on the same gold leaf.
        rng = np.random.default_rng(8)
        for tree in (tree3, tree2, tree1):
            k = len(tree.leaves)
            for _ in range(40):
                logits = rng.normal(size=k) * 2
                gold = tree.leaves[rng.integers(k)]
                hier = conditional_hier_loss(tree, logits, gold).loss
                flat = unconditional_loss(tree, logits, gold).loss
                assert hier >= flat - 1e-9

    def test_shift_invariance(self, tree3):
        rng = np.random.default_rng(10)
        for _ in range(20):
            logits = rng.normal(size=12) * 2
            for fn in (conditional_hier_loss, unconditional_loss):
                a = fn(tree3, logits, "OBS-U")
                b = fn(tree3, logits + 57.0, "OBS-U")
                assert a.loss == pytest.approx(b.loss, abs=1e-9)
                np.testing.assert_allclose(a.grad, b.grad, atol=1e-9)

    def test_confident_correct_is_near_zero(self, tree3):
        logits = np.zeros(12)
        logits[tree3.leaf_index("OBS-DP")] = 30.0
        rep = conditional_hier_loss(tree3, logits, "OBS-DP")
        assert 0.0 <= rep.loss < 1e-9
        rep = unconditional_loss(tree3, logits, "OBS-DP")
        assert 0.0 <= rep.loss < 1e-9

    def test_errors(self, tree3):
        with pytest.raises(NotALeaf):
            conditional_hier_loss(tree3, UNIFORM12, "CHAN")
        with pytest.raises(UnknownNode):
            conditional_hier_loss(tree3, UNIFORM12, "PNEUMONIA")
        with pytest.raises(LengthMismatch):
            conditional_hier_loss(tree3, np.zeros(5), "ANAT-DP")
        with pytest.raises(NonFiniteLogit):
            unconditional_loss(tree3, [float("nan")] * 12, "ANAT-DP")


class TestClamping:
    def test_extreme_logits_clamp(self, tree3):
        logits = np.zeros(12)
        logits[tree3.leaf_index("ANAT-DP")] = -800.0
        rep = conditional_hier_loss(tree3, logits, "ANAT-DP")
        assert rep.clamped
        assert rep.loss == pytest.approx(LOSS_CEILING, abs=1e-9)
        assert rep.loss == pytest.approx(sum(rep.per_depth.values()), abs=1e-9)
        assert np.all(np.isfinite(rep.grad))

    def test_flat_clamp(self, tree3):
        logits = np.zeros(12)
        logits[tree3.leaf_index("OBS-U")] = -1500.0
        rep = unconditional_loss(tree3, logits, "OBS-U")
        assert rep.clamped
        assert rep.loss == pytest.approx(LOSS_CEILING, abs=1e-9)
        assert np.all(np.isfinite(rep.grad))

    def test_normal_regime_never_clamps(self, tree3):
        rng = np.random.default_rng(12)
        for _ in range(50):
            logits = rng.normal(size=12) * 5
            gold = tree3.leaves[rng.integers(12)]
            assert not conditional_hier_loss(tree3, logits, gold).clamped
            assert not unconditional_loss(tree3, logits, gold).clamped


class TestGradients:
    def test_gradient_check_harness(self):
        # Quadratic with known gradient: the harness must accept the
        # true gradient and reject a corrupted one.
        def good(x):
            return float(x @ x), 2.0 * x

        def bad(x):
            g = 2.0 * x
            g[0] += 0.5
            return float(x @ x), g

        x = np.array([0.3, -0.7, 1.1])
        assert gradient_check(good, x) < 1e-8
        assert gradient_check(bad, x) > 1e-2

    def test_both_losses_all_taxonomies(self, tree3, tree2, tree1):
        for tree in (tree3, tree2, tree1):
            worst = check_loss_gradients(tree, trials=25, seed=0)
            assert set(worst) == {"conditional", "unconditional"}
            assert worst["conditional"] < 1e-4
            assert worst["unconditional"] < 1e-4

    def test_zero_gradient_at_optimum(self, tree3):
        # One-sample optimum: confident correct logits give a
        # vanishing gradient both analytically and numerically.
        logits = np.zeros(12)
        logits[tree3.leaf_index("ANAT-DP")] = 30.0
        for fn in (conditional_hier_loss, unconditional_loss):
            rep = fn(tree3, logits, "ANAT-DP")
            assert np.max(np.abs(rep.grad)) < 1e-6
            numeric = np.zeros(12)
            for i in range(12):
                e = np.zeros(12)
                e[i] = 1e-5
                numeric[i] = (fn(tree3, logits + e, "ANAT-DP").loss
                              - fn(tree3, logits - e, "ANAT-DP").loss) / 2e-5
            assert np.max(np.abs(numeric)) < 1e-6

    def test_gradient_sums_to_zero(self, tree3):
        # Shift invariance implies the gradient coordinates sum to 0.
        rng = np.random.default_rng(14)
        for _ in range(30):
            logits = rng.normal(size=12) * 2
            gold = tree3.leaves[rng.integers(12)]
            for fn in (conditional_hier_loss, unconditional_loss):
                rep = fn(tree3, logits, gold)
                assert abs(rep.grad.sum()) < 1e-12

    def test_gradient_matches_extended_precision(self, tree3):
        # Central differences on the 50-digit oracle certify the
        # analytic gradient itself, independent of float64 roundoff.
        from mpmath import mp, mpf

        rng = np.random.default_rng(15)
        h = mpf("1e-20")
        for _ in range(3):
            logits = rng.normal(size=12) * 1.5
            gold = tree3.leaves[rng.integers(12)]
            rep = conditional_hier_loss(tree3, logits, gold)
            for i in range(12):
                up = [mpf(float(v)) for v in logits]
                dn = [mpf(float(v)) for v in logits]
                up[i] += h
                dn[i] -= h
                want = (mp_conditional_loss(tree3, up, gold)
                        - mp_conditional_loss(tree3, dn, gold)) / (2 * h)
                assert rep.grad[i] == pytest.approx(float(want), abs=1e-10)


class TestBatch:
    """(N, leaves) logits give the row-by-row results, summed."""

    @staticmethod
    def _batch(tree, rng):
        """Random rows plus one forced underflow and one over the ceiling
        without underflow (every CHAN leaf far below the rest)."""
        k = len(tree.leaves)
        logits = rng.normal(0.0, 3.0, size=(40, k))
        gold = rng.integers(k, size=40)
        logits[0, gold[0]] = -1500.0
        chan = [i for i, leaf in enumerate(tree.leaves) if leaf.startswith("CHAN")]
        if chan:
            deep = max(chan, key=lambda i: tree.depth_of(tree.leaves[i]))
            logits[1] = 0.0
            logits[1, chan] = -500.0
            gold[1] = deep
        return logits, gold

    def test_matches_rows(self, tree3, tree2, tree1):
        rng = np.random.default_rng(16)
        for tree in (tag_tree_for(tree3), tag_tree_for(tree2), tag_tree_for(tree1)):
            logits, gold = self._batch(tree, rng)
            names = [tree.leaves[i] for i in gold]
            for fn in (conditional_hier_loss, unconditional_loss):
                rows = [fn(tree, x, g) for x, g in zip(logits, names)]
                batch = fn(tree, logits, gold)
                assert batch.loss == pytest.approx(sum(r.loss for r in rows), rel=1e-12)
                depths = set().union(*(r.per_depth for r in rows))
                assert set(batch.per_depth) == depths
                for d in depths:
                    want = sum(r.per_depth.get(d, 0.0) for r in rows)
                    assert batch.per_depth[d] == pytest.approx(want, rel=1e-12, abs=1e-12)
                np.testing.assert_allclose(
                    batch.grad, [r.grad for r in rows], rtol=0, atol=1e-14
                )
                assert batch.clamped == sum(r.clamped for r in rows)
                assert rows[0].clamped
                # Leaf names and leaf indices select the same rows.
                by_name = fn(tree, logits, names)
                assert by_name.loss == batch.loss
                assert np.array_equal(by_name.grad, batch.grad)
            if tree.leaves[gold[1]].startswith("CHAN"):
                over = conditional_hier_loss(tree, logits[1], tree.leaves[gold[1]])
                assert over.clamped and over.loss == LOSS_CEILING
                mass = leaf_distribution(tree, logits[1]) @ tree.ancestors
                assert np.all(mass[tree.path_columns[gold[1]]] >= TINY)

    def test_one_row_batch_is_the_single_call(self, tree3):
        rng = np.random.default_rng(17)
        for _ in range(20):
            logits = rng.normal(size=12) * 3
            gold = tree3.leaves[rng.integers(12)]
            for fn in (conditional_hier_loss, unconditional_loss):
                one = fn(tree3, logits, gold)
                batch = fn(tree3, logits[None, :], [gold])
                assert batch.loss == one.loss
                assert batch.per_depth == one.per_depth
                assert np.array_equal(batch.grad[0], one.grad)
                assert batch.clamped == int(one.clamped)

    def test_empty_batch(self, tree3):
        rep = conditional_hier_loss(tree3, np.zeros((0, 12)), [])
        assert rep.loss == 0.0 and rep.per_depth == {0: 0.0}
        assert rep.grad.shape == (0, 12) and rep.clamped == 0

    def test_errors(self, tree3):
        logits = np.zeros((2, 12))
        with pytest.raises(LengthMismatch):
            conditional_hier_loss(tree3, logits, ["ANAT-DP"])
        with pytest.raises(LengthMismatch):
            unconditional_loss(tree3, np.zeros((2, 5)), ["ANAT-DP", "OBS-U"])
        with pytest.raises(LengthMismatch):
            unconditional_loss(tree3, np.zeros((2, 2, 12)), ["ANAT-DP", "OBS-U"])
        with pytest.raises(NotALeaf):
            conditional_hier_loss(tree3, logits, ["ANAT-DP", "CHAN"])
        with pytest.raises(NotALeaf):
            conditional_hier_loss(tree3, logits, np.array([0, 12]))
        with pytest.raises(UnknownNode):
            unconditional_loss(tree3, logits, ["ANAT-DP", "PNEUMONIA"])
        logits[1, 3] = np.inf
        with pytest.raises(NonFiniteLogit):
            conditional_hier_loss(tree3, logits, [0, 1])


class TestReportBits:
    """The public losses give the bits of the dense formulas they
    replaced (``reference_report``): each row rescaled even when its
    scale is 1.0, each depth summed on its own, and a depth whose mass is
    exactly 1.0 reported as 0.0, as the one-hot matmul gave, not -0.0."""

    @staticmethod
    def _inputs(tree, n, rng):
        """Logits and gold leaf indices for ``n`` rows, some pinned at the
        ceiling, some underflowed and some with all mass on the gold leaf."""
        k = len(tree.leaves)
        logits = rng.normal(0.0, 3.0, size=(n, k)) * rng.choice([1.0, 10.0, 60.0], size=(n, 1))
        gold = rng.integers(k, size=n)
        rows = np.arange(n)
        under = rows[rng.random(n) < 0.05]
        logits[under, gold[under]] = -1500.0
        # Every change leaf far below the rest: three depths of about
        # -log(e^-400) each overrun the ceiling without underflowing.
        chan = [i for i, leaf in enumerate(tree.leaves) if leaf.startswith("CHAN")]
        deep = max(chan, key=lambda i: tree.depth_of(tree.leaves[i]))
        over = rows[rng.random(n) < 0.05]
        logits[over] = 0.0
        logits[np.ix_(over, chan)] = -400.0
        gold[over] = deep
        sure = rows[rng.random(n) < 0.05]
        logits[sure] = -2000.0
        logits[sure, gold[sure]] = 0.0
        return logits, gold

    @staticmethod
    def _assert_bits(got, want):
        loss, per_depth, grad, clamped = want
        assert np.float64(got.loss).tobytes() == np.float64(loss).tobytes()
        assert list(got.per_depth) == list(per_depth)
        assert np.array(list(got.per_depth.values())).tobytes() == (
            np.array(list(per_depth.values())).tobytes()
        )
        assert got.grad.tobytes() == grad.tobytes()
        assert got.clamped == clamped

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 129, 1000, 8191, 8192, 8193, 20000])
    def test_equal_bits(self, tree3, n):
        tree = tag_tree_for(tree3)
        rng = np.random.default_rng(n)
        logits, gold = self._inputs(tree, n, rng)
        clamped = 0
        for fn, flat in ((conditional_hier_loss, False), (unconditional_loss, True)):
            got = fn(tree, logits, gold)
            self._assert_bits(got, reference_report(tree, logits, gold, flat, False))
            clamped += got.clamped
            for x, g in zip(logits[:3], gold[:3]):
                got = fn(tree, x, tree.leaves[g])
                self._assert_bits(got, reference_report(tree, x, [g], flat, True))
        if n >= 129:
            # Rows over the ceiling without underflow were drawn too.
            probs = leaf_distribution(tree, logits)
            underflowed = 2 * int((probs[np.arange(n), gold] < TINY).sum())
            assert underflowed and clamped > underflowed

    def test_certain_rows(self, tree3, tree2, tree1):
        """All mass on the gold leaf: every term is -log(1.0) = -0.0."""
        for tree in (tree3, tree2, tree1, tag_tree_for(tree3)):
            k = len(tree.leaves)
            gold = np.arange(k)
            logits = np.full((k, k), -2000.0)
            logits[gold, gold] = 0.0
            for fn, flat in ((conditional_hier_loss, False), (unconditional_loss, True)):
                got = fn(tree, logits, gold)
                assert got.loss == 0.0 and set(got.per_depth.values()) == {0.0}
                self._assert_bits(got, reference_report(tree, logits, gold, flat, False))
                for x, g in zip(logits, gold):
                    got = fn(tree, x, tree.leaves[g])
                    self._assert_bits(got, reference_report(tree, x, [g], flat, True))


class TestDeepChain:
    """The losses' tree tables grow with leaves times depth, not with
    depth squared: on a 3 000-level chain with two leaves under its last
    node, both losses and a two-trial gradient check peak below 64 MB
    resident.  A dense (columns x depths) table adds about 70 MB there."""

    CHILD = """
import numpy as np
from hiergraph import TaxonomyTree, check_loss_gradients, conditional_hier_loss, unconditional_loss

n = 3000
edges = [("ROOT", "c1"), *((f"c{i}", f"c{i + 1}") for i in range(1, n))]
tree = TaxonomyTree.from_edges(edges + [(f"c{n}", "a"), (f"c{n}", "b")])
logits = np.array([[0.5, -0.5], [2.0, 1.0]])
for fn in (conditional_hier_loss, unconditional_loss):
    fn(tree, logits, [0, 1])
    fn(tree, logits[0], "a")
check_loss_gradients(tree, trials=2)
try:
    with open("/proc/self/status") as fh:
        print(*(line.split()[1] for line in fh if line.startswith("VmHWM:")))
except OSError:
    pass
"""

    def test_peak_memory(self):
        # One BLAS thread, as the CLI loads numpy, so the peak does not
        # depend on the machine's core count; OpenBLAS reads this variable
        # before the others that set its thread count.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", self.CHILD], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        if not done.stdout.strip():
            pytest.skip("no VmHWM in /proc/self/status")
        assert int(done.stdout) < 64 * 1024  # kB
