"""Tree construction, validation, and probability propagation."""

import numpy as np
import pytest

from hiergraph import (
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
    TaxonomyTree,
    UnknownNode,
    UnknownParent,
    ZeroParentMass,
    argmax_leaf,
    build_tree,
    conditional_probability,
    leaf_distribution,
    load_taxonomy,
    propagate,
)

from oracles import path_masses

SMALL = """
ROOT A
ROOT B
A A1
A A2
B B1
B B2
B B3
"""


def random_tree(rng, max_leaves=6, max_depth=3):
    """Grow a random tree shape and return (tree, n_leaves)."""
    edges = []
    counter = [0]

    def grow(parent, depth, budget):
        if budget <= 0:
            return 0
        if depth >= max_depth:
            n = int(rng.integers(2, min(3, budget) + 1)) if budget >= 2 else budget
            for _ in range(n):
                counter[0] += 1
                edges.append((parent, f"n{counter[0]}"))
            return n
        n_children = int(rng.integers(2, min(3, budget) + 1)) if budget >= 2 else 1
        used = 0
        for _ in range(n_children):
            counter[0] += 1
            name = f"n{counter[0]}"
            edges.append((parent, name))
            if rng.random() < 0.5 and depth + 1 < max_depth and budget - used >= 3:
                used += grow(name, depth + 1, min(budget - used - 1, 3)) or 1
            else:
                used += 1
        return used

    while True:
        edges.clear()
        counter[0] = 0
        grow("ROOT", 1, max_leaves)
        tree = TaxonomyTree.from_edges(list(edges))
        if 2 <= len(tree.leaves) <= max_leaves:
            return tree


class TestConstruction:
    def test_shipped_depth3(self, tree3):
        assert tree3.leaves == (
            "ANAT-DP",
            "OBS-DP",
            "OBS-U",
            "OBS-DA",
            "CHAN-NC",
            "CHAN-CON-AP",
            "CHAN-CON-WOR",
            "CHAN-CON-IMP",
            "CHAN-CON-RES",
            "CHAN-DEV-AP",
            "CHAN-DEV-PLACE",
            "CHAN-DEV-DISA",
        )
        assert tree3.max_depth == 3
        assert tree3.depth_of("CHAN-CON-IMP") == 3
        assert tree3.depth_of("ANAT-DP") == 2
        assert tree3.depth_of("CHAN") == 1
        assert tree3.depth_of("ROOT") == 0

    def test_shipped_depth2(self, tree2):
        assert tree2.leaves == load_taxonomy("radgraph2_depth3").leaves
        assert tree2.max_depth == 2
        assert tree2.depth_of("CHAN-CON-IMP") == 2

    def test_shipped_radgraph1(self, tree1):
        assert tree1.leaves == ("ANAT-DP", "OBS-DP", "OBS-U", "OBS-DA")
        assert tree1.depth_of("ANAT-DP") == 1
        assert tree1.max_depth == 2

    def test_leaf_declaration_order(self):
        tree = build_tree("ROOT B\nROOT A\nB B1\nB B2\n")
        assert tree.leaves == ("A", "B1", "B2")
        assert [tree.leaf_index(n) for n in tree.leaves] == [0, 1, 2]

    def test_comments_and_blanks_skipped(self):
        tree = build_tree("# header\n\nROOT A\n  # mid\nROOT B\n")
        assert tree.leaves == ("A", "B")

    def test_bad_line_format(self):
        with pytest.raises(TaxonomyConfigError, match="line 1"):
            build_tree("ROOT A B\n")

    def test_empty_config(self):
        with pytest.raises(TaxonomyConfigError):
            build_tree("# nothing here\n")

    def test_self_loop(self):
        with pytest.raises(CycleDetected):
            build_tree("ROOT X\nA A\n")

    def test_two_cycle(self):
        with pytest.raises(CycleDetected):
            build_tree("ROOT X\nA B\nB A\n")

    def test_missing_root(self):
        with pytest.raises(MultipleRoots):
            build_tree("A B\nA C\n")

    def test_duplicate_child(self):
        with pytest.raises(DuplicateNode):
            build_tree("ROOT A\nROOT B\nROOT A\n")

    def test_unattached_parent(self):
        with pytest.raises(UnknownParent):
            build_tree("ROOT A\nZ B\n")

    def test_root_as_child(self):
        with pytest.raises(TaxonomyConfigError):
            build_tree("ROOT A\nA ROOT\n")

    def test_single_leaf_rejected(self):
        with pytest.raises(TaxonomyConfigError):
            build_tree("ROOT A\n")


class TestQueries:
    def test_contains_and_node(self, tree3):
        assert "CHAN-CON" in tree3
        assert "NOPE" not in tree3
        with pytest.raises(UnknownNode):
            tree3.node("NOPE")

    def test_is_ancestor(self, tree3):
        assert tree3.is_ancestor("ROOT", "CHAN-CON-IMP")
        assert tree3.is_ancestor("CHAN", "CHAN-CON-IMP")
        assert tree3.is_ancestor("CHAN-CON", "CHAN-CON-IMP")
        assert not tree3.is_ancestor("CHAN-CON-IMP", "CHAN-CON")
        assert not tree3.is_ancestor("OBS", "CHAN-NC")
        assert not tree3.is_ancestor("CHAN", "CHAN")

    def test_subtree_leaf_indices(self, tree3):
        assert tree3.subtree_leaf_indices("ANAT") == (0,)
        assert tree3.subtree_leaf_indices("OBS") == (1, 2, 3)
        assert tree3.subtree_leaf_indices("CHAN-CON") == (5, 6, 7, 8)
        assert tree3.subtree_leaf_indices("ROOT") == tuple(range(12))
        assert tree3.subtree_leaf_indices("CHAN-NC") == (4,)

    def test_root_path(self, tree3):
        assert tree3.root_path("CHAN-CON-IMP") == (
            "ROOT",
            "CHAN",
            "CHAN-CON",
            "CHAN-CON-IMP",
        )
        assert tree3.root_path("ROOT") == ("ROOT",)

    def test_correct_node_at_depth(self, tree3):
        assert tree3.correct_node_at_depth("CHAN-CON-IMP", 0) == "ROOT"
        assert tree3.correct_node_at_depth("CHAN-CON-IMP", 1) == "CHAN"
        assert tree3.correct_node_at_depth("CHAN-CON-IMP", 2) == "CHAN-CON"
        assert tree3.correct_node_at_depth("CHAN-CON-IMP", 3) == "CHAN-CON-IMP"
        assert tree3.correct_node_at_depth("ANAT-DP", 3) is None
        assert tree3.correct_node_at_depth("ANAT-DP", 2) == "ANAT-DP"

    def test_correct_node_errors(self, tree3):
        with pytest.raises(NotALeaf):
            tree3.correct_node_at_depth("CHAN", 1)
        with pytest.raises(DepthOutOfRange):
            tree3.correct_node_at_depth("ANAT-DP", 4)
        with pytest.raises(DepthOutOfRange):
            tree3.correct_node_at_depth("ANAT-DP", -1)

    def test_canonical_text_round_trip(self, tree3):
        again = build_tree(tree3.canonical_text())
        assert again.leaves == tree3.leaves
        assert again.config_hash == tree3.config_hash

    def test_hash_ignores_comments(self):
        a = build_tree("ROOT A\nROOT B\n")
        b = build_tree("# note\nROOT A\n\nROOT B\n")
        c = build_tree("ROOT B\nROOT A\n")
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_with_extra_leaf(self, tree3):
        ext = tree3.with_extra_leaf("NONE")
        assert ext.leaves == tree3.leaves + ("NONE",)
        assert ext.depth_of("NONE") == 1
        assert tree3.with_extra_leaf("NONE") is ext
        with pytest.raises(DuplicateNode):
            ext.with_extra_leaf("NONE")


class TestLoad:
    def test_load_by_path(self, tmp_path):
        p = tmp_path / "toy.txt"
        p.write_text(SMALL)
        tree = load_taxonomy(str(p))
        assert tree.leaves == ("A1", "A2", "B1", "B2", "B3")

    def test_load_by_env_dir(self, tmp_path, monkeypatch):
        (tmp_path / "mine.txt").write_text(SMALL)
        monkeypatch.setenv("HIERGRAPH_TAXONOMY_DIR", str(tmp_path))
        tree = load_taxonomy("mine")
        assert len(tree.leaves) == 5

    def test_load_unknown(self):
        with pytest.raises(FileUnreadable):
            load_taxonomy("never_heard_of_it")


class TestProbabilities:
    def test_leaf_distribution_uniform(self, tree3):
        dist = leaf_distribution(tree3, np.zeros(12))
        assert dist.shape == (12,)
        np.testing.assert_allclose(dist, 1.0 / 12, atol=1e-15)
        assert abs(dist.sum() - 1.0) <= 1e-12

    def test_leaf_distribution_shift_invariant(self, tree3):
        rng = np.random.default_rng(7)
        for _ in range(20):
            logits = rng.normal(size=12) * 3
            a = leaf_distribution(tree3, logits)
            b = leaf_distribution(tree3, logits + 123.45)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_leaf_distribution_errors(self, tree3):
        with pytest.raises(LengthMismatch):
            leaf_distribution(tree3, np.zeros(5))
        with pytest.raises(NonFiniteLogit):
            leaf_distribution(tree3, [0.0] * 11 + [float("nan")])
        with pytest.raises(NonFiniteLogit):
            leaf_distribution(tree3, [0.0] * 11 + [float("inf")])

    def test_propagate_uniform(self, tree3):
        masses = propagate(tree3, np.full(12, 1.0 / 12))
        assert masses["ROOT"] == pytest.approx(1.0, abs=1e-12)
        assert masses["OBS"] == pytest.approx(3.0 / 12, abs=1e-15)
        assert masses["CHAN"] == pytest.approx(8.0 / 12, abs=1e-15)
        assert masses["CHAN-CON"] == pytest.approx(4.0 / 12, abs=1e-15)

    def test_parent_exactly_sum_of_children(self, tree3):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dist = leaf_distribution(tree3, rng.normal(size=12) * 2)
            masses = propagate(tree3, dist)
            for name, node in tree3.nodes.items():
                if node.children:
                    assert masses[name] == sum(masses[c] for c in node.children)

    def test_propagate_matches_path_oracle(self, tree3, tree2, tree1):
        rng = np.random.default_rng(3)
        for tree in (tree3, tree2, tree1):
            k = len(tree.leaves)
            for _ in range(25):
                dist = leaf_distribution(tree, rng.normal(size=k) * 2)
                masses = propagate(tree, dist)
                expect = path_masses(tree, dist)
                assert masses.keys() == expect.keys()
                for name in masses:
                    assert masses[name] == pytest.approx(expect[name], abs=1e-12)

    def test_propagate_random_shapes(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            tree = random_tree(rng)
            k = len(tree.leaves)
            dist = leaf_distribution(tree, rng.normal(size=k) * 2)
            masses = propagate(tree, dist)
            expect = path_masses(tree, dist)
            assert masses["ROOT"] == pytest.approx(1.0, abs=1e-12)
            for name in masses:
                assert masses[name] == pytest.approx(expect[name], abs=1e-12)
            for name, node in tree.nodes.items():
                if node.children:
                    assert masses[name] == sum(masses[c] for c in node.children)

    def test_mass_matrices_match_path_oracle(self, tree3, tree2, tree1):
        rng = np.random.default_rng(6)
        trees = [tree3, tree2, tree1] + [random_tree(rng) for _ in range(30)]
        for tree in trees:
            k = len(tree.leaves)
            assert tree.mass_nodes[:k] == tree.leaves
            assert sorted(tree.mass_nodes) == sorted(tree.nodes)
            assert [tree.depth_of(n) for n in tree.mass_nodes] == tree.node_depths.tolist()
            for i, leaf in enumerate(tree.leaves):
                on_path = {tree.mass_nodes[c] for c in np.flatnonzero(tree.path_masks[i])}
                assert on_path == set(tree.root_path(leaf)[1:])
            logits = rng.normal(size=(5, k)) * 2
            dists = leaf_distribution(tree, logits)
            for row, dist in zip(dists @ tree.ancestors, dists):
                expect = path_masses(tree, dist)
                for name, mass in zip(tree.mass_nodes, row):
                    assert mass == pytest.approx(expect[name], abs=1e-12)
            for x, dist in zip(logits, dists):
                assert np.array_equal(leaf_distribution(tree, x), dist)

    def test_propagate_rejects_non_distribution(self, tree3):
        bad = np.full(12, 1.0 / 12)
        bad[0] += 0.5
        with pytest.raises(ValueError):
            propagate(tree3, bad)
        with pytest.raises(ValueError):
            propagate(tree3, -np.full(12, 1.0 / 12))

    def test_conditional_probability(self, tree3):
        dist = np.full(12, 1.0 / 12)
        masses = propagate(tree3, dist)
        assert conditional_probability(tree3, masses, "CHAN") == pytest.approx(
            8.0 / 12, abs=1e-15
        )
        assert conditional_probability(tree3, masses, "CHAN-CON") == pytest.approx(
            4.0 / 8, abs=1e-15
        )
        assert conditional_probability(tree3, masses, "CHAN-CON-IMP") == pytest.approx(
            1.0 / 4, abs=1e-15
        )

    def test_chain_rule_recovers_leaf(self, tree3):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dist = leaf_distribution(tree3, rng.normal(size=12) * 2)
            masses = propagate(tree3, dist)
            for leaf in tree3.leaves:
                prod = 1.0
                for name in tree3.root_path(leaf)[1:]:
                    prod *= conditional_probability(tree3, masses, name)
                assert abs(prod - dist[tree3.leaf_index(leaf)]) <= 1e-9

    def test_conditional_probability_errors(self, tree3):
        masses = propagate(tree3, np.full(12, 1.0 / 12))
        with pytest.raises(RootHasNoParent):
            conditional_probability(tree3, masses, "ROOT")
        dist = np.zeros(12)
        dist[0] = 1.0
        starved = propagate(tree3, dist)
        with pytest.raises(ZeroParentMass):
            conditional_probability(tree3, starved, "OBS-DP")

    def test_argmax_leaf(self, tree3):
        dist = np.full(12, 1.0 / 12)
        assert argmax_leaf(tree3, dist) == "ANAT-DP"
        dist = np.zeros(12)
        dist[5] = 1.0
        assert argmax_leaf(tree3, dist) == "CHAN-CON-AP"
        with pytest.raises(LengthMismatch):
            argmax_leaf(tree3, np.zeros(3))
