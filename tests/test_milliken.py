import random
from fractions import Fraction

import pytest

from finmetric.milliken import (
    VARIANTS,
    admissible_points,
    coding_distance,
    coding_embed,
    coding_points,
    lenlex_less,
    lex_less,
    load_variant,
    milliken_space,
    nodes_up_to,
    standard_edge,
    verify_embedding,
)
from finmetric.spaces import (
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
)


def random_s_space(rng, svals, n):
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = Fraction(rng.choice(svals))
        try:
            return FiniteMetricSpace(rows)
        except InvalidSpace:
            continue


class TestPlumbing:
    def test_node_order_extends_tree_order(self):
        nodes = nodes_up_to(2, 3)
        assert nodes[0] == ()
        for a in nodes:
            for b in nodes:
                if a != b and a == b[: len(a)]:
                    assert lenlex_less(a, b)

    def test_standard_edge(self):
        assert standard_edge((0,), (1, 1))
        assert not standard_edge((0,), (1, 0))
        assert not standard_edge((0, 1), (1, 0))  # equal heights never connect
        assert standard_edge((1, 1, 0), (1,)) == standard_edge((1,), (1, 1, 0))

    def test_lex_less_prefix_first(self):
        assert lex_less((), (0,))
        assert lex_less((0,), (0, 1))
        assert lex_less((0, 1), (1,))
        assert not lex_less((1,), (0, 1))

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidSpace):
            load_variant("999")


class TestMetricVerdicts:
    @pytest.mark.parametrize("name,depth", [("134", 3), ("2379", 3), ("26712", 3)])
    def test_pair_codings_metric(self, name, depth):
        ms = milliken_space(name, depth)
        assert ms.metric
        want = set(load_variant(name).distance_set.values)
        assert ms.space.distances() <= want

    def test_2678_metric(self):
        ms = milliken_space("2678", 2)
        assert ms.metric
        assert ms.space.distances() <= set(load_variant("2678").distance_set.values)

    def test_1378_metric(self):
        ms = milliken_space("1378", 3)
        assert ms.metric
        assert ms.space.distances() <= set(load_variant("1378").distance_set.values)

    def test_inverted_membership_breaks_metricity(self):
        ms = milliken_space("134", 2, invert_membership=True)
        assert not ms.metric
        i, j, k = ms.witness
        # the witness triangle genuinely violates the triangle inequality
        pts = ms.points
        var = load_variant("134")
        a = coding_distance(var, pts[i], pts[j], invert_membership=True)
        b = coding_distance(var, pts[i], pts[k], invert_membership=True)
        c = coding_distance(var, pts[j], pts[k], invert_membership=True)
        assert a > b + c or b > a + c or c > a + b

    def test_sampled_mode_agrees_on_small_instance(self):
        exact = milliken_space("2379", 2)
        sampled = milliken_space("2379", 2, check="sampled", samples=5000, seed=3)
        assert exact.metric and sampled.metric

    def test_budget_enforced(self):
        with pytest.raises(SearchTooLarge):
            milliken_space("1378", 4)


class TestEmbedding:
    @pytest.mark.parametrize("name", VARIANTS)
    def test_empty_target_embeds_as_empty_list(self, name):
        empty = FiniteMetricSpace([])
        assert coding_embed(name, 2, empty) == []
        assert verify_embedding(name, [], empty)

    def test_single_point(self):
        t = FiniteMetricSpace.single_point()
        emb = coding_embed("134", 2, t)
        assert emb is not None and len(emb) == 1

    def test_distance_1_pair_shares_s(self):
        t = FiniteMetricSpace([[0, 1], [1, 0]])
        emb = coding_embed("134", 3, t)
        assert emb is not None
        (s1, _), (s2, _) = emb
        assert s1 == s2
        assert verify_embedding("134", emb, t)

    @pytest.mark.parametrize("name", VARIANTS)
    def test_random_targets_depth_5(self, name):
        rng = random.Random(hash(name) % 1000)
        svals = [int(v) for v in load_variant(name).distance_set.values]
        for _ in range(3):
            n = rng.randint(2, 5)
            target = random_s_space(rng, svals, n)
            emb = coding_embed(name, 5, target)
            assert emb is not None
            assert verify_embedding(name, emb, target)

    def test_membership_constraints_hold(self):
        rng = random.Random(7)
        svals = [1, 3, 4]
        target = random_s_space(rng, svals, 4)
        emb = coding_embed("134", 5, target)
        for (s, t) in emb:
            assert len(s) < len(t)
            assert t[len(s)] == 0
            assert lex_less(s, t)

    def test_distance_outside_s_rejected(self):
        t = FiniteMetricSpace([[0, 5], [5, 0]])
        with pytest.raises(InvalidSpace):
            coding_embed("134", 3, t)

    def test_insufficient_depth_reports_failure(self):
        # two points at distance 9 need distinct s parts and a t-edge; depth 0
        # has a single node, so nothing fits
        t = FiniteMetricSpace([[0, 9], [9, 0]])
        assert coding_embed("2379", 0, t) is None
