import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finmetric.hedgehog import (
    HedgehogSpace,
    ceil_to_grid,
    hedgehog_build,
    hedgehog_verify,
)
from finmetric.spaces import FiniteMetricSpace, InvalidSpace


def random_unit_space(rng, n):
    """Random metric space with rational distances in (0, 1]."""
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = Fraction(rng.randint(20, 100), 100)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if w[i][k] + w[k][j] < w[i][j]:
                    w[i][j] = w[i][k] + w[k][j]
    return FiniteMetricSpace(w)


def _reference_capped_completion(total, labels):
    """Capped (at 1) shortest-path completion on Fractions; unreachable = 1."""
    dist = [[None if a != b else Fraction(0) for b in range(total)] for a in range(total)]
    for (a, b), v in labels.items():
        if dist[a][b] is None or v < dist[a][b]:
            dist[a][b] = dist[b][a] = v
    for k in range(total):
        for a in range(total):
            dak = dist[a][k]
            if dak is None:
                continue
            for b in range(total):
                dkb = dist[k][b]
                if dkb is None:
                    continue
                s = dak + dkb
                if dist[a][b] is None or s < dist[a][b]:
                    dist[a][b] = dist[b][a] = s
    return tuple(
        tuple(
            Fraction(0) if a == b else Fraction(1) if dist[a][b] is None
            else min(dist[a][b], Fraction(1))
            for b in range(total)
        )
        for a in range(total)
    )


@st.composite
def unit_prefixes(draw, max_n=5):
    """Metric spaces with distances in (0, 1] on hundredths, 1..max_n points."""
    n = draw(st.integers(1, max_n))
    w = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        w[i][j] = w[j][i] = Fraction(draw(st.integers(20, 100)), 100)
    for k, i, j in itertools.product(range(n), repeat=3):
        w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    return FiniteMetricSpace(w)


class TestCeil:
    def test_grid_values(self):
        assert ceil_to_grid(Fraction(1, 3), 2) == Fraction(1, 2)
        assert ceil_to_grid(Fraction(1, 2), 2) == Fraction(1, 2)
        assert ceil_to_grid(Fraction(51, 100), 2) == Fraction(1)
        assert ceil_to_grid(Fraction(1, 100), 3) == Fraction(1, 3)

    def test_m1_everything_rounds_to_one(self):
        for v in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            assert ceil_to_grid(v, 1) == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidSpace):
            ceil_to_grid(Fraction(3, 2), 2)


class TestBuild:
    def test_m1_degenerate_but_valid(self):
        rng = random.Random(0)
        prefix = random_unit_space(rng, 3)
        z = hedgehog_build(1, prefix)
        assert z.coarse == FiniteMetricSpace.equilateral(3, 1)
        report = hedgehog_verify(z)
        assert report.ok()

    def test_labels_preserved_m2(self):
        rng = random.Random(1)
        prefix = random_unit_space(rng, 4)
        z = hedgehog_build(2, prefix)
        report = hedgehog_verify(z)
        assert report.labels_preserved, report.label_violations
        assert report.ok()

    def test_labels_preserved_m3(self):
        rng = random.Random(2)
        prefix = random_unit_space(rng, 5)
        z = hedgehog_build(3, prefix)
        report = hedgehog_verify(z)
        assert report.labels_preserved
        assert report.ok()

    def test_tree_nodes_are_partial_isometries(self):
        rng = random.Random(3)
        prefix = random_unit_space(rng, 4)
        z = hedgehog_build(2, prefix)
        for t in z.tree_nodes:
            for i in range(len(t)):
                for j in range(i + 1, len(t)):
                    assert z.coarse.d[t[i]][t[j]] == z.coarse.d[i][j]

    def test_singletons_always_present(self):
        rng = random.Random(4)
        prefix = random_unit_space(rng, 4)
        z = hedgehog_build(2, prefix)
        for i in range(4):
            assert (i,) in z.tree_nodes

    def test_max_tree_size_caps_nodes(self):
        rng = random.Random(5)
        prefix = random_unit_space(rng, 5)
        z = hedgehog_build(2, prefix, max_tree_size=2)
        assert all(len(t) <= 2 for t in z.tree_nodes)


class TestBuildMatchesReference:
    @given(unit_prefixes(), st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_dz(self, prefix, m, max_tree_size):
        z = hedgehog_build(m, prefix, max_tree_size)
        assert z.dz.d == _reference_capped_completion(z.dz.n, z.labels)


class TestBranches:
    def test_branch_isometric_to_prefix(self):
        rng = random.Random(6)
        prefix = random_unit_space(rng, 4)
        z = hedgehog_build(2, prefix)
        for branch in z.branches():
            for ai, a in enumerate(branch):
                for b in branch[ai + 1 :]:
                    ta = z.tree_nodes[a - z.base_count]
                    tb = z.tree_nodes[b - z.base_count]
                    assert z.dz.d[a][b] == prefix.d[len(ta) - 1][len(tb) - 1]

    def test_branch_within_fattening_of_projection(self):
        rng = random.Random(7)
        prefix = random_unit_space(rng, 4)
        z = hedgehog_build(2, prefix)
        for branch in z.branches():
            proj = {z.pi(a) for a in branch}
            for a in branch:
                assert min(z.dz.d[a][p] for p in proj) <= Fraction(1, 2)

    def test_identity_branch_exists(self):
        # the identity chain (0), (0,1), (0,1,2), ... is always a branch
        rng = random.Random(8)
        prefix = random_unit_space(rng, 4)
        z = hedgehog_build(2, prefix)
        node_index = {t: z.base_count + i for i, t in enumerate(z.tree_nodes)}
        identity = tuple(node_index[tuple(range(k + 1))] for k in range(4))
        assert identity in z.branches()


class TestVerify:
    def test_cycle_shapes_match_expected_forms(self):
        rng = random.Random(9)
        prefix = random_unit_space(rng, 4)
        z = hedgehog_build(2, prefix)
        report = hedgehog_verify(z)
        assert not report.unexpected_cycle_shapes
        assert report.cycles_checked > 0

    def test_tampered_label_caught(self):
        rng = random.Random(10)
        prefix = random_unit_space(rng, 4)
        z = hedgehog_build(2, prefix)
        # lower one tree-edge label below its path-metric value
        key = next(
            (a, b)
            for (a, b) in sorted(z.labels)
            if a >= z.base_count and b >= z.base_count
        )
        tampered = dict(z.labels)
        tampered[key] = Fraction(1, 1000)
        broken = HedgehogSpace(
            z.m, z.prefix, z.coarse, z.tree_nodes, tampered, z.dz, z.base_count
        )
        report = hedgehog_verify(broken)
        assert not report.labels_preserved
        assert report.label_violations

    def test_json_report_round_trip(self):
        import json

        rng = random.Random(11)
        prefix = random_unit_space(rng, 3)
        z = hedgehog_build(2, prefix)
        payload = json.dumps(hedgehog_verify(z).to_json_dict())
        obj = json.loads(payload)
        assert obj["labelsPreserved"] is True
        assert obj["branchesVerified"] >= 1
