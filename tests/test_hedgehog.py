import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finmetric.hedgehog import (
    HedgehogReport,
    HedgehogSpace,
    _cycle_shape,
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


def _reference_tree_nodes(coarse, max_tree_size):
    """The tree nodes by a scan of itertools.combinations, size by size.

    t is a node when x_i -> x_{t_i} preserves the coarse metric on the first
    |t| points.
    """
    nodes = []
    for size in range(1, min(max_tree_size, coarse.n) + 1):
        for t in itertools.combinations(range(coarse.n), size):
            if all(coarse.d[t[i]][t[j]] == coarse.d[i][j]
                   for i, j in itertools.combinations(range(size), 2)):
                nodes.append(t)
    return nodes


def _reference_comparable_labels(prefix, tree_nodes, base):
    """The comparable-node labels by a test of every pair of tree nodes.

    s below t under end-extension carries the fine distance of the positions
    of their top indices.
    """
    node_index = {t: base + i for i, t in enumerate(tree_nodes)}
    labels = {}
    for s, t in itertools.combinations(tree_nodes, 2):
        small, big = (s, t) if len(s) <= len(t) else (t, s)
        if len(small) != len(big) and big[: len(small)] == small:
            a, b = node_index[small], node_index[big]
            labels[(min(a, b), max(a, b))] = prefix.d[len(small) - 1][len(big) - 1]
    return labels


def _reference_branches(z):
    """Maximal end-extension chains of tree nodes, as Z indices, by a tree walk."""
    node_index = {t: z.base_count + i for i, t in enumerate(z.tree_nodes)}
    children = {t: [] for t in z.tree_nodes}
    roots = []
    for t in z.tree_nodes:
        if len(t) == 1:
            roots.append(t)
        else:
            parent = t[:-1]
            if parent in children:
                children[parent].append(t)
    out = []

    def walk(t, chain):
        chain = chain + [node_index[t]]
        if not children[t]:
            out.append(tuple(chain))
            return
        for c in children[t]:
            walk(c, chain)

    for root in roots:
        walk(root, [])
    return out


def _reference_hedgehog_verify(z, max_cycle_len=5):
    """The report with a tree walk for the branches and a seen-set of cycles."""
    violations = []
    for (a, b), v in sorted(z.labels.items()):
        if z.dz.d[a][b] != v:
            violations.append((a, b, v, z.dz.d[a][b]))

    total = z.dz.n
    adj = {a: set() for a in range(total)}
    for (a, b) in z.labels:
        adj[a].add(b)
        adj[b].add(a)

    def chordless(path) -> bool:
        length = len(path)
        for i in range(length):
            for j in range(i + 1, length):
                if (j - i) % length in (1, length - 1):
                    continue
                if path[j] in adj[path[i]]:
                    return False
        return True

    cycles = []
    seen = set()

    def extend(path):
        if len(path) > max_cycle_len:
            return
        tail = path[-1]
        for nxt in sorted(adj[tail]):
            if nxt == path[0] and len(path) >= 3:
                key = frozenset(path)
                if key not in seen and chordless(path):
                    seen.add(key)
                    cycles.append(tuple(path))
            elif nxt > path[0] and nxt not in path:
                extend(path + [nxt])

    for start in range(total):
        extend([start])

    unexpected = []
    checked = 0
    for cycle in cycles:
        has_base = any(c < z.base_count for c in cycle)
        has_tree = any(c >= z.base_count for c in cycle)
        # metricity of the cycle: every edge at most the sum of the others
        length = sum(
            z.labels[(min(a, b), max(a, b))]
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        )
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            lab = z.labels[(min(a, b), max(a, b))]
            if lab > min(Fraction(1), length - lab):
                violations.append((a, b, lab, length - lab))
        checked += 1
        if has_base and has_tree:
            shape = _cycle_shape(z, cycle)
            if shape.startswith("unexpected"):
                unexpected.append((cycle, shape))

    branch_violations = []
    branches = _reference_branches(z)
    for branch in branches:
        for ai, a in enumerate(branch):
            for b in branch[ai + 1 :]:
                ta = z.tree_nodes[a - z.base_count]
                tb = z.tree_nodes[b - z.base_count]
                want = z.prefix.d[len(ta) - 1][len(tb) - 1]
                if z.dz.d[a][b] != want:
                    branch_violations.append((a, b, want, z.dz.d[a][b]))

    fattening_ok = True
    for branch in branches:
        proj = {z.pi(a) for a in branch}
        for a in branch:
            if not any(z.dz.d[a][p] <= Fraction(1, z.m) for p in proj):
                fattening_ok = False

    return HedgehogReport(
        labels_preserved=not violations,
        label_violations=violations,
        cycles_checked=checked,
        unexpected_cycle_shapes=unexpected,
        branches_verified=len(branches),
        branch_violations=branch_violations,
        fattening_ok=fattening_ok,
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

    @given(unit_prefixes(max_n=7), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_tree_nodes(self, prefix, m):
        for max_tree_size in range(prefix.n + 1):
            z = hedgehog_build(m, prefix, max_tree_size)
            assert z.tree_nodes == _reference_tree_nodes(z.coarse, max_tree_size)


    @given(unit_prefixes(max_n=7), st.integers(1, 5), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_labels(self, prefix, m, max_tree_size):
        z = hedgehog_build(m, prefix, max_tree_size)
        n = z.base_count
        want = {(i, j): z.coarse.d[i][j] for i, j in itertools.combinations(range(n), 2)}
        want.update(_reference_comparable_labels(prefix, z.tree_nodes, n))
        for i, t in enumerate(z.tree_nodes):
            want[(max(t), n + i)] = Fraction(1, m)
        assert z.labels == want


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


@st.composite
def hedgehog_spaces(draw):
    """Built spaces, capped anywhere from no tree to every size.  In some of
    them one label is set (a new label adds a cycle edge) or one distance of
    the completion is moved, so that the labels, the completion, the cycles
    and the branches disagree."""
    prefix = draw(unit_prefixes(max_n=6))
    z = hedgehog_build(draw(st.integers(1, 5)), prefix, draw(st.none() | st.integers(0, prefix.n)))
    labels, dz = z.labels, z.dz
    pairs = st.lists(st.integers(0, dz.n - 1), min_size=2, max_size=2, unique=True)
    if dz.n > 1 and draw(st.booleans()):
        labels = dict(labels)
        key = draw(st.sampled_from(sorted(labels)) if labels and draw(st.booleans()) else pairs)
        labels[tuple(sorted(key))] = Fraction(draw(st.integers(1, 200)), 100)
    if dz.n > 1 and draw(st.booleans()):
        a, b = sorted(draw(pairs))
        rows = [list(row) for row in dz.d]
        rows[a][b] = rows[b][a] = Fraction(draw(st.integers(1, 100)), 100)
        dz = FiniteMetricSpace._from_rows(tuple(map(tuple, rows)))  # tampered: maybe not metric
    return HedgehogSpace(z.m, z.prefix, z.coarse, z.tree_nodes, labels, dz, z.base_count)


class TestVerifyMatchesReference:
    @given(hedgehog_spaces())
    @settings(max_examples=150, deadline=None)
    def test_branches(self, z):
        assert z.branches() == _reference_branches(z)

    @given(hedgehog_spaces(), st.integers(2, 6))
    @settings(max_examples=150, deadline=None)
    def test_report(self, z, max_cycle_len):
        assert hedgehog_verify(z, max_cycle_len) == _reference_hedgehog_verify(z, max_cycle_len)


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
