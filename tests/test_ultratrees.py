import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finmetric.katetov import ultrametric_urysohn_grid
from finmetric.spaces import (
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    canonical_key,
    isometries,
)
from finmetric.ultratrees import (
    DegreeRecord,
    FichetReport,
    UltraTree,
    _degree_record,
    ambient_tree_nodes,
    big_ramsey_degree,
    comb_space,
    convex_orderings_count,
    fichet_embedding,
    is_uniformly_branching,
    linear_extensions_tree,
    ramsey_degree_ultrametric,
    space_of_tree,
    tree_of_space,
    ultrametric_isometry_order,
)


def comb3():
    return FiniteMetricSpace([[0, 2, 2], [2, 0, 1], [2, 1, 0]])


# --- reference scans: the brute-force counts the formulas replaced -----------

def _reference_balls(x):
    """Every closed ball of x whose radius is one of its distances, as a point set."""
    radii = x.distances()
    return {frozenset(p for p in range(x.n) if x.d[c][p] <= r) for c in range(x.n) for r in radii}


def _reference_convex_orderings_count(x):
    """Orderings keeping every ball an interval, over all n!."""
    balls = _reference_balls(x)
    count = 0
    for perm in itertools.permutations(range(x.n)):
        pos = {p: i for i, p in enumerate(perm)}
        ok = True
        for ball in balls:
            spots = sorted(pos[p] for p in ball)
            if spots[-1] - spots[0] != len(spots) - 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def _reference_linear_extensions(parents):
    """Count extensions by enumerating placements (memoized on the placed set)."""
    n = len(parents)
    children = [[] for _ in range(n)]
    for v in range(n):
        if parents[v] >= 0:
            children[parents[v]].append(v)
    memo = {}

    def rec(placed):
        if placed == (1 << n) - 1:
            return 1
        if placed in memo:
            return memo[placed]
        total = 0
        for v in range(n):
            if placed & (1 << v):
                continue
            if parents[v] < 0 or placed & (1 << parents[v]):
                total += rec(placed | (1 << v))
        memo[placed] = total
        return total

    return rec(0)


def _reference_extensions_permutation_scan(parents):
    """Raw n! scan; only usable for tiny trees, kept as an oracle for the DP."""
    n = len(parents)
    count = 0
    for perm in itertools.permutations(range(n)):
        pos = {node: i for i, node in enumerate(perm)}
        if all(parents[v] < 0 or pos[parents[v]] < pos[v] for v in range(n)):
            count += 1
    return count


def _reference_ramsey_degree_ultrametric(x):
    """The two-tree degree: the ball tree built once for cLO and once for |iso|."""
    clo = convex_orderings_count(x)
    iso = ultrametric_isometry_order(x)
    if clo % iso:
        raise AssertionError(
            f"internal inconsistency: |cLO|={clo} not divisible by |iso|={iso}"
        )
    return DegreeRecord(clo, iso, clo // iso)


def _reference_fichet_embedding(x, p):
    """The Fichet report with each point's ancestor chain walked on its own."""
    t = tree_of_space(x)
    k = t.height
    a = t.level_distances
    weights = {}
    for node in range(t.n_nodes()):
        depth = t.depths[node]
        if depth == 0:
            continue
        if depth == k:
            w = Fraction(a[k - 1] ** p, 2)
        else:
            w = Fraction(a[depth - 1] ** p - a[depth] ** p, 2)
        weights[node] = w
    chains = {}
    for leaf in t.leaves():
        chain = set()
        node = leaf
        while node != -1:
            chain.add(node)
            node = t.parents[node]
        chains[t.leaf_points[leaf]] = chain
    checks = []
    for i in range(x.n):
        for j in range(i + 1, x.n):
            lhs = sum(weights[node] for node in (chains[i] ^ chains[j]) - {0})
            rhs = x.d[i][j] ** p
            assert lhs == rhs
            checks.append(((i, j), lhs, rhs))
    return FichetReport(p, len(weights), weights, checks, x.n * (x.n + 1) // 2)


def all_tree_shapes(n_leaves, max_depth=3):
    """All rooted trees with n_leaves leaves at uniform depth (as child lists)."""

    def shapes(leaves, depth):
        if depth == 0:
            return [None] if leaves == 1 else []
        out = []
        # partition leaves into >=1 ordered-nondecreasing parts
        def parts(total, minimum):
            if total == 0:
                yield []
                return
            for first in range(minimum, total + 1):
                for rest in parts(total - first, first):
                    yield [first] + rest

        for split in parts(leaves, 1):
            subtrees = [shapes(c, depth - 1) for c in split]
            for combo in itertools.product(*subtrees):
                out.append(tuple(sorted(combo, key=repr)))
        return out

    result = []
    for depth in range(1, max_depth + 1):
        result.extend((depth, s) for s in shapes(n_leaves, depth))
    return result


def space_from_shape(depth, shape):
    """Build an ultrametric space from a uniform-depth tree shape."""
    levels = [Fraction(depth - i) for i in range(depth)]
    rows = []
    points = []

    def leaves_of(node, path):
        if node is None:
            points.append(path)
            return
        for i, child in enumerate(node):
            leaves_of(child, path + (i,))

    leaves_of(shape, ())
    n = len(points)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            delta = next(i for i in range(depth) if points[a][i] != points[b][i])
            rows[a][b] = rows[b][a] = levels[delta]
    return FiniteMetricSpace(rows)


def random_ultrametric(rng, n, levels=(8, 4, 2, 1)):
    """Random ultrametric space via random grid coordinates (alphabet size n)."""
    k = rng.randint(1, len(levels))
    lv = sorted(rng.sample(levels, k), reverse=True)
    points: set = set()
    while len(points) < n:
        points.add(tuple(rng.randint(0, n - 1) for _ in range(k)))
    pts = sorted(points)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            delta = next(i for i in range(k) if pts[a][i] != pts[b][i])
            rows[a][b] = rows[b][a] = Fraction(lv[delta])
    return FiniteMetricSpace(rows)


@st.composite
def ultrametric_spaces(draw, max_n=8):
    """Random ultrametric spaces of 1 to max_n points, in a shuffled point order."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    x = random_ultrametric(rng, draw(st.integers(1, max_n)))
    order = list(range(x.n))
    rng.shuffle(order)
    return x.submetric(order)


class TestTreeDuality:
    @pytest.mark.parametrize("fn", [tree_of_space, ramsey_degree_ultrametric,
                                    lambda x: fichet_embedding(x, 2)])
    def test_empty_space_has_no_tree(self, fn):
        with pytest.raises(InvalidSpace, match="the empty space has no ball tree"):
            fn(FiniteMetricSpace([]))

    def test_equilateral_tree(self):
        t = tree_of_space(FiniteMetricSpace.equilateral(4, 2))
        children = t.children()
        assert len(children[0]) == 4
        assert t.height == 1

    def test_comb_shape(self):
        t = tree_of_space(comb3())
        children = t.children()
        root_kids = children[0]
        assert len(root_kids) == 2
        sizes = sorted(len(children[c]) for c in root_kids)
        assert sizes == [1, 2]

    def test_grid_is_uniform_binary(self):
        grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
        t = tree_of_space(grid)
        children = t.children()
        assert len(children[0]) == 2
        for c in children[0]:
            assert len(children[c]) == 2

    def test_round_trip_small_shapes(self):
        for n_leaves in (2, 3, 4):
            for depth, shape in all_tree_shapes(n_leaves):
                x = space_from_shape(depth, shape)
                y = space_of_tree(tree_of_space(x))
                assert canonical_key(x) == canonical_key(y)

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(25):
            x = random_ultrametric(rng, rng.randint(2, 8))
            y = space_of_tree(tree_of_space(x))
            assert canonical_key(x) == canonical_key(y)

    def test_non_ultrametric_rejected(self):
        with pytest.raises(InvalidSpace):
            tree_of_space(FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))


class TestTreeValidation:
    """Malformed trees are refused when built, before any space is read off them."""

    def test_node_off_its_parents_level(self):
        # node 1 at depth 3 under the root: its leaves' common ancestor has no level
        with pytest.raises(InvalidSpace, match="node 1 does not sit one level below its parent"):
            UltraTree((1,), [-1, 0, 1, 1], [0, 3, 1, 1], {2: 0, 3: 1})

    def test_second_root(self):
        with pytest.raises(InvalidSpace, match="node 1 is a second root"):
            UltraTree((1,), [-1, -1, 0, 1], [0, 0, 1, 1], {2: 0, 3: 1})

    def test_parent_cycle(self):
        # nodes 2 and 3 are each other's parent, so an ancestor walk from either never ends
        with pytest.raises(InvalidSpace, match="node 2 does not sit one level below its parent"):
            UltraTree((1,), [-1, 0, 3, 2], [0, 1, 1, 1], {1: 0, 2: 1, 3: 2})

    def test_leaf_outside_the_tree(self):
        with pytest.raises(InvalidSpace, match="leaf 7 is not a node at depth 1"):
            UltraTree((1,), [-1, 0, 0], [0, 1, 1], {1: 0, 2: 1, 7: 2})

    @pytest.mark.parametrize("points", [{1: 0, 2: 0}, {1: 0, 2: 5}, {1: 0, 2: -1}, {1: 0, 2: "a"}],
                             ids=["repeated", "past-the-last", "negative", "not-an-int"])
    def test_leaf_points_not_one_to_one_onto_range(self, points):
        # space_of_tree reads the leaves in sorted order and never these values
        with pytest.raises(InvalidSpace, match="leaf points must number the leaves 0, 1, ..."):
            UltraTree((1,), [-1, 0, 0], [0, 1, 1], points)


class TestConvexOrderings:
    def test_single_point(self):
        assert convex_orderings_count(FiniteMetricSpace.single_point()) == 1

    def test_comb3_is_4(self):
        assert convex_orderings_count(comb3()) == 4

    def test_uniform_binary_4_leaves_is_8(self):
        grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
        assert convex_orderings_count(grid) == 8

    def test_formula_equals_brute_force_all_shapes(self):
        for n_leaves in range(2, 7):
            for depth, shape in all_tree_shapes(n_leaves):
                x = space_from_shape(depth, shape)
                assert convex_orderings_count(x) == _reference_convex_orderings_count(x)


class TestIsometryOrder:
    def test_matches_permutation_search(self):
        rng = random.Random(4)
        for _ in range(20):
            x = random_ultrametric(rng, rng.randint(2, 7))
            assert ultrametric_isometry_order(x) == len(isometries(x))


class TestRamseyDegree:
    def test_comb_degrees(self):
        for n in range(3, 7):
            rec = ramsey_degree_ultrametric(comb_space(n))
            assert rec.degree == 2 ** (n - 2)

    def test_uniform_binary_depth2_degree_1(self):
        grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
        rec = ramsey_degree_ultrametric(grid)
        assert rec.degree == 1
        assert is_uniformly_branching(grid)

    def test_single_point(self):
        assert ramsey_degree_ultrametric(FiniteMetricSpace.single_point()).degree == 1

    def test_degree_bound_with_equality_on_combs(self):
        for n_leaves in range(2, 7):
            for depth, shape in all_tree_shapes(n_leaves):
                x = space_from_shape(depth, shape)
                rec = ramsey_degree_ultrametric(x)
                assert rec.degree <= 2 ** (n_leaves - 2) or n_leaves < 2
                if rec.degree == 2 ** (n_leaves - 2) and n_leaves >= 3:
                    # extremal exactly when the tree is a comb with all levels used
                    t = tree_of_space(x)
                    children = t.children()
                    branching = [c for c in range(t.n_nodes()) if len(children[c]) >= 2]
                    assert all(len(children[b]) == 2 for b in branching)

    @given(ultrametric_spaces())
    @settings(max_examples=150, deadline=None)
    def test_matches_two_tree_reference(self, x):
        assert ramsey_degree_ultrametric(x) == _reference_ramsey_degree_ultrametric(x)

    def test_quotient_checked(self):
        assert _degree_record("LO", 6, 2) == DegreeRecord(6, 2, 3)
        with pytest.raises(AssertionError, match=r"^\|iso\|=2 does not divide \|LO\|=5$"):
            _degree_record("LO", 5, 2)

    def test_degree_one_iff_uniformly_branching(self):
        for n_leaves in range(2, 7):
            for depth, shape in all_tree_shapes(n_leaves):
                x = space_from_shape(depth, shape)
                rec = ramsey_degree_ultrametric(x)
                assert (rec.degree == 1) == is_uniformly_branching(x)


class TestBigRamseyDegree:
    def test_single_point_always_1(self):
        for svals in ((1,), (1, 2), (1, 2, 5), (2, 3, 7, 9)):
            assert big_ramsey_degree(
                FiniteMetricSpace.single_point(), DistanceSet(svals)
            ) == 1

    def test_two_points_far_in_12(self):
        x = FiniteMetricSpace([[0, 2], [2, 0]])
        assert big_ramsey_degree(x, DistanceSet((1, 2))) == 6

    def test_two_points_near_in_12(self):
        x = FiniteMetricSpace([[0, 1], [1, 0]])
        assert big_ramsey_degree(x, DistanceSet((1, 2))) == 2

    def test_hook_length_equals_brute_force_small_trees(self):
        # all rooted trees with <= 10 nodes arising from shapes
        seen = 0
        for n_leaves in (1, 2, 3):
            for depth, shape in all_tree_shapes(n_leaves):
                x = space_from_shape(depth, shape)
                for svals in ((4, 3, 2, 1), (8, 4, 2, 1)):
                    s = DistanceSet(svals)
                    if not all(v in s for v in x.distances()):
                        continue
                    parents, _ = ambient_tree_nodes(x, s)
                    if len(parents) <= 10:
                        assert linear_extensions_tree(parents) == _reference_linear_extensions(parents)
                        seen += 1
        assert seen > 10

    def test_strictly_increasing_in_s(self):
        # enlarging S below its top strictly increases the degree for |x| >= 2
        rng = random.Random(17)
        # each enlargement adds a value below every distance of x, hence below
        # its diameter, which is what forces new incomparable chain nodes
        nested = [
            (DistanceSet((4, 2)), DistanceSet((4, 2, 1))),
            (DistanceSet((8, 2)), DistanceSet((8, 2, 1))),
            (DistanceSet((4, 2)), DistanceSet((8, 4, 2, 1))),
        ]
        for small, large in nested:
            for _ in range(5):
                x = random_ultrametric(rng, rng.randint(2, 5), levels=tuple(small.values))
                assert big_ramsey_degree(x, small) < big_ramsey_degree(x, large)

    def test_top_extension_only_adds_a_forced_chain_node(self):
        # a new distance above everything x can use contributes a node below
        # the root comparable to all others, leaving the count unchanged
        x = FiniteMetricSpace([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        assert big_ramsey_degree(x, DistanceSet((2, 1))) == big_ramsey_degree(
            x, DistanceSet((4, 2, 1))
        )

    def test_distance_outside_s_rejected(self):
        x = FiniteMetricSpace([[0, 5], [5, 0]])
        with pytest.raises(InvalidSpace):
            big_ramsey_degree(x, DistanceSet((1, 2)))

    def test_placement_dp_matches_raw_permutation_scan(self):
        rng = random.Random(6)
        for _ in range(15):
            n = rng.randint(1, 7)
            parents = [-1] + [rng.randint(0, i - 1) for i in range(1, n)]
            assert _reference_linear_extensions(parents) == _reference_extensions_permutation_scan(parents)
            assert linear_extensions_tree(parents) == _reference_linear_extensions(parents)


class TestFichet:
    def test_two_points(self):
        x = FiniteMetricSpace([[0, 3], [3, 0]])
        rep = fichet_embedding(x, 2)
        assert sum(rep.node_weights_p.values()) == Fraction(9)

    def test_comb3_p1(self):
        rep = fichet_embedding(comb3(), 1)
        assert rep.pair_checks  # identities asserted internally

    def test_random_spaces_all_p(self):
        rng = random.Random(31)
        for _ in range(40):
            x = random_ultrametric(rng, rng.randint(2, 8))
            for p in (1, 2, 3):
                rep = fichet_embedding(x, p)
                assert rep.dimension <= rep.dimension_bound

    @given(ultrametric_spaces(), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_report(self, x, p):
        assert fichet_embedding(x, p) == _reference_fichet_embedding(x, p)

    def test_dimension_bound_tight_cases(self):
        # the comb uses the most nodes per leaf count
        for n in range(2, 7):
            rep = fichet_embedding(comb_space(n), 1)
            assert rep.dimension <= n * (n + 1) // 2
