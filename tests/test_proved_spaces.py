"""Builders that prove their result metric skip the triangle scan.

Each test passes a builder's result back through the checked constructor,
which must accept it and give an equal space: the scan the builder no
longer runs would never have fired.  Each also checks the result's int view
against its Fraction rows: the view must be _int_rows(.d), least scale
included.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from finmetric.four_values import amalgamate
from finmetric.hedgehog import ceil_to_grid, hedgehog_build
from finmetric.katetov import (
    ResourceLimit,
    extend_with,
    is_katetov,
    ultrametric_urysohn_grid,
    urysohn_approx,
)
from finmetric.milliken import (
    VARIANTS,
    _coding_matrix,
    _flat_table,
    _triangle_witness,
    _relation,
    load_variant,
    milliken_space,
    nodes_up_to,
)
from finmetric.spaces import (
    Config,
    DistanceSet,
    EdgeLabelledGraph,
    FiniteMetricSpace,
    InvalidSpace,
    _fraction_rows,
    _int_rows,
    canonicalize,
    complete,
    copies,
)
from finmetric.ultratrees import UltraTree, comb_space, space_of_tree

from test_four_values import _amalgam_outcome, _reference_amalgamate, amalgamation_inputs
from test_hedgehog import unit_prefixes
from test_katetov import _reference_is_katetov, closure_inputs
from test_milliken import _runnable_depths
from test_spaces import RATIONALS, _reference_copies, _reference_violating_triple, partial_graphs


def assert_view(x: FiniteMetricSpace):
    """x's int view is _int_rows(x.d), compared row by row: the rows times
    the least common denominator, and that denominator."""
    m, scale = x._scaled_rows()
    want, want_scale = _int_rows(x.d)
    assert scale == want_scale
    assert len(m) == len(want)
    for row, want_row in zip(m, want):
        assert tuple(row) == want_row


def assert_rechecked(x: FiniteMetricSpace):
    """The checked constructor accepts x and rebuilds it equal, row and entry
    types included; both int views are the least one."""
    assert_view(x)
    checked = FiniteMetricSpace(x.d)
    assert_view(checked)
    assert checked == x and checked.n == x.n == len(x.d)
    assert type(x.d) is tuple and all(type(row) is tuple for row in x.d)
    assert all(type(v) is Fraction for row in x.d for v in row)


class TestFromInts:
    """A proved int matrix m at a scale becomes a space as
    _from_rows(_fraction_rows(m, scale)); its view is then _int_rows(.d),
    at the least scale, whatever common factor m and scale share."""

    @given(
        st.integers(0, 6).flatmap(lambda n: st.lists(
            st.lists(st.integers(-5, 40), min_size=n, max_size=n), min_size=n, max_size=n)),
        st.integers(1, 12),
    )
    def test_rows_are_the_fraction_matrix(self, m, scale):
        x = FiniteMetricSpace._from_rows(_fraction_rows(m, scale))
        assert_view(x)
        assert x.n == len(m)
        assert x.d == tuple(tuple(Fraction(u, scale) for u in row) for row in m)
        assert all(type(v) is Fraction for row in x.d for v in row)

    def test_empty_space(self):
        x = FiniteMetricSpace._from_rows(_fraction_rows([], 3))
        assert x.n == 0 and x.d == () and x == FiniteMetricSpace([])
        assert x._scaled_rows() == ((), 1)


def _capped_closure_space():
    """The 2-point partial space of a closure over {1, 3/2} capped at 2 points:
    its one distance is 1, so it lacks S's denominator 2."""
    with pytest.raises(ResourceLimit) as info:
        urysohn_approx(DistanceSet([1, Fraction(3, 2)]), 2, Config(urysohn_max_points=2))
    return info.value.space


# spaces built from ints at a scale larger than their least one, each with a
# checked partner space at its own least scale and a distance set holding both
NON_MINIMAL = {
    "complete-unreached-cap": (
        lambda: complete(EdgeLabelledGraph(3, {(0, 1): 1, (1, 2): 1, (0, 2): 2}), "sum-cap", Fraction(5, 2)),
        lambda: FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
        (1, 2),
    ),
    "closure-missing-denominator": (
        _capped_closure_space,
        lambda: FiniteMetricSpace.equilateral(3, 1),
        (1, Fraction(3, 2)),
    ),
}


class TestNonMinimalScale:
    """A builder's scale may exceed its space's least one; the view holds the least."""

    @pytest.mark.parametrize("name", NON_MINIMAL)
    def test_view_is_the_least_scale(self, name):
        build, _, _ = NON_MINIMAL[name]
        x = build()
        assert_view(x)
        assert x._scaled_rows()[1] == 1

    def test_copies_of_the_unreached_cap_space(self):
        build, partner, _ = NON_MINIMAL["complete-unreached-cap"]
        assert copies(partner(), build()) == [(0, 1, 2)]

    @pytest.mark.parametrize("name", NON_MINIMAL)
    def test_kernels_match_their_references(self, name):
        build, partner, values = NON_MINIMAL[name]
        x, y = build(), partner()
        s = DistanceSet(values)
        for host, target in ((y, x), (x, y), (x, x)):
            assert copies(host, target) == _reference_copies(host, target)
        for shared in ([], [0], [0, 1]):
            assert _amalgam_outcome(amalgamate, s, x, y, shared, shared) == _amalgam_outcome(
                _reference_amalgamate, s, x, y, shared, shared)
            assert _amalgam_outcome(amalgamate, s, y, x, shared, shared) == _amalgam_outcome(
                _reference_amalgamate, s, y, x, shared, shared)
        grid = [Fraction(k, 2) for k in range(6)]
        for f in itertools.product(grid, repeat=x.n):
            assert is_katetov(x, f) == _reference_is_katetov(x, f)
        assert x.is_ultrametric() == (_reference_violating_triple(x.d, "ultrametric") is None)


def _random_space(rng, n, ultra=False):
    """n distinct random points: on a grid under the l1 metric, scaled by 1/q;
    with ultra, random strings under the first-difference ultrametric."""
    if ultra:
        pts = rng.sample(list(itertools.product(range(3), repeat=3)), n)
        levels = sorted(rng.sample(range(1, 13), 3), reverse=True)
        dist = [[0 if a == b else levels[next(i for i in range(3) if a[i] != b[i])]
                 for b in pts] for a in pts]
        return FiniteMetricSpace(dist)
    pts = rng.sample(list(itertools.product(range(5), repeat=2)), n)
    q = rng.choice((1, 2, 3))
    return FiniteMetricSpace(
        [[Fraction(abs(a[0] - b[0]) + abs(a[1] - b[1]), q) for b in pts] for a in pts]
    )


def _sparse_graph(rng, x: FiniteMetricSpace) -> EdgeLabelledGraph:
    """x's labels on a random path through every point and on some other pairs."""
    order = rng.sample(range(x.n), x.n)
    keep = set(zip(order, order[1:]))
    keep |= {p for p in itertools.combinations(range(x.n), 2) if rng.random() < 0.4}
    return EdgeLabelledGraph(x.n, {(i, j): x.d[i][j] for i, j in keep})


class TestExtendWith:
    @given(st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_random_katetov_maps(self, n, seed):
        rng = random.Random(seed)
        x = _random_space(rng, n)
        for _ in range(200):
            f = [Fraction(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(n)]
            if is_katetov(x, f)[0]:
                break
        else:
            assume(False)
        assert_rechecked(extend_with(x, f))


class TestSubmetric:
    @given(st.integers(0, 7), st.integers(0, 10**6), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_distinct_points_in_any_order(self, n, seed, ultra):
        rng = random.Random(seed)
        x = _random_space(rng, n, ultra)
        idx = rng.sample(range(n), rng.randint(0, n))
        y = x.submetric(idx)
        assert_rechecked(y)
        assert y.d == tuple(tuple(x.d[i][j] for j in idx) for i in idx)

    @pytest.mark.parametrize("idx, message", [
        ([0, 0], r"repeated point in \[0, 0\]"),
        ([-1, 0], "point -1 out of range for a 3-point space"),
        ([0, 3], "point 3 out of range for a 3-point space"),
    ])
    def test_repeated_or_out_of_range_points_rejected(self, idx, message):
        with pytest.raises(InvalidSpace, match=message):
            FiniteMetricSpace.equilateral(3, 1).submetric(idx)


class TestCanonicalize:
    @given(st.integers(0, 7), st.integers(0, 10**6), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_a_reordering(self, n, seed, ultra):
        x = _random_space(random.Random(seed), n, ultra)
        canon, order = canonicalize(x)
        assert_rechecked(canon)
        assert canon == x.submetric(order)


class TestEquilateral:
    @given(st.integers(0, 8), RATIONALS)
    def test_positive_distance(self, n, a):
        x = FiniteMetricSpace.equilateral(n, a)
        assert_rechecked(x)
        assert x.distances() == ({a} if n >= 2 else set())

    @pytest.mark.parametrize("a", [0, -2])
    def test_non_positive_distance_rejected(self, a):
        with pytest.raises(InvalidSpace, match=f"equilateral distance must be positive, got {a}"):
            FiniteMetricSpace.equilateral(3, a)
        # fewer than two points use no distance
        assert FiniteMetricSpace.equilateral(1, a) == FiniteMetricSpace.single_point()

    def test_single_point(self):
        assert_rechecked(FiniteMetricSpace.single_point())


class TestUltrametricGrid:
    @given(st.lists(RATIONALS, min_size=1, max_size=3, unique=True), st.integers(2, 3))
    @settings(max_examples=60, deadline=None)
    def test_first_difference_distances(self, values, arity):
        x = ultrametric_urysohn_grid(DistanceSet(values), arity)
        assert_rechecked(x)
        assert x.is_ultrametric() and x.n == arity ** len(values)


@st.composite
def ultra_trees(draw):
    """Validated trees: decreasing positive levels, one to three children a node."""
    levels = sorted(draw(st.lists(RATIONALS, min_size=1, max_size=3, unique=True)), reverse=True)
    parents, depths, frontier = [-1], [0], [0]
    for depth in range(1, len(levels) + 1):
        below = []
        for node in frontier:
            for _ in range(draw(st.integers(1, 3))):
                below.append(len(parents))
                parents.append(node)
                depths.append(depth)
        frontier = below
    return UltraTree(tuple(levels), parents, depths, {leaf: p for p, leaf in enumerate(frontier)})


def _reference_space_of_tree(t: UltraTree) -> FiniteMetricSpace:
    """d(leaf, leaf) = a_(lca depth), the lca found as the deepest common ancestor."""
    ancestors = []
    for node in t.leaves():
        chain = set()
        while node != -1:
            chain.add(node)
            node = t.parents[node]
        ancestors.append(chain)
    n = len(ancestors)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        lca_depth = max(t.depths[node] for node in ancestors[a] & ancestors[b])
        rows[a][b] = rows[b][a] = t.level_distances[lca_depth]
    return FiniteMetricSpace(rows)


class TestSpaceOfTree:
    @given(ultra_trees())
    @settings(max_examples=100, deadline=None)
    def test_lca_depths(self, t):
        x = space_of_tree(t)
        assert_rechecked(x)
        assert x.is_ultrametric() and x.n == len(t.leaves())
        assert x.d == _reference_space_of_tree(t).d


class TestCombSpace:
    @given(st.lists(RATIONALS, max_size=6, unique=True))
    def test_decreasing_positive_levels(self, values):
        levels = sorted(values, reverse=True)
        x = comb_space(len(levels) + 1, levels)
        assert_rechecked(x)
        assert x.is_ultrametric()

    @pytest.mark.parametrize("levels, message", [
        ([1, 5], "level distances must be strictly decreasing"),
        ([2, 2], "level distances must be strictly decreasing"),
        ([1, 0], "level distances must be positive"),
    ])
    def test_other_levels_rejected(self, levels, message):
        with pytest.raises(InvalidSpace, match=message):
            comb_space(3, levels)


class TestHedgehogCoarse:
    @given(unit_prefixes(max_n=6), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_ceiled_metric(self, prefix, m):
        coarse = hedgehog_build(m, prefix, 0).coarse
        assert_rechecked(coarse)
        assert coarse.d == tuple(
            tuple(ceil_to_grid(v, m) if v else Fraction(0) for v in row) for row in prefix.d
        )


class TestComplete:
    @given(st.integers(0, 7), st.integers(0, 10**6), st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_sum_cap_of_a_sparse_metric(self, n, seed, slack):
        rng = random.Random(seed)
        x = _random_space(rng, n)
        g = _sparse_graph(rng, x)
        top = max(x.distances(), default=Fraction(1))
        cap = top + Fraction(slack * rng.randint(0, 6), rng.choice((1, 2, 5)))
        y = complete(g, "sum-cap", cap)
        assert_rechecked(y)
        assert all(y.d[i][j] == g.label(i, j) for i, j in g.labelled_pairs())

    @given(st.integers(0, 7), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_max_of_a_sparse_ultrametric(self, n, seed):
        rng = random.Random(seed)
        y = complete(_sparse_graph(rng, _random_space(rng, n, ultra=True)), "max")
        assert_rechecked(y)
        assert y.is_ultrametric()

    @given(partial_graphs(), st.builds(Fraction, st.integers(1, 200), st.integers(1, 6)))
    @settings(max_examples=200, deadline=None)
    def test_any_partial_graph(self, g, cap):
        for mode, r in (("sum-cap", cap), ("max", None)):
            try:
                y = complete(g, mode, r)
            except InvalidSpace:
                continue
            assert_rechecked(y)
            if mode == "max":
                assert y.is_ultrametric()

    def test_one_point_graph_ignores_its_cap(self):
        for cap in (-1, 0, 5):
            assert complete(EdgeLabelledGraph(1), "sum-cap", cap).d == ((0,),)


class TestAmalgamate:
    @given(amalgamation_inputs())
    @settings(max_examples=200, deadline=None)
    def test_random_inputs(self, inputs):
        result = _amalgam_outcome(amalgamate, *inputs)
        if isinstance(result, FiniteMetricSpace):
            assert_rechecked(result)


class TestUrysohnApprox:
    @given(closure_inputs())
    @settings(max_examples=30, deadline=None)
    def test_result_and_partial_space(self, case):
        s, size_cap, max_points, seed = case
        try:
            space, _ = urysohn_approx(s, size_cap, Config(urysohn_max_points=max_points), seed=seed)
        except ResourceLimit as exc:
            space = exc.space
        assert_rechecked(space)
        assert space.distances() <= set(s)


def _reference_coding_matrix(variant, depth, flat):
    """The coding matrix read off flat once per entry: per slot, every node's
    relations to all nodes times (A+1)^(k-1-slot), summed over the slots at
    the other points' nodes, one comprehension per row for pairs and one for
    triples."""
    base, size = variant.alphabet + 1, variant.tuple_size
    nodes = nodes_up_to(variant.alphabet, depth)
    relations = [[_relation(a, b) for b in nodes] for a in nodes]
    columns = list(zip(*itertools.combinations(range(len(nodes)), size)))
    weighted = [[[r * base ** (size - 1 - c) for r in row] for row in relations] for c in range(size)]
    rows = []
    for own in zip(*columns):
        tables = [weighted[c][x] for c, x in enumerate(own)]
        if size == 2:
            s, t = tables
            rows.append(tuple([flat[s[x] + t[y]] for x, y in zip(*columns)]))
        else:
            s, t, u = tables
            rows.append(tuple([flat[s[x] + t[y] + u[z]] for x, y, z in zip(*columns)]))
    return tuple(rows)


class TestMillikenBuilds:
    @pytest.mark.parametrize("name", VARIANTS)
    @pytest.mark.parametrize("invert", [False, True])
    def test_coding_matrix_matches_the_reference(self, name, invert):
        """Every depth up to the exhaustive cap, from the int table and the
        Fraction table: equal rows, and tuples all the way down."""
        variant = load_variant(name)
        ints = _flat_table(name, invert)
        for depth in _runnable_depths(name):
            for flat in (ints, [*map(Fraction, ints)]):
                dmat = _coding_matrix(variant, depth, flat)
                assert dmat == _reference_coding_matrix(variant, depth, flat)
                assert type(dmat) is tuple and all(type(row) is tuple for row in dmat)
                assert all(type(v) is type(flat[0]) for row in dmat for v in row)

    @pytest.mark.parametrize("name", VARIANTS)
    @pytest.mark.parametrize("invert", [False, True])
    def test_exhaustive_builds_to_depth_3(self, name, invert):
        """Up to 120 points the checked constructor rescans the space; the
        780-point and 455-point depth-3 spaces, too large for its cubic scan
        here, are rescanned on their int matrix by _triangle_witness."""
        variant = load_variant(name)
        for depth in (d for d in _runnable_depths(name) if 1 <= d <= 3):
            ms = milliken_space(name, depth, invert_membership=invert)
            assert (ms.space is None) == (ms.witness is not None)
            if ms.space is None:
                continue
            if ms.space.n <= 120:
                assert_rechecked(ms.space)
            else:
                dmat = _coding_matrix(variant, depth, _flat_table(name, invert))
                assert _triangle_witness(dmat) is None
                assert ms.space.d == tuple(tuple(map(Fraction, row)) for row in dmat)
                # the rows are dmat over 1, so _int_rows(.d) is (dmat, 1)
                assert ms.space._scaled_rows() == (tuple(map(tuple, dmat)), 1)

    @pytest.mark.parametrize("name", VARIANTS)
    def test_coding_rows_are_the_int_matrix(self, name):
        """A metric build's rows come from the Fraction table, an inverted
        build's verdict from the int table; both tables give one matrix."""
        variant = load_variant(name)
        for depth in range(4):
            dmat = _coding_matrix(variant, depth, _flat_table(name))
            assert all(type(u) is int for row in dmat for u in row)
            ms = milliken_space(name, depth)
            assert ms.metric and ms.witness is None
            assert ms.space.d == tuple(tuple(map(Fraction, row)) for row in dmat)
            assert all(type(v) is Fraction for row in ms.space.d for v in row)
            inverted = milliken_space(name, depth, invert_membership=True)
            imat = _coding_matrix(variant, depth, _flat_table(name, True))
            witness = _triangle_witness(imat)
            assert inverted.witness == witness
            assert (inverted.space is None) == (witness is not None) == (not inverted.metric)
            if witness is None:
                assert inverted.space.d == tuple(tuple(map(Fraction, row)) for row in imat)
            if depth >= 2:
                assert witness is not None
