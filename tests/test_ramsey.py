import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from finmetric.ramsey import (
    ArrowResult,
    critical_distances,
    metric_orderings_count,
    order_types,
    ramsey_degree_general,
    ramsey_degree_metric_ordered,
    verify_arrow,
    verify_ordering_property_witness,
)
from finmetric.ramsey import _class_groups, _interval_orders
from finmetric.spaces import (
    Config,
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    _ranked,
    copies,
    isometries,
    isometry_order,
)
from finmetric.katetov import ultrametric_urysohn_grid
from finmetric.ultratrees import (
    comb_space,
    convex_orderings_count,
    ramsey_degree_ultrametric,
)
from test_spaces import EDGE_CASES, few_valued_spaces, twin_rich_spaces
from test_ultratrees import _reference_balls


def scalene():
    return FiniteMetricSpace([[0, 2, 3], [2, 0, 4], [3, 4, 0]])


# --- reference scans: the brute-force loops the fast paths replaced -----------

def _equivalence_classes(x, threshold):
    """Classes of d <= threshold; the relation must be transitive to be used."""
    classes = []
    assigned = {}
    for p in range(x.n):
        if p in assigned:
            continue
        cls = [q for q in range(x.n) if x.d[p][q] <= threshold]
        for a in cls:
            for b in cls:
                if x.d[a][b] > threshold:
                    raise InvalidSpace(
                        f"closeness at {threshold} is not an equivalence on this space"
                    )
        for q in cls:
            assigned[q] = len(classes)
        classes.append(cls)
    return classes


def _is_interval(positions):
    spots = sorted(positions)
    return spots[-1] - spots[0] == len(spots) - 1


def _reference_class_groups(y, which, s):
    """The point sets of 2 to n-1 points that every ordering in the class keeps intervals."""
    if which == "all":
        return set()
    if which == "convex":
        groups = _reference_balls(y)
    elif which == "metric":
        if s is None:
            s = y.distance_set()
        if any(v not in s for v in y.distances()):
            raise InvalidSpace("space has a distance outside S")
        groups = {frozenset(cls) for c in critical_distances(s) for cls in _equivalence_classes(y, c)}
    else:
        raise InvalidSpace(f"unknown ordering class {which!r}")
    return {grp for grp in groups if 1 < len(grp) < y.n}


def _reference_orderings_in_class(y, which, s):
    """Yield point sequences of y belonging to the requested ordering class."""
    groups = _reference_class_groups(y, which, s)
    for perm in itertools.permutations(range(y.n)):
        pos = {p: i for i, p in enumerate(perm)}
        if all(_is_interval([pos[p] for p in grp]) for grp in groups):
            yield perm


def _reference_order_preserving_copy_exists(y, order_y, x, order_x):
    """Is there an isometric copy of x in y aligned with both orderings?

    Orderings are point sequences listing the points from least to greatest.
    """
    seq_x = list(order_x)
    seq_y = list(order_y)

    def extend(img):
        i = len(img)
        if i == x.n:
            return True
        start = seq_y.index(img[-1]) + 1 if img else 0
        for pos in range(start, y.n):
            cand = seq_y[pos]
            if all(
                y.d[cand][img[j]] == x.d[seq_x[i]][seq_x[j]] for j in range(i)
            ):
                if extend(img + [cand]):
                    return True
        return False

    return extend([])


def _reference_verify_ordering_property_witness(
    y, x, order_x, ordering_class="all", s=None, config=Config()
):
    """Does every ordering of y (in the class) embed the ordered space (x, <)?"""
    if y.n > config.ordering_bound:
        raise SearchTooLarge(f"ordering-property scan too large: n={y.n}")
    order_x = tuple(order_x)
    for order_y in _reference_orderings_in_class(y, ordering_class, s):
        if not _reference_order_preserving_copy_exists(y, order_y, x, order_x):
            return False
    return True


def _reference_metric_orderings_count(x, s):
    """Orderings making every critical closeness class convex, over all n!."""
    if any(v not in s for v in x.distances()):
        raise InvalidSpace("space has a distance outside S")
    crits = critical_distances(s)
    class_sets = []
    for c in crits:
        for cls in _equivalence_classes(x, c):
            if 1 < len(cls) < x.n:
                class_sets.append(frozenset(cls))
    class_sets = set(class_sets)
    count = 0
    for perm in itertools.permutations(range(x.n)):
        pos = {p: i for i, p in enumerate(perm)}
        ok = True
        for cls in class_sets:
            spots = sorted(pos[p] for p in cls)
            if spots[-1] - spots[0] != len(spots) - 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def _reference_verify_arrow(z, y, x, k=2, l=1, config=Config()):
    """The arrow by a scan of all k^(N-1) colorings in lexicographic order."""
    copies_x = copies(z, x, config)
    n_copies = len(copies_x)
    if n_copies > config.arrow_copy_budget:
        raise SearchTooLarge(
            f"arrow search too large: {n_copies} copies > {config.arrow_copy_budget}"
        )
    copies_y = copies(z, y, config)
    index_of = {c: i for i, c in enumerate(copies_x)}
    sub_lists = []
    for yc in copies_y:
        members = set(yc)
        sub = [index_of[c] for c in copies_x if set(c) <= members]
        sub_lists.append(sub)
    if not copies_y:
        holds = n_copies == 0
        return ArrowResult(holds, n_copies, 0, None if holds else ())

    checked = 0
    for tail in itertools.product(range(k), repeat=max(n_copies - 1, 0)):
        coloring = (0,) + tail if n_copies else ()
        checked += 1
        good = False
        for sub in sub_lists:
            if len({coloring[i] for i in sub}) <= l:
                good = True
                break
        if not good:
            return ArrowResult(False, n_copies, checked, coloring)
    return ArrowResult(True, n_copies, checked)


def _reference_arrow_search(z, y, x, k=2, l=1, config=Config()):
    """The arrow search before each node's banned colors: every candidate color
    is appended and every closing copy of y re-tested by building its color set."""
    if k < 1 or l < 0:
        raise InvalidSpace(f"the arrow needs k >= 1 colors and l >= 0 values, got k={k}, l={l}")
    copies_x = copies(z, x, config)
    n_copies = len(copies_x)
    if n_copies > config.arrow_copy_budget:
        raise SearchTooLarge(
            f"arrow search too large: {n_copies} copies > {config.arrow_copy_budget}"
        )
    copies_y = copies(z, y, config)
    if not copies_y:
        holds = n_copies == 0
        return ArrowResult(holds, n_copies, 0, None if holds else ())
    closing = [[] for _ in range(n_copies)]
    for yc in copies_y:
        members = set(yc)
        sub = [i for i, c in enumerate(copies_x) if set(c) <= members]
        if not sub:
            return ArrowResult(True, n_copies, k ** max(n_copies - 1, 0))
        closing[sub[-1]].append(sub)
    coloring = []

    def witness(used):
        t = len(coloring)
        if t == n_copies:
            return True
        for color in range(used + 1 if used < k else k):
            coloring.append(color)
            if all(len({coloring[i] for i in sub}) > l for sub in closing[t]):
                if witness(used + (color == used)):
                    return True
            coloring.pop()
        return False

    if witness(0):
        rank = 0
        for color in coloring[1:]:
            rank = rank * k + color
        return ArrowResult(False, n_copies, rank + 1, tuple(coloring))
    return ArrowResult(True, n_copies, k ** max(n_copies - 1, 0))


def _reference_order_types(x, config=Config()):
    """The lexicographically least ordering of each orbit, by a scan of all n!."""
    group = isometries(x, config)
    seen = set()
    reps = []
    for perm in itertools.permutations(range(x.n)):
        if perm in seen:
            continue
        reps.append(perm)
        for g in group:
            seen.add(tuple(g[p] for p in perm))
    if len(reps) != math.factorial(x.n) // len(group):
        raise AssertionError(
            f"{len(reps)} order types, but n!/|iso| = {math.factorial(x.n) // len(group)}"
        )
    return reps


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (InvalidSpace, SearchTooLarge) as exc:
        return type(exc).__name__, str(exc)


S_SETS = [DistanceSet(v) for v in ((1,), (1, 2), (1, 3), (1, 2, 5), (1, 3, 4), (1, 3, 7),
                                   (2, 3, 4), (Fraction(1, 2), 2, 5), (1, 2, 3, 7))]


@st.composite
def s_spaces(draw, max_n=7):
    """(x, S): a metric space with distances in S, built point by point."""
    s = draw(st.sampled_from(S_SETS))
    n = draw(st.integers(1, max_n))
    d = [[Fraction(0)] * n for _ in range(n)]
    for p in range(1, n):
        for q in range(p):
            ok = [v for v in s if all(abs(d[p][t] - d[q][t]) <= v <= d[p][t] + d[q][t]
                                      for t in range(q))]
            assume(ok)
            d[p][q] = d[q][p] = draw(st.sampled_from(ok))
    return FiniteMetricSpace(d), s


@st.composite
def ordering_cases(draw):
    """(y, x, order_x, s): y with 0-7 points and distances in S, x a subspace or an equilateral space.

    Half of the ys are ultrametric; the rest are drawn as in s_spaces, so
    their balls can cross.
    """
    s = draw(st.sampled_from(S_SETS))
    n = draw(st.integers(0, 7))
    d = [[Fraction(0)] * n for _ in range(n)]
    ultra = draw(st.booleans())
    for p in range(1, n):
        if ultra:
            # a new point at distance v from q0 is max(v, d(q0, t)) from every other t
            q0, v = draw(st.integers(0, p - 1)), draw(st.sampled_from(s.values))
            for t in range(p):
                d[p][t] = d[t][p] = v if t == q0 else max(v, d[q0][t])
            continue
        for q in range(p):
            ok = [v for v in s if all(abs(d[p][t] - d[q][t]) <= v <= d[p][t] + d[q][t]
                                      for t in range(q))]
            assume(ok)
            d[p][q] = d[q][p] = draw(st.sampled_from(ok))
    y = FiniteMetricSpace(d)
    m = draw(st.integers(0, min(n, 4)))
    if n and draw(st.booleans()):
        x = y.submetric(draw(st.permutations(range(n)))[:m])
    else:
        x = FiniteMetricSpace.equilateral(m, draw(st.sampled_from(s.values))) if m else y.submetric([])
    order = draw(st.permutations(range(x.n)))
    return y, x, tuple(order), draw(st.sampled_from((None, s)))


@st.composite
def arrow_triples(draw, max_n=5):
    """(z, y, x) with x and y isometric to subspaces of z or to random spaces."""
    vals = draw(st.lists(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2))),
                         min_size=1, max_size=2, unique=True))
    n = draw(st.integers(1, max_n))
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(st.sampled_from(vals))
    z = FiniteMetricSpace(d)

    def part(size):
        if draw(st.booleans()):
            return z.submetric(sorted(draw(st.permutations(range(n)))[:size]))
        return FiniteMetricSpace.equilateral(size, draw(st.sampled_from(vals)))

    x_size = draw(st.integers(1, min(n, 3)))
    return z, part(draw(st.integers(x_size, n))), part(x_size)


class TestGeneralDegree:
    def test_equilateral_degree_1(self):
        for n in (2, 3, 4, 5):
            assert ramsey_degree_general(FiniteMetricSpace.equilateral(n, 1)).degree == 1

    def test_scalene_triangle_degree_6(self):
        rec = ramsey_degree_general(scalene())
        assert (rec.orderings, rec.iso, rec.degree) == (6, 1, 6)

    def test_two_point_degree_1(self):
        assert ramsey_degree_general(FiniteMetricSpace([[0, 3], [3, 0]])).degree == 1


def _reference_critical_distances(s):
    """Values v of S with no S element in (v, 2v], by a scan of all of S."""
    out = [v for v in s.values if not any(v < w <= 2 * v for w in s.values)]
    if s.max not in out:
        raise AssertionError(f"max S = {s.max} is not critical")
    return out


class TestCriticalDistances:
    @given(st.lists(st.builds(Fraction, st.integers(1, 60), st.integers(1, 6)), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, vals):
        s = DistanceSet(vals)
        assert critical_distances(s) == _reference_critical_distances(s)

    def test_125(self):
        assert critical_distances(DistanceSet((1, 2, 5))) == [2, 5]

    def test_134(self):
        assert critical_distances(DistanceSet((1, 3, 4))) == [1, 4]

    def test_singleton(self):
        assert critical_distances(DistanceSet((1,))) == [1]

    def test_max_always_critical(self):
        rng = random.Random(2)
        for _ in range(20):
            vals = sorted(rng.sample(range(1, 30), rng.randint(1, 5)))
            crits = critical_distances(DistanceSet(vals))
            assert Fraction(vals[-1]) in crits

    def test_ultrametric_set_all_critical(self):
        # gaps exceeding doubling make every value critical
        assert critical_distances(DistanceSet((1, 3, 7))) == [1, 3, 7]


class TestMetricOrderings:
    @given(s_spaces())
    @settings(max_examples=150, deadline=None)
    def test_formula_matches_reference_scan(self, xs):
        x, s = xs
        assert metric_orderings_count(x, s) == _reference_metric_orderings_count(x, s)

    def test_errors_match_reference_scan(self):
        x, s = FiniteMetricSpace.equilateral(4, 1), DistanceSet((2, 3))
        assert _outcome(metric_orderings_count, x, s) == _outcome(
            _reference_metric_orderings_count, x, s)
        # the count scans no ordering, so no point bound applies
        big = FiniteMetricSpace.equilateral(11, 1)
        assert metric_orderings_count(big, DistanceSet((1,))) == math.factorial(11)

    def test_no_constraints_when_classes_trivial(self):
        # {2,3,4}: only critical value is 4, whose class is everything
        x = FiniteMetricSpace([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        assert metric_orderings_count(x, DistanceSet((2, 3, 4))) == 6

    def test_two_blocks_of_two_in_125(self):
        x = FiniteMetricSpace(
            [[0, 1, 5, 5], [1, 0, 5, 5], [5, 5, 0, 2], [5, 5, 2, 0]]
        )
        assert metric_orderings_count(x, DistanceSet((1, 2, 5))) == 8

    def test_ultrametric_matches_convex_count(self):
        s = DistanceSet((1, 3, 7))
        grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
        assert metric_orderings_count(grid, DistanceSet((3, 1))) == convex_orderings_count(grid)
        shapes = [
            FiniteMetricSpace([[0, 1, 7], [1, 0, 7], [7, 7, 0]]),
            FiniteMetricSpace([[0, 3, 7, 7], [3, 0, 7, 7], [7, 7, 0, 1], [7, 7, 1, 0]]),
        ]
        for x in shapes:
            assert metric_orderings_count(x, s) == convex_orderings_count(x)

    def test_all_critical_set_matches_convex_count_exhaustively(self):
        # over a set where every value is critical (each gap beats doubling),
        # metric orderings are exactly the ball-convex ones: run every tree
        # shape with up to 5 leaves
        import sys

        sys.path.insert(0, "tests")
        from test_ultratrees import all_tree_shapes

        s_all = DistanceSet((1, 3, 7, 15, 31))
        levels_desc = [31, 15, 7, 3, 1]
        for n_leaves in range(2, 6):
            for depth, shape in all_tree_shapes(n_leaves):
                points = []

                def leaves_of(node, path):
                    if node is None:
                        points.append(path)
                        return
                    for i, child in enumerate(node):
                        leaves_of(child, path + (i,))

                leaves_of(shape, ())
                n = len(points)
                lv = levels_desc[:depth]
                rows = [[Fraction(0)] * n for _ in range(n)]
                for a in range(n):
                    for b in range(a + 1, n):
                        delta = next(
                            i for i in range(depth) if points[a][i] != points[b][i]
                        )
                        rows[a][b] = rows[b][a] = Fraction(lv[delta])
                x = FiniteMetricSpace(rows)
                assert metric_orderings_count(x, s_all) == convex_orderings_count(x)

    def test_degree_cross_module(self):
        grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
        a = ramsey_degree_metric_ordered(grid, DistanceSet((3, 1)))
        b = ramsey_degree_ultrametric(grid)
        assert a.degree == b.degree

    def test_degree_agrees_with_general_when_unconstrained(self):
        x = scalene()
        a = ramsey_degree_metric_ordered(x, DistanceSet((2, 3, 4)))
        b = ramsey_degree_general(x)
        assert a.degree == b.degree

    def test_single_point(self):
        x = FiniteMetricSpace.single_point()
        assert ramsey_degree_metric_ordered(x, DistanceSet((1,))).degree == 1


class TestOrderTypes:
    @given(st.one_of(twin_rich_spaces(), few_valued_spaces(max_n=6)))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, x):
        assert order_types(x) == _reference_order_types(x)

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_edge_cases_match_reference(self, name):
        x = EDGE_CASES[name]()
        assert order_types(x) == _reference_order_types(x)

    def test_equilateral_single_type(self):
        assert len(order_types(FiniteMetricSpace.equilateral(3, 1))) == 1

    def test_scalene_six_types(self):
        assert len(order_types(scalene())) == 6

    def test_comb3_three_types(self):
        x = comb_space(3)
        assert len(order_types(x)) == 3

    def test_divisibility_always(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(2, 5)
            w = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    w[i][j] = w[j][i] = Fraction(rng.randint(2, 4))
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if w[i][k] + w[k][j] < w[i][j]:
                            w[i][j] = w[i][k] + w[k][j]
            x = FiniteMetricSpace(w)
            types = order_types(x)
            assert len(types) * len(isometries(x)) == math.factorial(n)
            assert isometry_order(x) == len(isometries(x))


def _r33(n, a):
    """(K_n, triangle, edge), all at distance a: the R(3,3) arrow's spaces."""
    return tuple(FiniteMetricSpace.equilateral(m, a) for m in (n, 3, 2))


def _two_distance_host(text):
    """The bench's seeded two-distance arrows: z from its rows, y its first
    three points, x the edge at d(0, 1)."""
    z = FiniteMetricSpace([[int(c) for c in row] for row in text.split("/")])
    return z, z.submetric([0, 1, 2]), FiniteMetricSpace.equilateral(2, z.d[0][1])


# the six two-distance hosts of the bench's symmetry workload, seed 0, pass 0
BENCH_HOSTS = ["02233/20233/22022/33202/33220", "03233/30222/22023/32202/32320",
               "022233/202332/220233/232032/333303/323230",
               "023223/202322/320233/232022/223203/323230",
               "032232/302333/220233/232032/333302/233220",
               "02332/20222/32033/32303/22330"]


class TestArrow:
    @given(arrow_triples(), st.sampled_from((1, 2, 3, 4)), st.sampled_from((0, 1, 2, 3)))
    @settings(max_examples=150, deadline=None)
    def test_search_matches_reference_scan(self, zyx, k, l):
        z, y, x = zyx
        assert _outcome(verify_arrow, z, y, x, k, l) == _outcome(
            _reference_verify_arrow, z, y, x, k, l)

    @given(arrow_triples(max_n=6), st.sampled_from((1, 2, 3, 4)), st.sampled_from((0, 1, 2, 3)))
    @example(_r33(5, Fraction(1, 2)), 2, 1)
    @example(_r33(5, 3), 2, 1)
    @example(_r33(6, Fraction(1, 2)), 2, 1)
    @example(_r33(6, 3), 2, 1)
    @example(_two_distance_host(BENCH_HOSTS[0]), 2, 1)
    @example(_two_distance_host(BENCH_HOSTS[1]), 2, 1)
    @example(_two_distance_host(BENCH_HOSTS[2]), 2, 1)
    @example(_two_distance_host(BENCH_HOSTS[3]), 2, 1)
    @example(_two_distance_host(BENCH_HOSTS[4]), 2, 1)
    @example(_two_distance_host(BENCH_HOSTS[5]), 2, 1)
    @settings(max_examples=200, deadline=None)
    def test_banned_colors_match_the_per_color_search(self, zyx, k, l):
        # the same nodes in the same order: the same whole ArrowResult, or the same exception.
        # Both sides get a 15-copy budget: (K6, K5, K3) at k = l = 3 has 20 copies and took
        # the reference 30 s, so larger draws compare their SearchTooLarge refusals instead
        z, y, x = zyx
        config = Config(arrow_copy_budget=15)
        assert _outcome(verify_arrow, z, y, x, k, l, config) == _outcome(
            _reference_arrow_search, z, y, x, k, l, config)

    @pytest.mark.parametrize("text", BENCH_HOSTS)
    def test_bench_hosts_match_reference_scan(self, text):
        z, y, x = _two_distance_host(text)
        assert verify_arrow(z, y, x) == _reference_verify_arrow(z, y, x)

    @pytest.mark.parametrize("a", [Fraction(1, 2), 3])
    def test_r33_witness_and_count_at_every_scale(self, a):
        res = verify_arrow(*_r33(5, a))
        assert res == ArrowResult(False, 10, 237, (0, 0, 1, 1, 1, 0, 1, 1, 0, 0))
        assert verify_arrow(*_r33(6, a)) == ArrowResult(True, 15, 2 ** 14)

    def test_rest_below_l_leaves_no_color(self):
        # with l = 3 a triangle's three edges are always good: the node of the
        # first edge that closes a triangle sees a rest of at most 2 < 3
        # colors, so it ends with no color and the arrow holds
        z, y, x = _r33(4, 1)
        for k in (1, 2, 3, 4):
            assert verify_arrow(z, y, x, k, 3) == ArrowResult(True, 6, k ** 5)

    @pytest.mark.parametrize("zn", [4, 5, 6])
    def test_triangles_on_pairs_match_reference_scan(self, zn):
        z = FiniteMetricSpace.equilateral(zn, 1)
        y, x = FiniteMetricSpace.equilateral(3, 1), FiniteMetricSpace.equilateral(2, 1)
        assert verify_arrow(z, y, x) == _reference_verify_arrow(z, y, x)

    def test_huge_k_costs_what_six_colors_cost(self):
        # colors are tried in order of first appearance, so k = 10**9 searches
        # no more colorings than k = 6 (one per copy)
        k = 10**9
        z, y, x = (FiniteMetricSpace.equilateral(n, 1) for n in (4, 3, 2))
        start = time.perf_counter()
        res = verify_arrow(z, y, x, k=k, l=2)
        assert time.perf_counter() - start < 1
        assert res.witness_coloring == (0, 1, 2, 2, 1, 0)
        rank = 0
        for color in res.witness_coloring[1:]:
            rank = rank * k + color
        assert res.colorings_checked == rank + 1 == 10**36 + 2 * 10**27 + 2 * 10**18 + 10**9 + 1
        assert (res.holds, res.copies_of_x) == (False, 6)

    def test_single_copy_trivial(self):
        x = FiniteMetricSpace.equilateral(3, 1)
        assert verify_arrow(x, x, x, k=5)

    def test_point_pigeonhole(self):
        point = FiniteMetricSpace.single_point()
        y3 = FiniteMetricSpace.equilateral(3, 1)
        z5 = FiniteMetricSpace.equilateral(5, 1)
        z4 = FiniteMetricSpace.equilateral(4, 1)
        assert verify_arrow(z5, y3, point, k=2)
        res = verify_arrow(z4, y3, point, k=2)
        assert not res
        assert res.witness_coloring is not None

    def test_ramsey_3_3_at_6(self):
        pair = FiniteMetricSpace.equilateral(2, 1)
        triangle = FiniteMetricSpace.equilateral(3, 1)
        z6 = FiniteMetricSpace.equilateral(6, 1)
        z5 = FiniteMetricSpace.equilateral(5, 1)
        assert verify_arrow(z6, triangle, pair, k=2, config=Config(arrow_copy_budget=16))
        res = verify_arrow(z5, triangle, pair, k=2)
        assert not res
        # the least witness for K5 is the pentagon/pentagram 2-coloring
        assert res.witness_coloring is not None

    def test_monotone_in_z(self):
        pair = FiniteMetricSpace.equilateral(2, 1)
        tri = FiniteMetricSpace.equilateral(3, 1)
        held = False
        for n in (5, 6, 7):
            z = FiniteMetricSpace.equilateral(n, 1)
            cfg = Config(arrow_copy_budget=21)
            try:
                res = verify_arrow(z, tri, pair, k=2, config=cfg)
            except SearchTooLarge:
                continue
            if held:
                assert res.holds  # once true, embedding upward keeps it true
            held = held or res.holds

    def test_degree_upper_bound_via_pigeonhole(self):
        # l = #order-types of the 1-point space = 1: plain pigeonhole identity
        point = FiniteMetricSpace.single_point()
        y = FiniteMetricSpace.equilateral(2, 1)
        z = FiniteMetricSpace.equilateral(3, 1)
        assert verify_arrow(z, y, point, k=2, l=1)

    def test_budget_enforced(self):
        pair = FiniteMetricSpace.equilateral(2, 1)
        z = FiniteMetricSpace.equilateral(8, 1)
        with pytest.raises(SearchTooLarge):
            verify_arrow(z, z, pair, k=2, config=Config(arrow_copy_budget=10))


PATH3 = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
EMPTY = FiniteMetricSpace([])
POINT = FiniteMetricSpace.single_point()
PAIR = FiniteMetricSpace.equilateral(2, 1)
# the 4-cycle: its four crossing 3-point balls leave the convex class empty
C4 = FiniteMetricSpace([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
# 8-point {1,2}-spaces into whose every ordering PATH3 embeds, in the orders
# (0, 1, 2) and (1, 0, 2); the cut fires late, so the search extends 1,223
# and 2,040 prefixes before every branch is cut
LATE_CUT = FiniteMetricSpace([[0, 2, 1, 2, 1, 1, 1, 2], [2, 0, 2, 2, 2, 1, 2, 2],
                              [1, 2, 0, 2, 2, 2, 1, 2], [2, 2, 2, 0, 2, 2, 2, 1],
                              [1, 2, 2, 2, 0, 2, 1, 2], [1, 1, 2, 2, 2, 0, 1, 1],
                              [1, 2, 1, 2, 1, 1, 0, 1], [2, 2, 2, 1, 2, 1, 1, 0]])
LATE_CUT_102 = FiniteMetricSpace([[0, 1, 1, 2, 2, 1, 2, 2], [1, 0, 1, 2, 2, 2, 2, 2],
                                  [1, 1, 0, 2, 2, 2, 1, 2], [2, 2, 2, 0, 2, 2, 1, 2],
                                  [2, 2, 2, 2, 0, 2, 2, 2], [1, 2, 2, 2, 2, 0, 1, 2],
                                  [2, 2, 1, 1, 2, 1, 0, 2], [2, 2, 2, 2, 2, 2, 2, 0]])


class TestOrderingProperty:
    @given(ordering_cases(), st.sampled_from(("all", "convex", "metric", "bogus")))
    # x with a distance y lacks, under every class and beside a bigger x
    @example((PATH3, FiniteMetricSpace.equilateral(2, 3), (1, 0), None), "all")
    @example((PATH3, FiniteMetricSpace.equilateral(2, 3), (0, 1), DistanceSet((1, 2))), "metric")
    @example((PATH3, FiniteMetricSpace.equilateral(4, 3), (3, 1, 0, 2), None), "bogus")
    @example((POINT, PAIR, (1, 0), None), "convex")
    @example((C4, FiniteMetricSpace.equilateral(2, 3), (0, 1), DistanceSet((1, 2, 3, 7))), "convex")
    # 0- and 1-point x and y
    @example((EMPTY, EMPTY, (), None), "all")
    @example((EMPTY, EMPTY, (), None), "metric")
    @example((POINT, EMPTY, (), None), "convex")
    @example((POINT, POINT, (0,), None), "all")
    @example((PATH3, EMPTY, (), DistanceSet((1, 2))), "metric")
    @example((PATH3, POINT, (0,), None), "convex")
    # an order_x that is not the identity
    @example((PATH3, PATH3, (1, 0, 2), None), "all")
    @example((PATH3, PATH3, (2, 1, 0), None), "convex")
    @example((PATH3, PATH3.submetric([0, 1]), (1, 0), None), "metric")
    @example((scalene(), scalene(), (2, 0, 1), None), "all")
    # 8 points, where the n! reference scan still runs
    @example((FiniteMetricSpace.equilateral(8, 1), PAIR, (0, 1), None), "all")
    @example((LATE_CUT, PATH3, (0, 1, 2), None), "all")
    @example((LATE_CUT_102, PATH3, (1, 0, 2), None), "all")
    @settings(max_examples=200, deadline=None)
    def test_verdict_matches_reference_scan(self, case, which):
        y, x, order, s = case
        assert _outcome(verify_ordering_property_witness, y, x, order, which, s) == _outcome(
            _reference_verify_ordering_property_witness, y, x, order, which, s)

    @given(ordering_cases(), st.sampled_from(("all", "convex", "metric")))
    @settings(max_examples=200, deadline=None)
    def test_class_orderings_match_reference_scan(self, case, which):
        y, _, _, s = case
        assume(which != "metric" or s is not None or y.n >= 2)
        found = []
        _interval_orders(_class_groups(y, which, s, _ranked(y)[2]), [], (1 << y.n) - 1,
                         lambda order: found.append(tuple(order)))
        assert len(found) == len(set(found))
        assert set(found) == set(_reference_orderings_in_class(y, which, s))

    @given(ordering_cases(), st.sampled_from(("all", "convex", "metric", "bogus")),
           st.one_of(st.none(), st.sampled_from(S_SETS)))
    # crossing balls in a non-ultrametric y
    @example((PATH3, PATH3, (0, 1, 2), None), "convex", None)
    @example((C4, PAIR, (0, 1), None), "convex", None)
    @example((C4, PAIR, (0, 1), None), "metric", DistanceSet((1, 2, 5)))
    # critical values below y's smallest distance and above its largest
    @example((FiniteMetricSpace.equilateral(3, 3), PAIR, (0, 1), None), "metric", DistanceSet((1, 3, 7)))
    @example((FiniteMetricSpace([[0, 1, 3], [1, 0, 3], [3, 3, 0]]), PAIR, (0, 1), None), "metric",
             DistanceSet((Fraction(1, 2), 1, 3, 7)))
    # a y with a distance outside S
    @example((PATH3, PAIR, (0, 1), None), "metric", DistanceSet((1, 3)))
    # 0- and 1-point y
    @example((POINT, POINT, (0,), None), "convex", None)
    @example((POINT, POINT, (0,), None), "metric", None)
    @example((POINT, POINT, (0,), None), "metric", DistanceSet((1,)))
    @example((EMPTY, EMPTY, (), None), "metric", None)
    @example((EMPTY, EMPTY, (), None), "convex", DistanceSet((1,)))
    @settings(max_examples=300, deadline=None)
    def test_class_groups_match_reference(self, case, which, other_s):
        """The groups read off the rank masks are the reference balls and critical classes."""
        y, _, _, s = case
        if other_s is not None:
            s = other_s

        def groups(y, which, s):
            found = _class_groups(y, which, s, _ranked(y)[2])
            assert len(found) == len(set(found))
            return {frozenset(p for p in range(y.n) if g >> p & 1) for g in found}

        assert _outcome(groups, y, which, s) == _outcome(_reference_class_groups, y, which, s)

    def test_empty_class_is_vacuously_witnessed(self):
        # no ordering of C4 keeps its balls intervals, so even an x with a
        # distance C4 lacks is embedded by every ordering in the class
        assert not list(_reference_orderings_in_class(C4, "convex", None))
        assert verify_ordering_property_witness(C4, FiniteMetricSpace.equilateral(2, 3), (0, 1), "convex")
        assert not verify_ordering_property_witness(C4, FiniteMetricSpace.equilateral(2, 3), (0, 1), "all")

    def test_crossing_balls_in_convex_class(self):
        # the path 0-1-2 with unit steps: the balls {0,1} and {1,2} cross, and
        # only the two monotone orderings keep both intervals
        y = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        found = []
        _interval_orders(_class_groups(y, "convex", None, _ranked(y)[2]), [], 0b111,
                         lambda order: found.append(tuple(order)))
        assert sorted(found) == sorted(_reference_orderings_in_class(y, "convex", None))
        assert sorted(found) == [(0, 1, 2), (2, 1, 0)]

    @pytest.mark.parametrize("order", [(0, 5), (0,), (0, 0), (-1, 0), (0, 1, 2)])
    def test_malformed_order_rejected(self, order):
        y, pair = FiniteMetricSpace.equilateral(3, 1), FiniteMetricSpace.equilateral(2, 1)
        with pytest.raises(InvalidSpace, match="is not an ordering of the 2 points of x"):
            verify_ordering_property_witness(y, pair, order)

    def test_metric_class_rejects_distance_outside_s(self):
        y = FiniteMetricSpace([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        pair = FiniteMetricSpace.equilateral(2, 1)
        with pytest.raises(InvalidSpace, match="space has a distance outside S"):
            verify_ordering_property_witness(y, pair, (0, 1), "metric", DistanceSet((1, 3)))
        with pytest.raises(InvalidSpace, match="one-point space has an empty distance set"):
            verify_ordering_property_witness(
                FiniteMetricSpace.single_point(), FiniteMetricSpace.single_point(), (0,), "metric")

    def test_two_point_equilateral(self):
        x = FiniteMetricSpace.equilateral(2, 1)
        assert verify_ordering_property_witness(x, x, (0, 1))

    def test_scalene_fails_against_itself(self):
        x = scalene()
        assert not verify_ordering_property_witness(x, x, (0, 1, 2))

    def test_non_convex_order_fails_in_convex_class(self):
        # 3-point ultrametric: points 1,2 close, 0 far; the ordering (1,0,2)
        # splits the close ball, so no convexly ordered space embeds it
        x = FiniteMetricSpace([[0, 3, 3], [3, 0, 1], [3, 1, 0]])
        grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
        assert not verify_ordering_property_witness(
            grid, x, (1, 0, 2), ordering_class="convex"
        )

    def test_bound_from_config(self):
        pair = FiniteMetricSpace.equilateral(2, 1)
        assert verify_ordering_property_witness(FiniteMetricSpace.equilateral(9, 1), pair, (0, 1))
        with pytest.raises(SearchTooLarge, match="ordering-property scan too large: n=10"):
            verify_ordering_property_witness(FiniteMetricSpace.equilateral(10, 1), pair, (0, 1))
        with pytest.raises(SearchTooLarge, match="ordering-property scan too large: n=3"):
            verify_ordering_property_witness(scalene(), pair, (0, 1), config=Config(ordering_bound=2))

    def test_late_cut_spaces(self):
        # the two @example spaces above hold the verdict their comment states
        assert verify_ordering_property_witness(LATE_CUT, PATH3, (0, 1, 2))
        assert verify_ordering_property_witness(LATE_CUT_102, PATH3, (1, 0, 2))

    def test_convex_order_found_in_uniform_grid(self):
        x = FiniteMetricSpace([[0, 3, 3], [3, 0, 1], [3, 1, 0]])
        grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
        assert verify_ordering_property_witness(
            grid, x, (1, 2, 0), ordering_class="convex"
        )
