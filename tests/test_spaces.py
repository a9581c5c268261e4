import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finmetric.spaces import (
    Config,
    DistanceSet,
    EdgeLabelledGraph,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    as_fraction,
    canonical_key,
    canonicalize,
    complete,
    copies,
    format_fraction,
    graph_from_text,
    graph_to_text,
    isometries,
    isometry_order,
    space_from_json,
    space_from_text,
    space_to_json,
    space_to_text,
    validate,
)
from finmetric.spaces import _path_closure, _simple_paths, _violating_triple


def path_space():
    # 3-point path: d(a,b)=1, d(b,c)=1, d(a,c)=2
    return FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def random_metric_space(rng, n, low=1, high=4):
    """Random integer-valued metric space: shortest-path repair of a random matrix."""
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = Fraction(rng.randint(low, high))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if w[i][k] + w[k][j] < w[i][j]:
                    w[i][j] = w[i][k] + w[k][j]
    return FiniteMetricSpace(w)


# --- reference scans: the direct Fraction loops --------------------------------

def _reference_violating_triple(d, mode):
    """Least violating triple in combinations order, on Fractions."""
    for i, j, k in itertools.combinations(range(len(d)), 3):
        a, b, c = d[i][j], d[i][k], d[j][k]
        if mode == "metric":
            if a > b + c or b > a + c or c > a + b:
                return (i, j, k)
        elif a > max(b, c) or b > max(a, c) or c > max(a, b):
            return (i, j, k)
    return None


def _reference_is_connected(g):
    """Connectivity by a walk that scans every label for each popped point."""
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for (a, b) in g._labels:
            for nxt, cur in ((a, b), (b, a)):
                if cur == i and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return len(seen) == g.n


def _reference_all_pairs(g, mode):
    """Floyd-Warshall over the labelled pairs on Fractions; None = unreachable."""
    n = g.n
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = Fraction(0)
    for (i, j) in g.labelled_pairs():
        dist[i][j] = dist[j][i] = g.label(i, j)
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik is None:
                continue
            for j in range(n):
                dkj = dist[k][j]
                if dkj is None:
                    continue
                s = dik + dkj if mode == "sum-cap" else max(dik, dkj)
                if dist[i][j] is None or s < dist[i][j]:
                    dist[i][j] = dist[j][i] = s
    return dist


def _reference_path_closure(n: int, labels: dict, join, cap: int) -> list[list[int]]:
    """Least path value between every two points, capped at cap.

    One Floyd-Warshall loop on int labels, unlabelled pairs starting at cap.
    A path's value is its labels folded by join: operator.add gives shortest
    paths, max gives minimax (bottleneck) paths.  No entry off the diagonal
    exceeds cap, so an entry at cap or above, joined with any, improves none.
    """
    dist = [[cap] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for (i, j), v in labels.items():
        dist[i][j] = dist[j][i] = v
    for k in range(n):
        dk = dist[k]
        for di in dist:
            dik = di[k]
            if dik >= cap:
                continue
            for j, dkj in enumerate(dk):
                s = join(dik, dkj)
                if s < di[j]:
                    di[j] = s
    return dist


def _reference_complete(g, mode, r=None):
    if not _reference_is_connected(g):
        raise InvalidSpace("graph is disconnected; completion undefined")
    if mode == "sum-cap":
        if r is None:
            raise InvalidSpace("sum-cap mode needs a cap r")
        cap = Fraction(r)
        for (i, j) in g.labelled_pairs():
            if g.label(i, j) > cap:
                raise InvalidSpace(
                    f"cap {format_fraction(cap)} smaller than label on ({i},{j})"
                )
        dist = _reference_all_pairs(g, mode)
        rows = [
            [min(dist[i][j], cap) if i != j else Fraction(0) for j in range(g.n)]
            for i in range(g.n)
        ]
    else:
        rows = _reference_all_pairs(g, mode)
    for (i, j) in g.labelled_pairs():
        if rows[i][j] != g.label(i, j):
            raise InvalidSpace(
                f"labelling is not {mode}-consistent: pair ({i},{j}) has label "
                f"{format_fraction(g.label(i, j))} but path value {format_fraction(rows[i][j])}"
            )
    bad = _reference_violating_triple(rows, "metric")
    if bad is not None:
        raise InvalidSpace(f"triangle inequality fails on ({bad[0]},{bad[1]},{bad[2]})")
    return tuple(tuple(row) for row in rows)


def _outcome(f, *args):
    """The result, or the type and text of the error, for equality checks."""
    try:
        return f(*args)
    except InvalidSpace as exc:
        return ("InvalidSpace", str(exc))


RATIONALS = st.builds(Fraction, st.integers(1, 24), st.sampled_from((1, 2, 3, 6, 7)))


@st.composite
def symmetric_matrices(draw, max_n=7):
    """Zero-diagonal symmetric matrices of positive rationals, 0..max_n points."""
    n = draw(st.integers(0, max_n))
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(RATIONALS)
    if draw(st.booleans()):  # repair to a metric so passing scans occur too
        for k, i, j in itertools.product(range(n), repeat=3):
            d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


@st.composite
def partial_graphs(draw, max_n=7, min_n=0):
    """Partial labellings, disconnected and inconsistent ones included."""
    n = draw(st.integers(min_n, max_n))
    g = EdgeLabelledGraph(n)
    for i, j in itertools.combinations(range(n), 2):
        v = draw(st.one_of(st.none(), RATIONALS))
        if v is not None:
            g.set_label(i, j, v)
    return g


@st.composite
def int_label_dicts(draw, max_n=12):
    """(n, labels, cap) as _path_closure takes them: int labels in 1..cap,
    often at cap, on 0..max_n points; half the draws lay a spanning path
    first, so connected and disconnected graphs both occur."""
    n = draw(st.integers(0, max_n))
    cap = draw(st.integers(1, 30))
    label = st.one_of(st.just(cap), st.integers(1, cap))
    labels = {}
    if draw(st.booleans()):
        for i in range(n - 1):
            labels[i, i + 1] = draw(label)
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.integers(0, 3)) == 0:
            labels[i, j] = draw(label)
    return n, labels, cap


@st.composite
def sparse_graphs(draw, max_n=9):
    """Graphs on 0..max_n points with few labelled pairs, so isolated points
    and several components are common."""
    n = draw(st.integers(0, max_n))
    g = EdgeLabelledGraph(n)
    if n >= 2:
        point = st.integers(0, n - 1)
        for i, j in draw(st.lists(st.tuples(point, point), max_size=n)):
            if i != j:
                g.set_label(i, j, 1)
    return g


def _triple_outcomes(d):
    """Every verdict the triple scan serves, for one matrix."""
    x = FiniteMetricSpace._from_rows(tuple(map(tuple, d)))
    g = EdgeLabelledGraph.from_space(x)
    return (
        _outcome(lambda: FiniteMetricSpace(d).d),
        x.is_ultrametric(),
        validate(g, "metric"),
        validate(g, "ultrametric"),
    )


def _reference_triple_outcomes(d):
    metric = _reference_violating_triple(d, "metric")
    ultra = _reference_violating_triple(d, "ultrametric")
    built = (
        tuple(tuple(row) for row in d) if metric is None
        else ("InvalidSpace", "triangle inequality fails on ({},{},{})".format(*metric))
    )
    return built, ultra is None, (metric is None, metric), (ultra is None, ultra)


def _reference_simple_paths(g, start, end, max_size):
    """Simple paths from start to end along labelled pairs, each step trying
    every point in ascending order and asking g for the label."""

    def walk(path):
        cur = path[-1]
        if cur == end and len(path) > 1:
            yield tuple(path)
            return
        if len(path) >= max_size:
            return
        for nxt in range(g.n):
            if nxt not in path and g.label(cur, nxt) is not None:
                path.append(nxt)
                yield from walk(path)
                path.pop()

    yield from walk([start])


def _reference_validate(g, mode, l=None):
    """validate on the reference walk, every pair's simple paths sorted before the l-metric scan."""
    if mode in ("metric", "ultrametric"):
        if not g.is_total():
            raise InvalidSpace("incomplete labelling in a total mode")
        d = [
            [Fraction(0) if i == j else g.label(i, j) for j in range(g.n)]
            for i in range(g.n)
        ]
        bad = _violating_triple(d, operator.add if mode == "metric" else max)
        return bad is None, bad
    if mode == "l-metric":
        if l is None or l < 1:
            raise InvalidSpace("l-metric mode needs a positive l")
        for (i, j) in g.labelled_pairs():
            lam = g.label(i, j)
            for path in sorted(_reference_simple_paths(g, i, j, l)):
                length = sum(
                    g.label(path[t], path[t + 1]) for t in range(len(path) - 1)
                )
                if lam > length:
                    return False, path
        return True, None
    raise InvalidSpace(f"unknown mode {mode!r}")


# --- reference searches: the Fraction backtrackers the matcher replaced -------

def _reference_isometries(x, config=Config()):
    """All distance-preserving permutations of x, by pruned backtracking."""
    if x.n > config.iso_bound:
        raise SearchTooLarge(f"isometry search too large: n={x.n} > {config.iso_bound}")
    n, d = x.n, x.d
    found = []

    def extend(img, used):
        i = len(img)
        if i == n:
            found.append(tuple(img))
            return
        for cand in range(n):
            if cand in used:
                continue
            if all(d[i][j] == d[cand][img[j]] for j in range(i)):
                img.append(cand)
                used.add(cand)
                extend(img, used)
                img.pop()
                used.remove(cand)

    extend([], set())
    return found


def _reference_copies(y, x, config=Config()):
    """All point subsets of y isometric to x, as sorted index tuples."""
    if y.n > config.copies_bound:
        raise SearchTooLarge(f"copy search too large: n={y.n} > {config.copies_bound}")
    if x.n > y.n:
        return []
    out = set()

    def extend(img, used):
        i = len(img)
        if i == x.n:
            out.add(tuple(sorted(img)))
            return
        for cand in range(y.n):
            if cand in used:
                continue
            if all(x.d[i][j] == y.d[cand][img[j]] for j in range(i)):
                img.append(cand)
                used.add(cand)
                extend(img, used)
                img.pop()
                used.remove(cand)

    extend([], set())
    return sorted(out)


def _reference_canonicalize(x, config=Config()):
    """The lexicographically least distance matrix, by a full scan of the orders."""
    if x.n > config.canon_bound:
        raise SearchTooLarge(
            f"canonicalization too large: n={x.n} > {config.canon_bound}"
        )
    n, d = x.n, x.d
    best = {"flat": None, "order": None}

    def extend(order, flat):
        i = len(order)
        if best["flat"] is not None:
            k = len(flat)
            prefix = best["flat"][:k]
            if tuple(flat) > prefix:
                return
        if i == n:
            key = tuple(flat)
            if best["flat"] is None or key < best["flat"]:
                best["flat"] = key
                best["order"] = tuple(order)
            return
        for cand in range(n):
            if cand in order:
                continue
            row = [d[order[j]][cand] for j in range(i)]
            order.append(cand)
            extend(order, flat + row)
            order.pop()

    extend([], [])
    order = best["order"]
    canon = FiniteMetricSpace([[d[order[a]][order[b]] for b in range(n)] for a in range(n)])
    return canon, order


# Every assignment from one window [b, 2b] is a metric: no side exceeds 2b.
WINDOW = (Fraction(1), Fraction(7, 6), Fraction(4, 3), Fraction(3, 2), Fraction(5, 3), Fraction(2))


@st.composite
def few_valued_spaces(draw, min_n=1, max_n=8):
    """Metric spaces of min_n..max_n points with 1-3 distance values."""
    n = draw(st.integers(min_n, max_n))
    base = draw(st.sampled_from((Fraction(1), Fraction(1, 2), Fraction(3, 7), 2)))
    values = draw(st.lists(st.sampled_from(WINDOW), min_size=1, max_size=3, unique=True))
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = base * draw(st.sampled_from(values))
    return FiniteMetricSpace(d)


@st.composite
def twin_rich_spaces(draw, max_n=7):
    """Blow-ups of a random base space: each base point becomes a class of
    pairwise twins sharing one inner distance.  The classes are laid out in
    blocks (the last one a twin suffix), interleaved, or as one class (an
    equilateral space).  Every distance is from WINDOW, so each is metric."""
    n = draw(st.integers(0, max_n))
    layout = draw(st.sampled_from(("blocks", "interleaved", "whole")))
    m = 1 if layout == "whole" else draw(st.integers(1, max(n, 1)))
    cls = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    if layout == "blocks":
        cls.sort()
    inner = draw(st.lists(st.sampled_from(WINDOW), min_size=m, max_size=m))
    base = {pair: draw(st.sampled_from(WINDOW)) for pair in itertools.combinations(range(m), 2)}
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        a, b = sorted((cls[i], cls[j]))
        d[i][j] = d[j][i] = inner[a] if a == b else base[a, b]
    return FiniteMetricSpace(d)


def rigid_seven():
    """A 7-point space with a distinct distance on every pair: only the identity."""
    d = [[Fraction(0)] * 7 for _ in range(7)]
    for k, (i, j) in enumerate(itertools.combinations(range(7), 2)):
        d[i][j] = d[j][i] = 1 + Fraction(k, 21)
    return FiniteMetricSpace(d)


EDGE_CASES = {
    "empty": lambda: FiniteMetricSpace([]),
    "single": FiniteMetricSpace.single_point,
    **{f"equilateral-{n}": (lambda n=n: FiniteMetricSpace.equilateral(n, 2)) for n in range(1, 8)},
    "rigid-7": rigid_seven,
}


class TestSearchesMatchReference:
    # the reference scans take ~1 s on an 8-point equilateral space
    @given(few_valued_spaces())
    @settings(max_examples=60, deadline=None)
    def test_isometries_and_order(self, x):
        group = _reference_isometries(x)
        assert isometries(x) == group
        assert isometry_order(x) == len(group)

    @given(twin_rich_spaces())
    @settings(max_examples=150, deadline=None)
    def test_isometries_on_twin_classes(self, x):
        group = _reference_isometries(x)
        assert isometries(x) == group
        assert isometry_order(x) == len(group)

    @pytest.mark.parametrize("name", EDGE_CASES)
    def test_isometries_edge_cases(self, name):
        x = EDGE_CASES[name]()
        assert isometries(x) == _reference_isometries(x)

    @given(few_valued_spaces())
    @settings(max_examples=40, deadline=None)
    def test_canonicalize(self, x):
        canon, order = canonicalize(x)
        ref_canon, ref_order = _reference_canonicalize(x)
        assert (canon.d, order) == (ref_canon.d, ref_order)

    @given(few_valued_spaces(), few_valued_spaces(max_n=4))
    @settings(max_examples=150, deadline=None)
    def test_copies(self, y, x):
        assert copies(y, x) == _reference_copies(y, x)

    @given(few_valued_spaces(min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_copies_of_own_subspaces(self, y):
        for size in range(1, min(y.n, 5) + 1):
            x = y.submetric(range(size))
            assert copies(y, x) == _reference_copies(y, x)

    def test_empty_space(self):
        x = FiniteMetricSpace([])
        assert isometries(x) == _reference_isometries(x) == [()]
        assert isometry_order(x) == 1
        assert canonicalize(x)[1] == _reference_canonicalize(x)[1] == ()
        assert copies(x, x) == _reference_copies(x, x) == [()]

    def test_bounds_match(self):
        x = FiniteMetricSpace.equilateral(4, 1)
        cfg = Config(iso_bound=3, copies_bound=3, canon_bound=3)
        for new, ref in ((isometries, _reference_isometries),
                         (isometry_order, _reference_isometries),
                         (canonicalize, _reference_canonicalize),
                         (lambda y, c: copies(y, y, c), lambda y, c: _reference_copies(y, y, c))):
            with pytest.raises(SearchTooLarge) as got:
                new(x, cfg)
            with pytest.raises(SearchTooLarge) as want:
                ref(x, cfg)
            assert str(got.value) == str(want.value)

    def test_equilateral_ten(self):
        # the full-scan searches took 69 s and 28 s here
        x = FiniteMetricSpace.equilateral(10, Fraction(3, 2))
        assert isometry_order(x) == 3628800
        canon, order = canonicalize(x)
        assert order == tuple(range(10)) and canon == x


class TestKernelsMatchReference:
    @given(symmetric_matrices())
    @settings(max_examples=200, deadline=None)
    def test_triple_scan(self, d):
        assert _triple_outcomes(d) == _reference_triple_outcomes(d)

    def test_triple_scan_small_spaces_exhaustive(self):
        values = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 7))
        for n in range(4):
            pairs = list(itertools.combinations(range(n), 2))
            for assignment in itertools.product(values, repeat=len(pairs)):
                d = [[Fraction(0)] * n for _ in range(n)]
                for (i, j), v in zip(pairs, assignment):
                    d[i][j] = d[j][i] = v
                assert _triple_outcomes(d) == _reference_triple_outcomes(d)

    @given(partial_graphs(), st.sampled_from((None, 1, Fraction(7, 2), 12, 200)))
    @settings(max_examples=200, deadline=None)
    def test_complete(self, g, cap):
        new = _outcome(lambda: complete(g, "sum-cap", cap).d)
        assert new == _outcome(_reference_complete, g, "sum-cap", cap)
        new = _outcome(lambda: complete(g, "max").d)
        assert new == _outcome(_reference_complete, g, "max")

    @given(int_label_dicts(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_path_closure(self, case, add):
        n, labels, cap = case
        join = operator.add if add else max
        assert _path_closure(n, labels, add, cap) == _reference_path_closure(n, labels, join, cap)

    def test_path_closure_edges(self):
        for add, join in ((True, operator.add), (False, max)):
            assert _path_closure(0, {}, add, 5) == [] == _reference_path_closure(0, {}, join, 5)
            assert _path_closure(1, {}, add, -1) == [[0]] == _reference_path_closure(1, {}, join, -1)
            # a label at the cap stays at the cap and extends no path
            labels = {(0, 1): 4, (1, 2): 1}
            assert _path_closure(3, labels, add, 4) == _reference_path_closure(3, labels, join, 4)
        assert complete(EdgeLabelledGraph(1), "sum-cap", -1).d == ((0,),)

    @given(st.one_of(sparse_graphs(), partial_graphs(max_n=9)))
    @settings(max_examples=200, deadline=None)
    def test_is_connected(self, g):
        assert g.is_connected() == _reference_is_connected(g)

    def test_is_connected_small_and_isolated(self):
        assert EdgeLabelledGraph(0).is_connected() and EdgeLabelledGraph(1).is_connected()
        assert not EdgeLabelledGraph(2).is_connected()
        g = EdgeLabelledGraph(4, {(0, 1): 1, (1, 2): 1})  # point 3 is isolated
        assert not g.is_connected() and not _reference_is_connected(g)
        g.set_label(3, 0, 2)
        assert g.is_connected() and _reference_is_connected(g)

    def test_negative_point_count_has_no_connectivity(self):
        with pytest.raises(InvalidSpace, match="a graph needs at least 0 points, got -2"):
            EdgeLabelledGraph(-2).is_connected()


class TestValidate:
    def test_non_metric_triangle_1_1_3(self):
        g = EdgeLabelledGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 3})
        ok, witness = validate(g, "metric")
        assert not ok
        assert witness == (0, 1, 2)

    def test_single_point_vacuous(self):
        ok, witness = validate(EdgeLabelledGraph(1), "metric")
        assert ok and witness is None

    def test_four_cycle_is_3_metric(self):
        # unit 4-cycle with unlabelled diagonals: no short path contradicts a label
        g = EdgeLabelledGraph(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
        ok, witness = validate(g, "l-metric", l=3)
        assert ok and witness is None

    def test_l_metric_catches_bad_triangle(self):
        g = EdgeLabelledGraph(3, {(0, 1): 1, (0, 2): 1, (1, 2): 3})
        ok, witness = validate(g, "l-metric", l=3)
        assert not ok
        assert witness == (1, 0, 2)

    def test_ultrametric_mode(self):
        g = EdgeLabelledGraph(3, {(0, 1): 1, (0, 2): 3, (1, 2): 3})
        ok, _ = validate(g, "ultrametric")
        assert ok
        g2 = EdgeLabelledGraph(3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
        ok2, witness = validate(g2, "ultrametric")
        assert not ok2 and witness == (0, 1, 2)

    @given(partial_graphs(min_n=2), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_l_metric_matches_reference(self, g, l):
        assert validate(g, "l-metric", l) == _reference_validate(g, "l-metric", l)

    @given(partial_graphs(), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_simple_paths_match_the_reference_walk(self, g, l):
        """The walk over sorted neighbour lists lists the same paths, in the
        same order, as the walk over every point; endpoints need no label.
        The labels go in last pair first, so no list comes out sorted by
        insertion alone."""
        pairs = g.labelled_pairs()[::-1]
        adj = EdgeLabelledGraph(g.n, {p: g.label(*p) for p in pairs}).neighbours()
        assert adj == [[j for j in range(g.n) if g.label(i, j) is not None] for i in range(g.n)]
        for i, j in itertools.product(range(g.n), repeat=2):
            assert list(_simple_paths(adj, i, j, l)) == list(_reference_simple_paths(g, i, j, l))

    def test_partial_labelling_rejected_in_total_mode(self):
        g = EdgeLabelledGraph(3, {(0, 1): 1})
        with pytest.raises(InvalidSpace):
            validate(g, "metric")

    def test_label_past_last_point_rejected(self):
        # a label on (0, 5) made a 3-point graph with (0, 2) unlabelled look total
        with pytest.raises(InvalidSpace, match="point 5 out of range for a 3-point space"):
            validate(EdgeLabelledGraph(3, {(0, 5): 1, (0, 1): 1, (1, 2): 1}), "metric")

    def test_negative_point_count_rejected(self):
        with pytest.raises(InvalidSpace, match="a graph needs at least 0 points, got -1"):
            validate(EdgeLabelledGraph(-1), "metric")


class TestComplete:
    def test_two_glued_triangles_match_floyd_warshall(self):
        # two triangles glued on the edge (1,2), integer labels
        g = EdgeLabelledGraph(4)
        labels = {(0, 1): 1, (0, 2): 2, (1, 2): 2, (1, 3): 3, (2, 3): 1}
        for (i, j), v in labels.items():
            g.set_label(i, j, v)
        space = complete(g, "sum-cap", r=100)
        # oracle: brute-force minimum over all simple paths
        def brute(i, j):
            best = None
            for k in range(2, 5):
                for perm in itertools.permutations(range(4), k):
                    if perm[0] != i or perm[-1] != j:
                        continue
                    total = Fraction(0)
                    ok = True
                    for t in range(k - 1):
                        lab = g.label(perm[t], perm[t + 1])
                        if lab is None:
                            ok = False
                            break
                        total += lab
                    if ok and (best is None or total < best):
                        best = total
            return best

        for i in range(4):
            for j in range(i + 1, 4):
                assert space.d[i][j] == brute(i, j)

    def test_complete_is_identity_on_total_metric_graphs(self):
        x = path_space()
        g = EdgeLabelledGraph.from_space(x)
        assert complete(g, "sum-cap", r=10) == x

    def test_max_mode_star(self):
        g = EdgeLabelledGraph(3, {(0, 1): 1, (0, 2): 2})
        space = complete(g, "max")
        assert space.d[1][2] == 2
        assert space.is_ultrametric()

    def test_cap_below_label_rejected(self):
        g = EdgeLabelledGraph(2, {(0, 1): 5})
        with pytest.raises(InvalidSpace):
            complete(g, "sum-cap", r=3)

    def test_cap_refusal_names_first_labelled_pair(self):
        # two labels above the cap, set out of pair order, over denominators 2 and 3
        g = EdgeLabelledGraph(4, {(2, 3): Fraction(11, 3), (0, 1): Fraction(1, 3), (1, 2): Fraction(7, 2)})
        refusal = ("InvalidSpace", "cap 5/2 smaller than label on (1,2)")
        assert _outcome(complete, g, "sum-cap", Fraction(5, 2)) == refusal
        assert _outcome(_reference_complete, g, "sum-cap", Fraction(5, 2)) == refusal

    def test_disconnected_rejected(self):
        g = EdgeLabelledGraph(3, {(0, 1): 1})
        with pytest.raises(InvalidSpace):
            complete(g, "sum-cap", r=3)

    def test_negative_point_label_rejected(self):
        # -1 was read as point 2, which completed to d(0, 2) = 1
        with pytest.raises(InvalidSpace, match="point -1 out of range for a 3-point space"):
            complete(EdgeLabelledGraph(3, {(-1, 0): 1, (0, 1): 1}), "sum-cap", 5)

    def test_negative_point_count_rejected(self):
        with pytest.raises(InvalidSpace, match="a graph needs at least 0 points, got -1"):
            complete(EdgeLabelledGraph(-1), "max")

    def test_labels_preserved_exhaustively_small(self):
        # every metric graph on 4 points with labels in {1..3} round-trips
        rng = random.Random(7)
        for _ in range(50):
            n = 4
            g = EdgeLabelledGraph(n)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        g.set_label(i, j, rng.randint(1, 3))
            if not g.is_connected():
                continue
            try:
                space = complete(g, "sum-cap", r=6)
            except InvalidSpace:
                continue  # labelling was not metric-consistent
            for (i, j) in g.labelled_pairs():
                assert space.d[i][j] == g.label(i, j)

    def test_labels_preserved_exhaustive_universe(self):
        # every partial labelling of 4 points over {1,2} and {1,2,3}: whenever
        # the completion accepts the graph, the labels round-trip exactly
        for alphabet in ((1, 2), (1, 2, 3)):
            choices = (None,) + alphabet
            pairs = list(itertools.combinations(range(4), 2))
            completed = rejected = 0
            for assignment in itertools.product(choices, repeat=len(pairs)):
                g = EdgeLabelledGraph(4)
                for (i, j), v in zip(pairs, assignment):
                    if v is not None:
                        g.set_label(i, j, v)
                if not g.is_connected():
                    continue
                try:
                    space = complete(g, "sum-cap", r=max(alphabet) * 4)
                except InvalidSpace:
                    rejected += 1
                    continue
                completed += 1
                for (i, j) in g.labelled_pairs():
                    assert space.d[i][j] == g.label(i, j)
            assert completed > 100
            # over {1,2} no labelling is inconsistent (2-edge paths sum to 2);
            # the 1,1,3 shortcut appears once 3 joins the alphabet
            assert (rejected > 0) == (3 in alphabet)

    def test_max_mode_matches_brute_minimax(self):
        rng = random.Random(17)
        trials = 0
        while trials < 25:
            n = rng.randint(2, 5)
            g = EdgeLabelledGraph(n)
            for i in range(1, n):
                g.set_label(i - 1, i, rng.choice([1, 2, 4, 8]))
            for i in range(n):
                for j in range(i + 2, n):
                    if rng.random() < 0.4:
                        g.set_label(i, j, rng.choice([1, 2, 4, 8]))
            try:
                space = complete(g, "max")
            except InvalidSpace:
                continue
            for a in range(n):
                for b in range(a + 1, n):
                    best = None
                    for k in range(2, n + 1):
                        for perm in itertools.permutations(range(n), k):
                            if perm[0] != a or perm[-1] != b:
                                continue
                            widths = [
                                g.label(perm[s], perm[s + 1]) for s in range(k - 1)
                            ]
                            if any(w is None for w in widths):
                                continue
                            bottleneck = max(widths)
                            if best is None or bottleneck < best:
                                best = bottleneck
                    assert space.d[a][b] == best
            trials += 1

    def test_max_mode_output_is_ultrametric(self):
        rng = random.Random(3)
        for _ in range(30):
            g = EdgeLabelledGraph(5)
            for i in range(5):
                for j in range(i + 1, 5):
                    if rng.random() < 0.6:
                        g.set_label(i, j, rng.choice([1, 2, 4]))
            if not g.is_connected():
                continue
            try:
                space = complete(g, "max")
            except InvalidSpace:
                continue
            assert space.is_ultrametric()
            # every triangle is isosceles with the two largest sides equal
            for i, j, k in itertools.combinations(range(5), 3):
                sides = sorted([space.d[i][j], space.d[i][k], space.d[j][k]])
                assert sides[1] == sides[2]


class TestIsometries:
    def test_equilateral_full_symmetric_group(self):
        x = FiniteMetricSpace.equilateral(3, 1)
        assert len(isometries(x)) == 6

    def test_scalene_triangle_is_rigid(self):
        x = FiniteMetricSpace([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        assert isometries(x) == [(0, 1, 2)]

    def test_binary_ultrametric_tree_order_8(self):
        # 2x2 grid ultrametric: within-pair 1, across 3
        x = FiniteMetricSpace(
            [[0, 1, 3, 3], [1, 0, 3, 3], [3, 3, 0, 1], [3, 3, 1, 0]]
        )
        assert len(isometries(x)) == 8

    def test_group_closure_and_divisibility(self):
        rng = random.Random(11)
        for _ in range(10):
            x = random_metric_space(rng, 5)
            group = isometries(x)
            perms = set(group)
            assert tuple(range(5)) in perms
            fact = 120
            assert fact % len(group) == 0
            for g1 in group:
                assert tuple(g1.index(i) for i in range(5)) in perms  # inverse
            g1, g2 = group[0], group[-1]
            assert tuple(g1[g2[i]] for i in range(5)) in perms  # composition

    def test_bound_enforced(self):
        x = FiniteMetricSpace.equilateral(4, 1)
        with pytest.raises(SearchTooLarge):
            isometries(x, Config(iso_bound=3))


class TestCopies:
    def test_self_copy(self):
        x = FiniteMetricSpace([[0, 2, 3], [2, 0, 4], [3, 4, 0]])
        assert copies(x, x) == [(0, 1, 2)]

    def test_equilateral_pairs(self):
        y = FiniteMetricSpace.equilateral(4, 1)
        x = FiniteMetricSpace.equilateral(2, 1)
        assert len(copies(y, x)) == 6

    def test_five_cycle_triangles(self):
        # path metric of the 5-cycle: distances 1 and 2
        g = EdgeLabelledGraph(5)
        for i in range(5):
            g.set_label(i, (i + 1) % 5, 1)
        y = complete(g, "sum-cap", r=10)
        x = FiniteMetricSpace([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        # triangles (1,1,2) in C5: exactly the 5 consecutive point triples
        expected = sorted(tuple(sorted(((i) % 5, (i + 1) % 5, (i + 2) % 5))) for i in range(5))
        assert copies(y, x) == expected

    def test_count_invariant_under_relabelling(self):
        rng = random.Random(5)
        y = random_metric_space(rng, 6)
        x = y.submetric([0, 2, 4])
        base = len(copies(y, x))
        for _ in range(5):
            perm = list(range(6))
            rng.shuffle(perm)
            y2 = FiniteMetricSpace(
                [[y.d[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
            )
            assert len(copies(y2, x)) == base


class TestCanonicalize:
    def test_random_relabellings_share_canonical_form(self):
        rng = random.Random(23)
        x = random_metric_space(rng, 6)
        key = canonical_key(x)
        for _ in range(100):
            perm = list(range(6))
            rng.shuffle(perm)
            x2 = FiniteMetricSpace(
                [[x.d[perm[i]][perm[j]] for j in range(6)] for i in range(6)]
            )
            assert canonical_key(x2) == key

    def test_distinct_spaces_distinct_forms(self):
        a = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        b = FiniteMetricSpace([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        assert canonical_key(a) != canonical_key(b)

    def test_canonical_form_is_isometric_to_input(self):
        x = path_space()
        canon, order = canonicalize(x)
        assert sorted(order) == [0, 1, 2]
        assert canon.distances() == x.distances()
        assert len(copies(canon, x)) >= 1


class TestDistanceSet:
    def test_empty_space_named(self):
        with pytest.raises(InvalidSpace, match="^the empty space has an empty distance set$"):
            FiniteMetricSpace([]).distance_set()

    def test_one_point_message_kept(self):
        with pytest.raises(InvalidSpace, match="^one-point space has an empty distance set$"):
            FiniteMetricSpace.single_point().distance_set()


class TestConstructor:
    @pytest.mark.parametrize("rows, message", [
        ([[0, 1]], "distance matrix must be square"),
        ([[0, 1], [1, 2]], "d(1,1) = 2 != 0"),
        ([[0, 1], [2, 0]], "d(0,1) != d(1,0)"),
        ([[0, 0], [0, 0]], "d(0,1) = 0 must be positive"),
        ([[0, -1], [-1, 0]], "d(0,1) = -1 must be positive"),
        ([[0, 1, 3], [1, 0, 1], [3, 1, 0]], "triangle inequality fails on (0,1,2)"),
    ])
    def test_every_call_is_checked(self, rows, message):
        # the check keyword is ignored: False refuses what True refuses
        for check in (True, False):
            with pytest.raises(InvalidSpace) as err:
                FiniteMetricSpace(rows, check=check)
            assert str(err.value) == message


class TestFormats:
    def test_text_round_trip(self):
        x = FiniteMetricSpace([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])
        assert space_from_text(space_to_text(x)) == x

    def test_json_round_trip_bit_exact(self):
        x = path_space()
        assert space_from_json(space_to_json(x)) == x

    def test_graph_text_round_trip_with_unlabelled(self):
        g = EdgeLabelledGraph(3, {(0, 1): Fraction(5, 3)})
        g2 = graph_from_text(graph_to_text(g))
        assert g2.label(0, 1) == Fraction(5, 3)
        assert g2.label(0, 2) is None

    def test_comments_and_integers(self):
        text = "# a path\npoints: 2\n0 7/2\n7/2 0\n"
        x = space_from_text(text)
        assert x.d[0][1] == Fraction(7, 2)

    def test_float_rejected(self):
        with pytest.raises(InvalidSpace):
            FiniteMetricSpace([[0, 1.5], [1.5, 0]])

    def test_bad_literal_rejected(self):
        message = r"^Invalid literal for Fraction: 'abc'$"
        with pytest.raises(InvalidSpace, match=message):
            space_from_text("points: 2\n0 abc\nabc 0\n")
        with pytest.raises(InvalidSpace, match=message):
            graph_from_text("points: 2\n0 abc\nabc 0\n")
        with pytest.raises(InvalidSpace, match=message):
            space_from_json('{"points": 2, "rows": [[0, "abc"], ["abc", 0]]}')

    @pytest.mark.parametrize("text", ["1/0", "0/0", " -3/0 "])
    def test_zero_denominator_rejected(self, text):
        with pytest.raises(InvalidSpace, match="zero denominator"):
            as_fraction(text)
        with pytest.raises(InvalidSpace, match="zero denominator"):
            space_from_json(f'{{"points": 2, "rows": [[0, "{text}"], ["{text}", 0]]}}')

    def test_one_sided_label_rejected(self):
        with pytest.raises(InvalidSpace, match="one side only"):
            graph_from_text("points: 2\n0 1\n? 0\n")

    def test_asymmetric_values_rejected(self):
        with pytest.raises(InvalidSpace, match="asymmetric"):
            graph_from_text("points: 2\n0 1\n2 0\n")

    @pytest.mark.parametrize("text", [
        '{"points": 1, "rows": 5}', '{"points": 1, "rows": [5]}', "5", "null",
        '[[0]]', '{"points": 1, "rows": {"0": 0}}',
    ])
    def test_malformed_json_shapes_rejected(self, text):
        with pytest.raises(InvalidSpace, match="^bad JSON space payload$"):
            space_from_json(text)

    def test_json_float_not_merged_with_its_int(self):
        with pytest.raises(InvalidSpace, match=r"^float distance 1\.0 not allowed"):
            space_from_json('{"points": 2, "rows": [[0, 1], [1.0, 0]]}')
        with pytest.raises(InvalidSpace, match=r"^float distance 1\.0 not allowed"):
            space_from_json('{"points": 2, "rows": [[0, "1"], [1.0, 0]]}')

    def test_json_unhashable_entry_not_interpreted(self):
        with pytest.raises(InvalidSpace, match=r"^cannot interpret \[1\] as a rational$"):
            space_from_json('{"points": 2, "rows": [[0, 1], [[1], 0]]}')

    def test_first_bad_token_in_row_major_order_names_the_error(self):
        text = "points: 3\n0 1 1/0\n1 0 2/0\n1/0 2/0 0\n"
        with pytest.raises(InvalidSpace, match="^zero denominator in '1/0'$"):
            space_from_text(text)
        text = "points: 3\n0 1 2/0\n1 0 1/0\n2/0 1/0 0\n"
        with pytest.raises(InvalidSpace, match="^zero denominator in '2/0'$"):
            space_from_text(text)
        js = '{"points": 2, "rows": [[0, "3/0"], [1.5, 0]]}'
        with pytest.raises(InvalidSpace, match="^zero denominator in '3/0'$"):
            space_from_json(js)
        js = '{"points": 2, "rows": [[0, 1.5], ["3/0", 0]]}'
        with pytest.raises(InvalidSpace, match=r"^float distance 1\.5 not allowed"):
            space_from_json(js)
        with pytest.raises(InvalidSpace, match="^zero denominator in '2/0'$"):
            graph_from_text("points: 3\n0 2/0 ?\n2/0 0 1/0\n? 1/0 0\n")

    def test_graph_messages_unchanged(self):
        with pytest.raises(InvalidSpace, match=r"^pair \(1,2\) labelled on one side only$"):
            graph_from_text("points: 3\n0 1 1\n1 0 ?\n1 2 0\n")
        with pytest.raises(InvalidSpace, match=r"^asymmetric labels on \(1,2\)$"):
            graph_from_text("points: 3\n0 1 2\n1 0 1\n2 2 0\n")
        g = graph_from_text("points: 3\n0 1/2 2/4\n2/4 0 ?\n1/2 ? 0\n")
        assert g.labelled_pairs() == [(0, 1), (0, 2)]
        assert g.label(0, 1) == g.label(0, 2) == Fraction(1, 2)

    def test_repeated_tokens_parse_to_equal_values(self):
        x = space_from_text("points: 3\n0 7/2 7/2\n7/2 0 7/2\n7/2 7/2 0\n")
        assert x == FiniteMetricSpace.equilateral(3, Fraction(7, 2))
        assert all(type(v) is Fraction for row in x.d for v in row)
        assert space_from_json(space_to_json(x)) == x

    def test_ragged_row_rejected(self):
        with pytest.raises(InvalidSpace, match="row 1 has 2 entries"):
            graph_from_text("points: 3\n0 1 1\n1 0\n1 1 0\n")
