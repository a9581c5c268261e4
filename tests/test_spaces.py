import itertools
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
    canonical_key,
    canonicalize,
    complete,
    copies,
    format_fraction,
    graph_from_text,
    graph_to_text,
    isometries,
    space_from_json,
    space_from_text,
    space_to_json,
    space_to_text,
    validate,
)


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


def _reference_complete(g, mode, r=None):
    if not g.is_connected():
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
def partial_graphs(draw, max_n=7):
    """Partial labellings, disconnected and inconsistent ones included."""
    n = draw(st.integers(0, max_n))
    g = EdgeLabelledGraph(n)
    for i, j in itertools.combinations(range(n), 2):
        v = draw(st.one_of(st.none(), RATIONALS))
        if v is not None:
            g.set_label(i, j, v)
    return g


def _triple_outcomes(d):
    """Every verdict the triple scan serves, for one matrix."""
    g = EdgeLabelledGraph.from_space(FiniteMetricSpace(d, check=False))
    return (
        _outcome(lambda: FiniteMetricSpace(d).d),
        FiniteMetricSpace(d, check=False).is_ultrametric(),
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

    def test_partial_labelling_rejected_in_total_mode(self):
        g = EdgeLabelledGraph(3, {(0, 1): 1})
        with pytest.raises(InvalidSpace):
            validate(g, "metric")


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

    def test_disconnected_rejected(self):
        g = EdgeLabelledGraph(3, {(0, 1): 1})
        with pytest.raises(InvalidSpace):
            complete(g, "sum-cap", r=3)

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

    def test_one_sided_label_rejected(self):
        with pytest.raises(InvalidSpace, match="one side only"):
            graph_from_text("points: 2\n0 1\n? 0\n")

    def test_asymmetric_values_rejected(self):
        with pytest.raises(InvalidSpace, match="asymmetric"):
            graph_from_text("points: 2\n0 1\n2 0\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(InvalidSpace, match="row 1 has 2 entries"):
            graph_from_text("points: 3\n0 1 1\n1 0\n1 1 0\n")
