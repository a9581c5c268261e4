import contextlib
import functools
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finmetric import milliken
from finmetric.milliken import (
    VARIANTS,
    MillikenSpace,
    _case_lookup,
    _point_count,
    _relation,
    _relation_patterns,
    _triangle_witness,
    _type_verdict,
    admissible_points,
    coding_distance,
    coding_embed,
    coding_points,
    load_variant,
    milliken_space,
    nodes_up_to,
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


def _reference_standard_edge(a, b) -> bool:
    """Standard graph structure: heights differ, taller has digit 1 at |shorter|."""
    if len(a) == len(b):
        return False
    short, tall = (a, b) if len(a) < len(b) else (b, a)
    return tall[len(short)] == 1


def _reference_taller_digit(a, b):
    """Digit of the taller string at the shorter one's height; None for equal heights."""
    if len(a) == len(b):
        return None
    short, tall = (a, b) if len(a) < len(b) else (b, a)
    return tall[len(short)]


def _reference_condition_holds(cond: dict, p, q, invert_membership=False) -> bool:
    s_equal = p[0] == q[0]
    if invert_membership:
        s_equal = not s_equal
    for key, want in cond.items():
        if key == "s_equal":
            got = s_equal
        elif key == "t_equal":
            got = p[1] == q[1]
        elif key == "t_edge":
            got = _reference_standard_edge(p[1], q[1])
        elif key == "s_edge":
            got = _reference_standard_edge(p[0], q[0])
        elif key == "u_edge":
            got = _reference_standard_edge(p[2], q[2])
        elif key == "t_digit":
            digit = _reference_taller_digit(p[1], q[1])
            got = (0 if digit is None else digit)  # equal heights default to 0
            if got != want:
                return False
            continue
        else:
            raise InvalidSpace(f"unknown condition key {key!r}")
        if got != want:
            return False
    return True


def _reference_case_value(variant, p, q, invert_membership=False) -> int:
    """The case table interpreted afresh for one pair, condition by condition."""
    for cond, value in variant.cases:
        if _reference_condition_holds(cond, p, q, invert_membership):
            return value
    raise InvalidSpace(f"case table does not cover the pair {p!r}, {q!r}")


def _reference_triangle_witness(d):
    """The pivot-by-pivot slack scan: at the first pivot k with a negative
    slack d(i, k) + d(k, j) - d(i, j), the row-major first argmin, sorted."""
    n = len(d)
    for k in range(n):
        slack = [[d[i][k] + d[k][j] - d[i][j] for j in range(n)] for i in range(n)]
        flat = [v for row in slack for v in row]
        if min(flat) < 0:
            i, j = divmod(flat.index(min(flat)), n)
            return tuple(sorted((i, j, k)))
    return None


def _reference_lex_less(a, b) -> bool:
    """Lexicographic with prefixes first: a < b when a extends to b or differs low."""
    if a == b:
        return False
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) < len(b)


def _reference_admissible_points(variant, depth: int) -> list:
    """The subset used for embeddings: increasing heights, low digits zeroed.

    Pairs: |s| < |t|, s lex-below t, t(|s|) = 0.  Triples additionally zero
    u at both lower heights.  For '26712' the lex clause is dropped: its
    s-components must carry 1-digits to encode the far distance, which is
    incompatible with the all-zeros trick that guarantees the lex order.
    """
    nodes = nodes_up_to(variant.alphabet, depth)
    out = []
    if variant.tuple_size == 2:
        for s, t in itertools.permutations(nodes, 2):
            if len(s) >= len(t):
                continue
            if t[len(s)] != 0:
                continue
            if variant.name != "26712" and not _reference_lex_less(s, t):
                continue
            out.append((s, t))
    else:
        for s, t, u in itertools.permutations(nodes, 3):
            if not (len(s) < len(t) < len(u)):
                continue
            if t[len(s)] != 0 or u[len(s)] != 0 or u[len(t)] != 0:
                continue
            if not (_reference_lex_less(s, t) and _reference_lex_less(t, u)):
                continue
            out.append((s, t, u))
    return sorted(out, key=lambda p: tuple((len(c), c) for c in p))


def _reference_coding_embed(
    name: str,
    depth: int,
    target: FiniteMetricSpace,
    max_candidates: int = 20000,
):
    """Embed a small target space into the coding's admissible subset.

    Complete backtracking in greedy height-increasing order: candidates are
    scanned lowest-components-first, so when the classical greedy assignment
    fits within the depth it is found first; failure means no embedding
    exists at this depth.  Returns the list of chosen coding points or None.
    """
    variant = load_variant(name)
    if target.n > 6:
        raise SearchTooLarge("embedding targets are capped at 6 points")
    for v in target.distances():
        if v not in variant.distance_set:
            raise InvalidSpace(f"target distance {v} outside the variant's set")
    candidates = admissible_points(variant, depth)
    if len(candidates) > max_candidates:
        raise SearchTooLarge(
            f"admissible subset too large: {len(candidates)} > {max_candidates}"
        )

    # place tightly-linked target points consecutively: component reuse is
    # then forced early and the backtracking prunes hard
    order = [0] if target.n else []
    while len(order) < target.n:
        rest = [p for p in range(target.n) if p not in order]
        order.append(min(rest, key=lambda p: min(target.d[p][q] for q in order)))
    reordered = target.submetric(order)

    lookup = _case_lookup(name)
    want = [[int(v) for v in row] for row in reordered.d]
    chosen: list = []

    def extend(i: int) -> bool:
        if i == reordered.n:
            return True
        for cand in candidates:
            if cand in chosen:
                continue
            if all(lookup[tuple(map(_relation, cand, chosen[j]))] == want[i][j] for j in range(i)):
                chosen.append(cand)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    result = [None] * target.n
    for slot, point in enumerate(order):
        result[point] = chosen[slot]
    return result


def _reference_milliken_space(
    name: str,
    depth: int,
    invert_membership: bool = False,
    check: str = "exhaustive",
    samples: int = 200_000,
    seed: int = 0,
    max_points: int = 800,
) -> MillikenSpace:
    """Build the coding space at the given depth and check metricity.

    Every pair's relation tuple is read afresh; the exhaustive check scans
    the whole int matrix on bitsets, and the sampled one draws its triangles,
    whatever the case table.
    """
    variant = load_variant(name)
    n = math.comb(len(nodes_up_to(variant.alphabet, depth)), variant.tuple_size)
    if check == "exhaustive" and n > max_points:
        raise SearchTooLarge(
            f"exhaustive metric check too large: {n} points > {max_points}; "
            "use check='sampled'"
        )
    points = coding_points(variant, depth)
    lookup = _case_lookup(name, invert_membership)
    witness = None
    space = None

    def dist(i, j):
        return lookup[tuple(map(_relation, points[i], points[j]))]

    if check == "exhaustive":
        dmat = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            dmat[i][j] = dmat[j][i] = dist(i, j)
        witness = _triangle_witness(dmat)
        if witness is None:
            shared = {v: Fraction(v) for v in {0, *lookup.values()}}
            # proved metric by the witness scan just above
            space = FiniteMetricSpace._from_rows(tuple(tuple(shared[v] for v in row) for row in dmat))
    elif check == "sampled":
        if samples < 1:
            raise InvalidSpace(f"need at least 1 sample, got {samples}")
        rng = random.Random(seed)
        for _ in range(samples if n >= 3 else 0):
            i, j, k = rng.sample(range(n), 3)
            a, b, c = dist(i, j), dist(i, k), dist(j, k)
            if a > b + c or b > a + c or c > a + b:
                witness = tuple(sorted((i, j, k)))
                break
    else:
        raise InvalidSpace(f"unknown check mode {check!r}")

    return MillikenSpace(variant, depth, points, space, witness is None, witness)


def _reference_type_verdict(lookup: dict, patterns: set, size: int) -> bool:
    """Every product of the relation patterns over distinct points is a triangle."""
    for slots in itertools.product(patterns, repeat=size):
        pairs = list(zip(*slots))
        if (0,) * size not in pairs:
            a, b, c = (lookup[p] for p in pairs)
            if max(a, b, c) * 2 > a + b + c:
                return False
    return True


def _runnable_depths(name: str) -> list:
    """The depths whose coding space has at most 800 points, the exhaustive cap."""
    variant = load_variant(name)
    depths = []
    while math.comb(len(nodes_up_to(variant.alphabet, len(depths))), variant.tuple_size) <= 800:
        depths.append(len(depths))
    return depths


@functools.cache
def _reference_build(name: str, depth: int, invert: bool) -> MillikenSpace:
    return _reference_milliken_space(name, depth, invert_membership=invert)


def _fields(ms: MillikenSpace) -> tuple:
    return ms.variant, ms.depth, ms.points, ms.space and ms.space.d, ms.metric, ms.witness


@st.composite
def int_matrices(draw):
    """Symmetric zero-diagonal matrices on 3-9 points over 1-4 values from 1..8."""
    n = draw(st.integers(3, 9))
    values = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True))
    d = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(st.sampled_from(values))
    return d


class TestPlumbing:
    def test_node_order_extends_tree_order(self):
        nodes = nodes_up_to(2, 3)
        assert nodes[0] == ()
        index = {a: i for i, a in enumerate(nodes)}
        for b in nodes:
            for j in range(len(b)):
                assert index[b[:j]] < index[b]  # every proper prefix comes first

    def test_standard_edge(self):
        # a standard edge: heights differ, the taller node has digit 1 at the
        # shorter one's height; the case tables read it as relation 2
        assert _relation((0,), (1, 1)) == 2
        assert _relation((0,), (1, 0)) != 2
        assert _relation((0, 1), (1, 0)) != 2  # equal heights never connect
        assert _relation((1, 1, 0), (1,)) == _relation((1,), (1, 1, 0)) == 2

    def test_lex_less_prefix_first(self):
        # the order behind the admissible points' s < t is the tuple order
        assert () < (0,) < (0, 1) < (1,)
        nodes = nodes_up_to(3, 3)
        for a, b in itertools.product(nodes, repeat=2):
            assert _reference_lex_less(a, b) == (a < b)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidSpace):
            load_variant("999")

    @pytest.mark.parametrize("p, q", [
        (((), (2,)), ((0,), ())),  # digit outside the binary alphabet
        (((), (0,), (1,)), ((), (0,), (0, 0))),  # a triple for a pair coding
    ])
    def test_foreign_points_rejected(self, p, q):
        with pytest.raises(InvalidSpace):
            coding_distance(load_variant("134"), p, q)


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
        # depth 0 has no point and 1378 has one at depth 1: no triangle to draw
        for name, depth in itertools.product(VARIANTS, [0, 1]):
            exact = milliken_space(name, depth)
            sampled = milliken_space(name, depth, check="sampled", samples=50, seed=0)
            assert (sampled.metric, sampled.witness) == (exact.metric, exact.witness) == (True, None)

    @pytest.mark.parametrize("depth, witnesses", [
        (2, {"134": (0, 6, 7), "2379": (0, 8, 10), "2678": (0, 12, 16),
             "26712": (0, 6, 8), "1378": (0, 15, 16)}),
        (3, {"134": (0, 14, 15), "2379": (0, 16, 18), "2678": (0, 39, 43),
             "26712": (0, 14, 16), "1378": (0, 91, 92)}),
    ])
    def test_inverted_witnesses_pinned(self, depth, witnesses):
        for name, witness in witnesses.items():
            ms = milliken_space(name, depth, invert_membership=True)
            assert (ms.metric, ms.witness, ms.space) == (False, witness, None)

    def test_budget_enforced(self):
        with pytest.raises(SearchTooLarge):
            milliken_space("1378", 4)

    def test_budget_enforced_before_listing_points(self):
        # 9,841 nodes give 48,417,720 pairs, refused without being listed
        with pytest.raises(SearchTooLarge, match="48417720 points > 800"):
            milliken_space("2678", 8)

    @pytest.mark.parametrize("kwargs, error, message", [
        (dict(name="134", depth=12, check="sampled", samples=1),
         SearchTooLarge, "sampled metric check too large: 33542145 points > 4194304"),
        (dict(name="134", depth=10**9, check="sampled"),
         SearchTooLarge, "sampled metric check too large: more than 4194304 points"),
        (dict(name="26712", depth=99, invert_membership=True, check="sampled", samples=0),
         InvalidSpace, "need at least 1 sample, got 0"),
        (dict(name="26712", depth=99, check="fast"), InvalidSpace, "unknown check mode 'fast'"),
    ])
    def test_sampled_build_refused_before_listing_points(self, monkeypatch, kwargs, error, message):
        # the mode, then samples, then the point count against the sampled
        # cap are checked before any point is listed
        def listed(*args):
            raise AssertionError("points listed")

        monkeypatch.setattr(milliken, "coding_points", listed)
        with pytest.raises(error) as refused:
            milliken_space(**kwargs)
        assert str(refused.value) == message

    def test_sampled_cap_admits_its_own_count(self, monkeypatch):
        n = _point_count(load_variant("2678"), 3)
        monkeypatch.setitem(milliken._MAX_POINTS, "sampled", n)
        assert milliken_space("2678", 3, check="sampled", samples=1).space is None
        monkeypatch.setitem(milliken._MAX_POINTS, "sampled", n - 1)
        with pytest.raises(SearchTooLarge, match=f"{n} points > {n - 1}"):
            milliken_space("2678", 3, check="sampled", samples=1)

    @pytest.mark.parametrize("name", VARIANTS)
    def test_point_count_reckoned_exactly_while_formattable(self, name):
        # the count is given exactly wherever Python can format it, and
        # refused unreckoned past that
        v = load_variant(name)
        limit = sys.get_int_max_str_digits() or 4300
        edge = int(limit / (v.tuple_size * math.log10(v.alphabet)))
        for depth in [*range(-1, 6), *range(edge - 6, edge + 6)]:
            n = math.comb((v.alphabet ** max(depth + 1, 0) - 1) // (v.alphabet - 1), v.tuple_size)
            try:
                text = str(n)
            except ValueError:
                text = None
            assert _point_count(v, depth) == (None if text is None else n)
            if n > 800:
                with pytest.raises(SearchTooLarge) as refused:
                    milliken_space(name, depth)
                count = "more than 800 points" if text is None else f"{text} points > 800"
                assert str(refused.value) == (
                    f"exhaustive metric check too large: {count}; use check='sampled'")


class TestTypeVerdict:
    @pytest.mark.parametrize("name", VARIANTS)
    @pytest.mark.parametrize("invert", [False, True])
    def test_exhaustive_build_matches_reference(self, name, invert):
        for depth in _runnable_depths(name):
            got = milliken_space(name, depth, invert_membership=invert)
            assert _fields(got) == _fields(_reference_build(name, depth, invert)), depth

    @pytest.mark.parametrize("name", VARIANTS)
    @pytest.mark.parametrize("invert", [False, True])
    def test_sampled_build_matches_reference(self, name, invert):
        # inverted builds still draw; the reference draws for every build
        for depth, seed in itertools.product([2, 3], range(4)):
            kwargs = dict(invert_membership=invert, check="sampled", samples=2000, seed=seed)
            got = milliken_space(name, depth, **kwargs)
            assert _fields(got) == _fields(_reference_milliken_space(name, depth, **kwargs))

    @pytest.mark.parametrize("name", VARIANTS)
    @pytest.mark.parametrize("invert", [False, True])
    def test_verdict_matches_exhaustive_verdicts(self, name, invert):
        verdicts = [_reference_build(name, depth, invert).metric for depth in _runnable_depths(name)]
        assert _type_verdict(name, invert) == all(verdicts)
        # every inverted build fails by depth 2, so a failing type is realized there
        assert verdicts[2] == (not invert)

    def test_depth_2_shows_every_pattern(self):
        assert len(_relation_patterns(2)) == 15
        assert len(_relation_patterns(3)) == 37
        for alphabet, depth in [(2, 3), (2, 4), (3, 3)]:
            assert _relation_patterns(alphabet, depth) == _relation_patterns(alphabet), (alphabet, depth)

    @pytest.mark.parametrize("name", VARIANTS)
    def test_verdict_on_perturbed_tables(self, name, monkeypatch):
        # one relation tuple at a tiny or a huge distance; some of these
        # fail only on a pattern that needs depth 2
        variant, table = load_variant(name), _case_lookup(name)
        patterns = _relation_patterns(variant.alphabet, 3)
        for key, value in itertools.product(table, [1, 1000]):
            lookup = {k: 100 * v for k, v in table.items()} | {key: value}
            monkeypatch.setattr(milliken, "_case_lookup", lambda *args: lookup)
            want = _reference_type_verdict(lookup, patterns, variant.tuple_size)
            assert _type_verdict.__wrapped__(name) == want, (key, value)

    def test_import_builds_no_coding(self):
        # setup time counts imports: no case table read, no verdict, no matrix
        code = (
            "import finmetric, finmetric.cli\n"
            "from finmetric import milliken as m\n"
            "caches = (m._type_verdict, m._case_lookup, m.load_variant, m._embed_index, m._distance_row)\n"
            "print([f.cache_info().currsize for f in caches])\n"
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0, 0]"


class TestCoreMatchesReference:
    @pytest.mark.parametrize("name", VARIANTS)
    @pytest.mark.parametrize("invert", [False, True])
    def test_case_lookup_on_every_depth_2_pair(self, name, invert):
        variant = load_variant(name)
        points = coding_points(variant, 2)
        ms = milliken_space(name, 2, invert_membership=invert)
        for i, j in itertools.product(range(len(points)), repeat=2):
            want = _reference_case_value(variant, points[i], points[j], invert)
            assert coding_distance(variant, points[i], points[j], invert) == want
            if ms.space is not None and i != j:
                assert ms.space.d[i][j] == want

    def test_standard_edge_on_every_node_pair(self):
        nodes = nodes_up_to(3, 3)
        for a, b in itertools.product(nodes, repeat=2):
            assert (_relation(a, b) == 2) == _reference_standard_edge(a, b)

    @pytest.mark.parametrize("name", VARIANTS)
    def test_admissible_points_to_depth_5(self, name):
        variant = load_variant(name)
        for depth in range(6):
            assert admissible_points(variant, depth) == _reference_admissible_points(variant, depth)

    @pytest.mark.parametrize("name", VARIANTS)
    def test_counts_by_arithmetic(self, name):
        variant = load_variant(name)
        assert milliken._strings_shorter_than(variant.alphabet, -3) == 0
        for depth in range(6):
            nodes = milliken._strings_shorter_than(variant.alphabet, depth + 1)
            assert nodes == len(nodes_up_to(variant.alphabet, depth))
        for depth in range(1, 5):
            floor = milliken._admissible_floor(variant, depth)
            assert 0 <= floor <= len(admissible_points(variant, depth))

    @given(st.lists(st.integers(0, 2), max_size=5), st.lists(st.integers(0, 2), max_size=5))
    def test_lex_less_is_tuple_order(self, a, b):
        a, b = tuple(a), tuple(b)
        assert (a < b) == _reference_lex_less(a, b)

    @given(int_matrices())
    @example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])  # metric
    @example([[0, 1, 5], [1, 0, 1], [5, 1, 0]])  # violating
    @settings(max_examples=300, deadline=None)
    def test_triangle_witness(self, d):
        assert _triangle_witness(d) == _reference_triangle_witness(d)


@contextlib.contextmanager
def _candidate_cap(monkeypatch, cap):
    """Embed with _MAX_CANDIDATES set to cap, on cleared index and row tables
    (an index built under a larger cap would pass a smaller one)."""
    milliken._embed_index.cache_clear()
    milliken._distance_row.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(milliken, "_MAX_CANDIDATES", cap)
            yield
    finally:
        milliken._embed_index.cache_clear()
        milliken._distance_row.cache_clear()


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
        # a str seed is hashed by sha512, unsalted: every run draws the same targets
        rng = random.Random(name)
        svals = [int(v) for v in load_variant(name).distance_set.values]
        for _ in range(3):
            n = rng.randint(2, 5)
            target = random_s_space(rng, svals, n)
            emb = coding_embed(name, 5, target)
            assert emb is not None
            assert verify_embedding(name, emb, target)

    def test_depth_5_is_too_shallow_for_a_1378_target(self):
        # no embedding of this target into the 1378 admissible subset at depth 5; one at depth 6
        target = FiniteMetricSpace([[0, 8, 7, 7, 1], [8, 0, 7, 7, 8], [7, 7, 0, 7, 8],
                                    [7, 7, 7, 0, 7], [1, 8, 8, 7, 0]])
        assert coding_embed("1378", 5, target) is None
        emb = coding_embed("1378", 6, target)
        assert emb is not None and verify_embedding("1378", emb, target)

    @given(st.sampled_from(VARIANTS), st.integers(2, 3), st.integers(2, 4), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, name, depth, n, seed):
        svals = [int(v) for v in load_variant(name).distance_set.values]
        target = random_s_space(random.Random(seed), svals, n)
        assert coding_embed(name, depth, target) == _reference_coding_embed(name, depth, target)

    def test_oversized_admissible_subset_refused(self, monkeypatch):
        # depth 8 has 9,841 ternary nodes and millions of admissible pairs:
        # listing stops after 20,001 of them, and nothing is cached
        listed = []

        def counted(variant, depth):
            for point in admissible(variant, depth):
                listed.append(point)
                yield point

        admissible = milliken._admissible
        monkeypatch.setattr(milliken, "_admissible", counted)
        cached = milliken._embed_index.cache_info().currsize
        rows = milliken._distance_row.cache_info()
        target = FiniteMetricSpace([[0, 2], [2, 0]])
        with pytest.raises(SearchTooLarge, match="more than 20000 points"):
            coding_embed("2678", 8, target)
        assert len(listed) == 20001
        assert milliken._embed_index.cache_info().currsize == cached
        assert milliken._distance_row.cache_info() == rows
        # 134 has 26 admissible points at depth 3
        pair = FiniteMetricSpace([[0, 1], [1, 0]])
        want = coding_embed("134", 3, pair)
        with _candidate_cap(monkeypatch, 25), pytest.raises(SearchTooLarge, match="more than 25 points"):
            coding_embed("134", 3, pair)
        with _candidate_cap(monkeypatch, 26):
            assert coding_embed("134", 3, pair) == want

    def test_index_table_holds_at_most_37_indexes(self):
        # under the cap the depths form a prefix per variant; every deeper
        # one is refused and cached nowhere
        milliken._embed_index.cache_clear()
        deepest = {}
        for name, depth in itertools.product(VARIANTS, range(13)):
            cached = milliken._embed_index.cache_info().currsize
            try:
                assert coding_embed(name, depth, FiniteMetricSpace([])) == []
            except SearchTooLarge as refused:
                assert str(refused) == "admissible subset too large: more than 20000 points"
                assert milliken._embed_index.cache_info().currsize == cached
            else:
                assert deepest.get(name, -1) == depth - 1, (name, depth)
                deepest[name] = depth
        assert deepest == {"134": 7, "2379": 7, "2678": 5, "26712": 7, "1378": 6}
        assert milliken._embed_index.cache_info().currsize == 37

    def test_membership_constraints_hold(self):
        rng = random.Random(7)
        svals = [1, 3, 4]
        target = random_s_space(rng, svals, 4)
        emb = coding_embed("134", 5, target)
        for (s, t) in emb:
            assert len(s) < len(t)
            assert t[len(s)] == 0
            assert s < t

    def test_distance_outside_s_rejected(self):
        t = FiniteMetricSpace([[0, 1, 5], [1, 0, 5], [5, 5, 0]])
        with pytest.raises(InvalidSpace) as info:
            coding_embed("134", 3, t)
        assert str(info.value) == "target distance 5 outside the variant's set"

    @pytest.mark.parametrize("v", [Fraction(5, 2), Fraction(3, 2)])
    def test_fraction_distance_outside_s_rejected(self, v):
        # a target at scale 2 is named from its Fractions, also when its
        # scaled ints (here 1 and 3 for 3/2) all lie in the variant's set
        t = FiniteMetricSpace([[0, 1, v], [1, 0, v], [v, v, 0]] if v > 2 else [[0, v], [v, 0]])
        with pytest.raises(InvalidSpace) as info:
            coding_embed("134", 3, t)
        assert str(info.value) == f"target distance {v} outside the variant's set"

    def test_warm_call_builds_no_row(self):
        target = FiniteMetricSpace([[0, 3, 4], [3, 0, 1], [4, 1, 0]])
        first = coding_embed("134", 5, target)
        misses = milliken._distance_row.cache_info().misses
        assert coding_embed("134", 5, target) == first
        assert milliken._distance_row.cache_info().misses == misses
        milliken._distance_row.cache_clear()
        assert coding_embed("134", 5, target) == first
        assert milliken._distance_row.cache_info().misses > 0

    def test_row_table_bounded(self):
        maxsize = milliken._distance_row.cache_parameters()["maxsize"]
        assert maxsize == milliken._ROW_TABLE_SIZE and 0 < maxsize <= 1024

    def test_zero_cap_stays_valid(self, monkeypatch):
        # depth 0 has one node and so no admissible pair
        with _candidate_cap(monkeypatch, 0):
            assert coding_embed("134", 0, FiniteMetricSpace([])) == []
            assert coding_embed("134", 0, FiniteMetricSpace.single_point()) is None
            with pytest.raises(SearchTooLarge, match="more than 0 points"):
                coding_embed("134", 3, FiniteMetricSpace.single_point())

    @given(st.lists(st.tuples(st.sampled_from(VARIANTS), st.integers(2, 3),
                              st.integers(1, 4), st.integers(0, 10**6), st.booleans()),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_shared_rows_match_reference(self, steps):
        # interleaved variants and depths on a warm row table, some after a clear
        for name, depth, n, seed, clear in steps:
            if clear:
                milliken._distance_row.cache_clear()
            svals = [int(v) for v in load_variant(name).distance_set.values]
            target = random_s_space(random.Random(seed), svals, n)
            assert coding_embed(name, depth, target) == _reference_coding_embed(name, depth, target)

    def test_insufficient_depth_reports_failure(self):
        # two points at distance 9 need distinct s parts and a t-edge; depth 0
        # has a single node, so nothing fits
        t = FiniteMetricSpace([[0, 9], [9, 0]])
        assert coding_embed("2379", 0, t) is None
