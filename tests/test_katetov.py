import heapq
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from finmetric import four_values
from finmetric.katetov import (
    BuildLog,
    ResourceLimit,
    _closure_key,
    _katetov_maps,
    _katetov_witness,
    _key_rows,
    _pattern_maps,
    extend_with,
    is_katetov,
    realizers,
    shortest_extension,
    ultrametric_urysohn_grid,
    urysohn_approx,
)
from finmetric.spaces import (
    DEFAULT_CONFIG,
    Config,
    DistanceSet,
    EdgeLabelledGraph,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    _check_canon_bound,
    _fraction_rows,
    as_fraction,
    canonical_key,
    canonicalize,
    complete,
    copies,
    format_fraction,
)


def two_points(dist=2):
    return FiniteMetricSpace([[0, dist], [dist, 0]])


def path3():
    return FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


class TestIsKatetov:
    def test_valid_pair(self):
        ok, _ = is_katetov(two_points(), (1, 1))
        assert ok

    def test_violating_pair_with_witness(self):
        ok, witness = is_katetov(two_points(), (1, 4))
        assert not ok and witness == (0, 1)

    def test_distance_functions_are_katetov(self):
        x = path3()
        for p in range(3):
            ok, _ = is_katetov(x, [x.d[p][q] for q in range(3)])
            assert ok

    def test_length_mismatch(self):
        with pytest.raises(InvalidSpace):
            is_katetov(two_points(), (1,))

    def test_map_on_the_space_grid(self):
        # f's denominators divide the space's scale 2: the view is read as it is
        x = FiniteMetricSpace([[0, "1/2", 1], ["1/2", 0, "1/2"], [1, "1/2", 0]])
        assert x._scaled_rows()[1] == 2
        cases = [(("1/2", 1, "3/2"), (True, None)), (("1/2", "3/2", "1/2"), (False, (0, 1))),
                 ((1, 1, 1), (True, None)), ((2, "1/2", 1), (False, (0, 1)))]
        for f, want in cases:
            assert is_katetov(x, f) == _reference_is_katetov(x, f) == want

    def test_map_finer_than_the_space(self):
        # an integer space and f in halves: the view is multiplied by 2
        cases = [(two_points(1), ("1/2", "3/2"), (True, None)),
                 (two_points(2), ("1/2", "1/2"), (False, (0, 1))),
                 (path3(), ("1/2", "1/2", "3/2"), (True, None)),
                 (path3(), ("1/2", "3/2", "1/2"), (False, (0, 2)))]
        for x, f, want in cases:
            assert x._scaled_rows()[1] == 1
            assert is_katetov(x, f) == _reference_is_katetov(x, f) == want

    def test_negative_maps_are_refused_at_their_first_negative_point(self):
        # a negative map has no witness pair, so the refusals name the point
        x = path3()
        assert is_katetov(x, (1, -1, -2)) == (False, None)
        with pytest.raises(InvalidSpace) as info:
            extend_with(x, (1, -1, -2))
        assert str(info.value) == "not a Katetov map, negative value at point 1"
        with pytest.raises(InvalidSpace) as info:
            realizers(x, [0, 2], (2, -1))
        assert str(info.value) == "not Katetov over the subspace, negative value at point 1"
        # shortest_extension keeps its old bytes: the benchmark's recorded
        # digests of the closure workload hold them
        with pytest.raises(InvalidSpace) as info:
            shortest_extension(x, [0], (-1,))
        assert str(info.value) == "not Katetov over the subspace, witness None"


class TestExtendWith:
    def test_equilateral_grows(self):
        x = FiniteMetricSpace.equilateral(3, 1)
        y = extend_with(x, (1, 1, 1))
        assert y == FiniteMetricSpace.equilateral(4, 1)

    def test_midpoint(self):
        y = extend_with(two_points(), (1, 1))
        assert y.d[0][2] == 1 and y.d[1][2] == 1 and y.d[0][1] == 2

    def test_vanishing_map_rejected_naming_point(self):
        x = path3()
        f = [x.d[1][q] for q in range(3)]
        with pytest.raises(InvalidSpace, match="point 1"):
            extend_with(x, f)

    def test_random_katetov_maps_extend(self):
        rng = random.Random(1)
        x = path3()
        found = 0
        while found < 20:
            f = [Fraction(rng.randint(1, 4), rng.choice([1, 2])) for _ in range(3)]
            ok, _ = is_katetov(x, f)
            if ok:
                extend_with(x, f)  # must not raise
                found += 1


class TestShortestExtension:
    def test_full_subspace_identity(self):
        x = path3()
        f = (1, 1, 2)
        assert is_katetov(x, f)[0]
        assert shortest_extension(x, [0, 1, 2], f) == [Fraction(v) for v in f]

    def test_path_example(self):
        x = path3()
        g = shortest_extension(x, [0], (1,))
        assert g == [Fraction(1), Fraction(2), Fraction(3)]

    def test_empty_subspace_refused(self):
        # min() over no subspace point has no value to give
        with pytest.raises(InvalidSpace, match="empty subspace"):
            shortest_extension(path3(), [], [])

    def test_out_of_range_point_refused(self):
        with pytest.raises(InvalidSpace, match="point 3 out of range"):
            shortest_extension(path3(), [3], [1])

    def test_result_is_katetov_and_restricts(self):
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(2, 5)
            w = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    w[i][j] = w[j][i] = Fraction(rng.randint(1, 4))
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if w[i][k] + w[k][j] < w[i][j]:
                            w[i][j] = w[i][k] + w[k][j]
            x = FiniteMetricSpace(w)
            sub = sorted(rng.sample(range(n), rng.randint(1, n)))
            f = None
            while f is None:
                cand = [Fraction(rng.randint(1, 5)) for _ in sub]
                if is_katetov(x.submetric(sub), cand)[0]:
                    f = cand
            g = shortest_extension(x, sub, f)
            assert [g[s] for s in sub] == f
            assert is_katetov(x, g)[0]

    def test_agrees_with_path_completion(self):
        # extending then adjoining equals sum-cap completion of the partial
        # graph where only the subspace edges to the new point are labelled
        rng = random.Random(14)
        checked = 0
        while checked < 25:
            n = rng.randint(2, 6)
            w = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    w[i][j] = w[j][i] = Fraction(rng.randint(1, 4))
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if w[i][k] + w[k][j] < w[i][j]:
                            w[i][j] = w[i][k] + w[k][j]
            x = FiniteMetricSpace(w)
            sub = sorted(rng.sample(range(n), rng.randint(1, n)))
            f = [Fraction(rng.randint(1, 5)) for _ in sub]
            if not is_katetov(x.submetric(sub), f)[0]:
                continue
            g = shortest_extension(x, sub, f)
            graph = EdgeLabelledGraph(n + 1)
            for i in range(n):
                for j in range(i + 1, n):
                    graph.set_label(i, j, x.d[i][j])
            for k, s in enumerate(sub):
                graph.set_label(s, n, f[k])
            completed = complete(graph, "sum-cap", r=1000)
            assert [completed.d[n][q] for q in range(n)] == g
            checked += 1


class TestRealizers:
    def test_distance_function_realized_by_its_point(self):
        x = path3()
        sub = [0, 1]
        f = [x.d[2][0], x.d[2][1]]
        assert 2 in realizers(x, sub, f)

    def test_empty_subspace_vacuous(self):
        x = path3()
        assert realizers(x, [], []) == [0, 1, 2]

    def test_negative_point_refused(self):
        # a negative index would read from the end: point 2 is at distance 2 from 0
        with pytest.raises(InvalidSpace, match="point -1 out of range for a 3-point space"):
            realizers(path3(), [-1], [2])

    def test_point_past_the_end_refused(self):
        with pytest.raises(InvalidSpace, match="point 9 out of range for a 3-point space"):
            realizers(path3(), [9], [1])

    def test_grid_scan_matches_brute_force(self):
        grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
        for f in ((1, 1, 3, 3), (0, 1, 3, 3), (3, 3, 1, 1)):
            res = realizers(grid, [0, 1, 2, 3], f)
            oracle = [
                p
                for p in range(4)
                if all(grid.d[p][q] == v for q, v in zip(range(4), f))
            ]
            assert res == oracle
            assert len(res) <= 1
        # the vanishing map is realized by its own point
        assert realizers(grid, [0, 1, 2, 3], (0, 1, 3, 3)) == [0]


class TestUrysohnApprox:
    def test_singleton_distance_set(self):
        space, log = urysohn_approx(DistanceSet((1,)), 3)
        assert space == FiniteMetricSpace.equilateral(space.n, 1)
        # extension property: some point apart from any chosen pair
        assert space.n >= 3

    def test_rado_like_space_has_all_small_types(self):
        space, _ = urysohn_approx(DistanceSet((1, 2)), 3)
        s12 = DistanceSet((1, 2))
        # all isometry types of {1,2}-spaces of size <= 3
        types = [
            FiniteMetricSpace([[0, 1], [1, 0]]),
            FiniteMetricSpace([[0, 2], [2, 0]]),
            FiniteMetricSpace.equilateral(3, 1),
            FiniteMetricSpace.equilateral(3, 2),
            FiniteMetricSpace([[0, 1, 1], [1, 0, 2], [1, 2, 0]]),
            FiniteMetricSpace([[0, 1, 2], [1, 0, 2], [2, 2, 0]]),
        ]
        big = Config(copies_bound=space.n)
        for t in types:
            assert copies(space, t, big), f"missing copies of a size-{t.n} type"

    def test_closure_realizes_everything_below_cap(self):
        s = DistanceSet((1, 2))
        space, _ = urysohn_approx(s, 3)
        assert _unrealized(space, s, 3) == []

    def test_ultrametric_set_gives_ultrametric_space(self):
        space, _ = urysohn_approx(DistanceSet((1, 3)), 3)
        assert space.is_ultrametric()
        # every <=2-branching ultrametric type over {1,3} embeds in a wide grid
        grid = ultrametric_urysohn_grid(DistanceSet((1, 3)), 3)
        big = Config(copies_bound=max(space.n, grid.n))
        for size in (2, 3):
            for subset in itertools.combinations(range(space.n), size):
                sub = space.submetric(subset)
                assert copies(grid, sub, big)

    def test_rejects_bad_distance_set(self):
        with pytest.raises(InvalidSpace, match=r"witness \(1,1,2,4\)$"):
            urysohn_approx(DistanceSet((1, 2, 4)), 3)

    def test_deterministic_for_fixed_seed(self):
        a, loga = urysohn_approx(DistanceSet((1, 2)), 3, seed=0)
        b, logb = urysohn_approx(DistanceSet((1, 2)), 3, seed=0)
        assert a == b and loga.entries == logb.entries

    def test_closure_keys_under_the_callers_canon_bound(self):
        # F+f reaches 11 points at size cap 11, past the default bound of 10
        with pytest.raises(SearchTooLarge, match="canonicalization too large: n=11 > 10"):
            urysohn_approx(DistanceSet((1,)), 11)
        space, log = urysohn_approx(DistanceSet((1,)), 11, Config(canon_bound=20))
        assert space == FiniteMetricSpace.equilateral(11, 1)
        assert len(log.entries) == 10

    def test_size_cap_above_the_point_cap_lists_nothing_more(self):
        # a subset containing the newest point p has at most p + 1 points, so
        # sizes past urysohn_max_points + 1 add nothing to scan
        s, max_points = DistanceSet((1, 2, 3)), 6
        start = time.perf_counter()
        huge = _outcome(urysohn_approx, s, 10**5, max_points, 0)
        assert time.perf_counter() - start < 1
        assert huge[0] == "limit"
        assert huge == _outcome(urysohn_approx, s, max_points + 1, max_points, 0)

    def test_build_log_matches_growth(self):
        space, log = urysohn_approx(DistanceSet((1, 2)), 3)
        assert space.n == 1 + len(log.entries)
        assert log.format().count("\n") == len(log.entries) - 1


# --- reference closure: the loop that rescans every subset on each iteration --

def _reference_urysohn_approx(
    s: DistanceSet,
    size_cap: int,
    config: Config = DEFAULT_CONFIG,
    seed: int = 0,
) -> tuple[FiniteMetricSpace, BuildLog]:
    """A finite S-space realizing every admissible extension below size_cap.

    Closure strategy: repeatedly scan subspaces F with |F| < size_cap in a
    deterministic order (by |F|, then the canonical form of F+f, then by the
    raw indices) and add a realizing point whenever some S-valued Katetov map
    over F has none.  Cross distances to points outside F come from iterated
    one-point amalgamation; when several values of S are admissible the
    choice is drawn from a seeded generator.  Always taking the least value
    provably diverges (for {1,2} it keeps manufacturing missing non-adjacent
    extensions forever), while the seeded rule saturates quickly; a fixed
    seed keeps the output deterministic.  Growth is capped by
    config.urysohn_max_points; hitting the cap reports progress.
    """
    chk = four_values.check_four_values(s, config.four_values_bound)
    if not chk:
        witness = "(" + ",".join(format_fraction(v) for v in chk.witness) + ")"
        raise InvalidSpace(f"S fails the 4-values condition, witness {witness}")
    rng = random.Random(seed)
    space = FiniteMetricSpace.single_point()
    log = BuildLog()

    while True:
        # gather unrealized (F, f) pairs over the current space
        pending = []
        for size in range(1, size_cap):
            if size > space.n:
                break
            for subset in itertools.combinations(range(space.n), size):
                for f in _reference_admissible_maps(space, subset, s):
                    if not _reference_realizers(space, subset, f):
                        ext = _reference_extend_with(space.submetric(subset), f)
                        pending.append((size, canonical_key(ext, config), subset, f))
        if not pending:
            return space, log
        pending.sort()
        _, _, subset, f = pending[0]
        if space.n + 1 > config.urysohn_max_points:
            raise ResourceLimit(
                f"urysohn closure exceeded {config.urysohn_max_points} points "
                f"with {len(pending)} extensions still unrealized",
                space=space,
                pending=pending,
            )
        space = _reference_adjoin_point(s, space, subset, f, rng)
        log.record(subset, f)


def _reference_realizers(x: FiniteMetricSpace, sub, values) -> list[int]:
    """The points of X at distance f(s) from every s in the subspace, f
    checked Katetov there by the reference test, not the kernel under test."""
    f = [as_fraction(v) for v in values]
    ok, witness = _reference_is_katetov(x.submetric(sub), f)
    if not ok:
        raise InvalidSpace(f"not Katetov over the subspace, {_reference_refusal(f, witness, 'witness')}")
    return [y for y in range(x.n) if all(x.d[y][s] == f[k] for k, s in enumerate(sub))]


def _reference_extend_with(x: FiniteMetricSpace, values) -> FiniteMetricSpace:
    """X plus one point at distance f(x) from each x, f checked Katetov by
    the reference test and the result by the checked constructor."""
    f = [as_fraction(v) for v in values]
    ok, witness = _reference_is_katetov(x, f)
    if not ok:
        raise InvalidSpace(f"not a Katetov map, {_reference_refusal(f, witness)}")
    for i, v in enumerate(f):
        if v == 0:
            raise InvalidSpace(f"map vanishes at point {i}: realized by existing point {i}")
    rows = [list(row) + [f[i]] for i, row in enumerate(x.d)]
    rows.append(f + [Fraction(0)])
    return FiniteMetricSpace(rows)


def _reference_adjoin_point(s, space, subset, f, rng):
    """Add one point at distance f over the subset, amalgamating the rest."""
    n = space.n
    new = {}
    for k, p in enumerate(subset):
        new[p] = as_fraction(f[k])
    for y in range(n):
        if y in new:
            continue
        lo = Fraction(0)
        hi = None
        for k, v in new.items():
            dky = space.d[k][y]
            lo = max(lo, abs(v - dky))
            hi = v + dky if hi is None else min(hi, v + dky)
        candidates = [u for u in s.values if lo <= u and (hi is None or u <= hi)]
        if not candidates:
            raise InvalidSpace(
                f"one-point amalgamation stuck at point {y}: no S value in "
                f"[{format_fraction(lo)},{format_fraction(hi)}]"
            )
        new[y] = rng.choice(candidates)
    rows = [list(row) + [new[i]] for i, row in enumerate(space.d)]
    rows.append([new[i] for i in range(n)] + [Fraction(0)])
    return FiniteMetricSpace(rows)


CLOSURE_BASES = ((1,), (1, 2), (2, 3), (1, 2, 3), (1, Fraction(3, 2), 2), (2, 3, 4))


def _outcome(build, s, size_cap, max_points, seed, canon_bound=DEFAULT_CONFIG.canon_bound):
    """What a closure run returns or raises, in comparable form."""
    config = Config(urysohn_max_points=max_points, canon_bound=canon_bound)
    try:
        space, log = build(s, size_cap, config, seed=seed)
    except ResourceLimit as exc:
        return "limit", str(exc), exc.space.d, exc.pending
    except SearchTooLarge as exc:
        return "refused", str(exc)
    return "done", space.d, log.entries


@st.composite
def closure_inputs(draw, top=None):
    base = draw(st.sampled_from(CLOSURE_BASES))
    scale = draw(st.sampled_from((1, Fraction(1, 2), 2, 3)))
    size_cap = draw(st.integers(2, 4))
    # the reference rescans all |S|^3 maps over every 3-point subset on each
    # iteration: about 1.7 s at 8 points for three values and size_cap 4
    if top is None and size_cap == 4:
        top = 7 if len(base) == 3 else 10
    elif top is None:
        top = 14
    max_points = draw(st.integers(3, top))
    seed = draw(st.integers(0, 999))
    return DistanceSet(v * scale for v in base), size_cap, max_points, seed


class TestClosureMatchesReference:
    @given(closure_inputs())
    @settings(max_examples=12, deadline=None)
    def test_random_closures(self, case):
        new = _outcome(urysohn_approx, *case)
        old = _outcome(_reference_urysohn_approx, *case)
        assert new[:-1] == old[:-1]
        assert len(new[-1]) == len(old[-1])
        for got, want in zip(new[-1], old[-1]):
            assert got == want

    @pytest.mark.parametrize("vals, size_cap, max_points", [
        ((1, 2, 3), 3, 16),
        ((1, 2), 4, 9),
        ((2, 3, 4), 2, 3),
    ])
    def test_named_closures(self, vals, size_cap, max_points):
        case = (DistanceSet(vals), size_cap, max_points, 0)
        new = _outcome(urysohn_approx, *case)
        assert new[0] == "limit"
        _assert_pending_listed(new[1], new[3])
        assert new == _outcome(_reference_urysohn_approx, *case)

    def test_two_values_cap_four_reaches_the_point_cap(self):
        with pytest.raises(ResourceLimit) as info:
            urysohn_approx(DistanceSet((1, 2)), 4, Config(urysohn_max_points=24))
        assert info.value.space.n == 24
        assert info.value.pending
        assert len(info.value.log.entries) == 23
        _assert_pending_listed(str(info.value), info.value.pending)

    def test_back_to_back_closures_on_a_warm_cache(self):
        # every base at every scale in one process: the scaled copies of one
        # S share rank patterns, so the later builds key F+f from the cache
        # that the earlier ones (and earlier tests) filled; the reference
        # keys through canonical_key and never reads it.  The bounds refuse
        # the 4-point F+f of size cap 4, admit it exactly, or leave room.
        rng = random.Random(29)
        hits = _pattern_maps.cache_info().hits
        outcomes = set()
        for base in CLOSURE_BASES:
            for scale in (1, Fraction(1, 2), 2, 3):
                size_cap = rng.randint(2, 4)
                top = 6 if size_cap == 4 and len(base) == 3 else 9
                case = (DistanceSet(v * scale for v in base), size_cap,
                        rng.randint(3, top), rng.randrange(1000), rng.choice((3, 4, 10)))
                new = _outcome(urysohn_approx, *case)
                assert new == _outcome(_reference_urysohn_approx, *case), case
                if new[0] == "limit":
                    _assert_pending_listed(new[1], new[3])
                outcomes.add(new[0])
        assert outcomes == {"done", "limit", "refused"}
        assert _pattern_maps.cache_info().hits > hits

    @pytest.mark.parametrize("kind, case", [
        ("done", (DistanceSet((1, 2)), 3, 64, 0, 10)),
        ("limit", (DistanceSet((1, 2)), 4, 9, 0, 10)),
        ("refused", (DistanceSet((1, 2)), 4, 9, 0, 3)),  # F+f reaches 4 points
    ])
    def test_cold_and_warm_builds(self, kind, case):
        # the first build fills an empty pattern table, the second reads it
        want = _outcome(_reference_urysohn_approx, *case)
        assert want[0] == kind
        _pattern_maps.cache_clear()
        cold = _outcome(urysohn_approx, *case)
        hits = _pattern_maps.cache_info().hits
        warm = _outcome(urysohn_approx, *case)
        assert _pattern_maps.cache_info().hits > hits
        for got in (cold, warm):
            assert len(got) == len(want)
            for field_got, field_want in zip(got, want):
                assert field_got == field_want


# --- reference incremental closure: the pending pairs kept twice, by subset
# and in a heap, each new point popping its map from every open subset ------

def _reference_incremental_urysohn_approx(
    s: DistanceSet,
    size_cap: int,
    config: Config = DEFAULT_CONFIG,
    seed: int = 0,
) -> tuple[FiniteMetricSpace, BuildLog]:
    """urysohn_approx with its pending pairs kept by subspace, F -> {f:
    entry}, and in a heap of the same entries: p realizes exactly one map
    over each F, so one dict pop per open subspace drops them, and the heap
    drops its realized entries lazily, when they reach the top."""
    if size_cap < 1:
        raise InvalidSpace(f"size cap must be at least 1, got {size_cap}")
    chk = four_values.check_four_values(s, config.four_values_bound)
    if not chk:
        witness = "(" + ",".join(format_fraction(v) for v in chk.witness) + ")"
        raise InvalidSpace(f"S fails the 4-values condition, witness {witness}")
    rng = random.Random(seed)
    ints, scale = s._scaled_values()
    frac = {u: Fraction(u, scale) for u in (0, *ints)}
    digit = {u: i for i, u in enumerate(frac)}
    m = [[0]]
    log = BuildLog()
    pending: dict = {}  # F -> {f: (|F|, key, F, f)} for the unrealized f, in ints
    heap: list = []
    p = 0
    while True:
        for size in range(1, min(size_cap, p + 2)):
            for rest in itertools.combinations(range(p), size - 1):
                sub = rest + (p,)
                fs = _pattern_maps(ints, size, tuple(m[a][b] for a, b in itertools.combinations(sub, 2)))
                realized = set(zip(*(m[q] for q in sub)))
                open_fs = [f for f in fs if f not in realized]
                if not open_fs:
                    continue
                _check_canon_bound(size + 1, config)
                entries = pending[sub] = {}
                for f in open_fs:
                    key = fs[f]
                    if key is None:
                        ext = [[m[a][b] for b in sub] + [v] for a, v in zip(sub, f)]
                        ext.append([*f, 0])
                        key = fs[f] = _closure_key(ext, digit)
                    entry = entries[f] = (size, key, sub, f)
                    heapq.heappush(heap, entry)
        while heap and heap[0][3] not in pending.get(heap[0][2], ()):
            heapq.heappop(heap)
        if not heap:
            return FiniteMetricSpace._from_rows(_fraction_rows(m, scale)), log
        _, _, sub, f = heap[0]
        if p + 2 > config.urysohn_max_points:
            listed = [e for fs in pending.values() for e in fs.values()]
            listed.sort()
            values = tuple(frac.values())
            rows, maps = {}, {}
            for k, key, _, g in listed:
                if (k, key) not in rows:
                    rows[k, key] = _key_rows(key, k + 1, values)
                if g not in maps:
                    maps[g] = tuple(map(frac.__getitem__, g))
            raise ResourceLimit(
                f"urysohn closure exceeded {config.urysohn_max_points} points "
                f"with {len(listed)} extensions still unrealized",
                space=FiniteMetricSpace._from_rows(_fraction_rows(m, scale)),
                pending=[(k, rows[k, key], subset, maps[g]) for k, key, subset, g in listed],
                log=log,
            )
        four_values._adjoin_point(ints, scale, m, sub, f, rng.choice)
        log.record(sub, [frac[v] for v in f])
        p += 1
        row = m[p]
        for sub, fs in list(pending.items()):
            if fs.pop(tuple(map(row.__getitem__, sub)), None) and not fs:
                del pending[sub]


def _whole_outcome(build, s, size_cap, max_points, seed, canon_bound=DEFAULT_CONFIG.canon_bound):
    """_outcome with a capped run's log as well, which the rescanning
    reference does not keep."""
    config = Config(urysohn_max_points=max_points, canon_bound=canon_bound)
    try:
        space, log = build(s, size_cap, config, seed=seed)
    except ResourceLimit as exc:
        return "limit", str(exc), exc.space.d, exc.pending, exc.log.entries
    except SearchTooLarge as exc:
        return "refused", str(exc)
    return "done", space.d, log.entries


class TestClosureMatchesIncrementalReference:
    @given(closure_inputs(top=28), st.sampled_from((3, 4, 10)))
    @settings(max_examples=12, deadline=None)
    def test_random_closures(self, case, canon_bound):
        # past the rescanning reference's reach; the bounds refuse the
        # 4-point F+f of size cap 4, admit it exactly, or leave room
        assert _whole_outcome(urysohn_approx, *case, canon_bound) == _whole_outcome(
            _reference_incremental_urysohn_approx, *case, canon_bound)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_values_cap_four_to_the_point_cap(self, seed):
        case = (DistanceSet((1, 2)), 4, 64, seed)
        new = _whole_outcome(urysohn_approx, *case)
        assert new[0] == "limit" and len(new[-1]) == 63
        assert new == _whole_outcome(_reference_incremental_urysohn_approx, *case)

    @pytest.mark.parametrize("vals, size_cap, max_points", [
        ((1, 2), 4, 18),
        ((1, 2), 4, 24),
        ((1, 2, 3), 3, 40),
    ])
    def test_capped_pending_is_the_unrealized_scan(self, vals, size_cap, max_points):
        # a scan of every subset of the partial space, apart from the heap
        s = DistanceSet(vals)
        with pytest.raises(ResourceLimit) as info:
            urysohn_approx(s, size_cap, Config(urysohn_max_points=max_points))
        exc = info.value
        assert exc.space.n == max_points
        listed = [(sub, f) for _, _, sub, f in exc.pending]
        assert sorted(listed) == sorted(_unrealized(exc.space, s, size_cap))


def _assert_pending_listed(message: str, pending: list):
    """A capped closure lists its pending pairs sorted, as many as it says."""
    assert pending == sorted(pending)
    assert message.endswith(f" with {len(pending)} extensions still unrealized")


class TestClosurePromise:
    @pytest.mark.parametrize("size_cap", [2, 3])
    @pytest.mark.parametrize("base", CLOSURE_BASES)
    def test_finished_closures_leave_nothing_unrealized(self, base, size_cap):
        # checked by a scan of every subset, apart from the closure's pending
        # bookkeeping; each seed runs at its own scale
        for seed, scale in enumerate((1, Fraction(1, 2), 3)):
            s = DistanceSet(v * scale for v in base)
            try:
                space, _ = urysohn_approx(s, size_cap, seed=seed)
            except ResourceLimit:  # only three values at cap 3 reach the 64-point cap
                assert (len(base), size_cap) == (3, 3)
                continue
            assert _unrealized(space, s, size_cap) == []


class TestUltrametricGrid:
    def test_two_level_grid_structure(self):
        grid = ultrametric_urysohn_grid(DistanceSet((3, 1)), 2)
        assert grid.n == 4
        assert grid.d[0][1] == 1 and grid.d[2][3] == 1
        for a, b in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert grid.d[a][b] == 3

    def test_always_ultrametric(self):
        for svals, arity in (((1,), 2), ((5, 2), 3), ((7, 3, 1), 2)):
            grid = ultrametric_urysohn_grid(DistanceSet(svals), arity)
            assert grid.is_ultrametric()

    def test_distance_set_is_exactly_s(self):
        for svals, arity in (((5, 2), 2), ((4, 2, 1), 2), ((3, 1), 4)):
            grid = ultrametric_urysohn_grid(DistanceSet(svals), arity)
            assert grid.distances() == set(DistanceSet(svals).values)

    def test_small_ultrametric_spaces_embed(self):
        s = DistanceSet((3, 1))
        grid = ultrametric_urysohn_grid(s, 4)
        big = Config(copies_bound=grid.n)
        # every <=4-branching ultrametric space over S with <= 4 points
        shapes = [
            FiniteMetricSpace([[0, 1], [1, 0]]),
            FiniteMetricSpace([[0, 3], [3, 0]]),
            FiniteMetricSpace([[0, 1, 3], [1, 0, 3], [3, 3, 0]]),
            FiniteMetricSpace.equilateral(4, 3),
            FiniteMetricSpace(
                [[0, 1, 3, 3], [1, 0, 3, 3], [3, 3, 0, 1], [3, 3, 1, 0]]
            ),
        ]
        for shape in shapes:
            assert copies(grid, shape, big)

    def test_arity_below_two_rejected(self):
        with pytest.raises(InvalidSpace):
            ultrametric_urysohn_grid(DistanceSet((1,)), 1)


# --- reference Katetov tests: the Fraction loop, the inline int filter and
# the product loop that the one kernel replaced, kept verbatim ---------------

def _reference_is_katetov(x: FiniteMetricSpace, values) -> tuple[bool, tuple[int, int] | None]:
    """Check the two-sided Katetov inequality; witness is the least violating pair.

    Zero values are allowed here: a map vanishing at a point is identified
    with that point.  Only extend_with refuses them.
    """
    f = [as_fraction(v) for v in values]
    if len(f) != x.n:
        raise InvalidSpace(f"expected {x.n} values, got {len(f)}")
    if any(v < 0 for v in f):
        return False, None
    for i in range(x.n):
        for j in range(i + 1, x.n):
            if not (abs(f[i] - f[j]) <= x.d[i][j] <= f[i] + f[j]):
                return False, (i, j)
    return True, None


def _reference_katetov_maps(dist, size: int, ints) -> list[tuple[int, ...]]:
    """The maps F -> S that are Katetov over F, in product order, on ints.

    dist lists the distances within F in itertools.combinations order.
    """
    pairs = list(zip(itertools.combinations(range(size), 2), dist))
    return [
        f
        for f in itertools.product(ints, repeat=size)
        if all(abs(f[i] - f[j]) <= d <= f[i] + f[j] for (i, j), d in pairs)
    ]


def _reference_admissible_maps(x: FiniteMetricSpace, subset, s: DistanceSet):
    """All S-valued Katetov maps f over the subspace with F+f distances in S.

    Verbatim but for the test it runs, the reference one above.
    """
    sub = list(subset)
    space = FiniteMetricSpace._from_rows(tuple(tuple(x.d[i][j] for j in sub) for i in sub))
    for combo in itertools.product(s.values, repeat=len(sub)):
        ok, _ = _reference_is_katetov(space, combo)
        if ok:
            yield combo


def _unrealized(x: FiniteMetricSpace, s: DistanceSet, size_cap: int) -> list:
    """The pairs (F, f), |F| < size_cap and f an S-valued Katetov map over F,
    that no point of x realizes, by a scan of every subset of x."""
    return [
        (sub, f)
        for size in range(1, size_cap)
        for sub in itertools.combinations(range(x.n), size)
        for f in _reference_admissible_maps(x, sub, s)
        if not realizers(x, sub, f)
    ]


# --- closure keys: the canonical form of the Fraction space, read off ext ------

def _reference_closure_key(ext, scale, config=DEFAULT_CONFIG):
    """The key urysohn_approx read off the canonical order of ext / scale."""
    _, order = canonicalize(FiniteMetricSpace._from_rows(_fraction_rows(ext, scale)), config)
    return tuple(tuple(ext[a][b] for b in order) for a in order)


def _digits(values) -> dict:
    """The closure's digits over S, the positive values given: 0 first, then
    S increasing."""
    return {u: i for i, u in enumerate(sorted({0, *values}))}


def _decoded_key(ext, extra, config):
    """The closure's key of ext over S = ext's values and extra, under
    config.canon_bound, which the closure checks first, read back to ints."""
    _check_canon_bound(len(ext), config)
    digit = _digits([*itertools.chain(*ext), *extra])
    return _key_rows(_closure_key(ext, digit), len(ext), tuple(digit))


def _key_outcome(key, *args):
    try:
        return key(*args)
    except SearchTooLarge as exc:
        return str(exc)


@st.composite
def int_metric_matrices(draw, n=None):
    """Metric int matrices of n points (1-6 if not given) over at most three
    values, so twins and rows equal up to order are common."""
    n = n or draw(st.integers(1, 6))
    vals = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3, unique=True))
    m = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        m[i][j] = m[j][i] = draw(st.sampled_from(vals))
    for k, i, j in itertools.product(range(n), repeat=3):
        m[i][j] = min(m[i][j], m[i][k] + m[k][j])
    return m


TWIN_PAIRS = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
EQUILATERAL_6 = [[0 if i == j else 3 for j in range(6)] for i in range(6)]


class TestClosureKeys:
    @given(int_metric_matrices(), st.sampled_from((1, 2, 3, 7)), st.integers(1, 7),
           st.sets(st.integers(1, 20), max_size=3))
    @example([[0]], 1, 1, set())
    @example(EQUILATERAL_6, 2, 6, set())
    @example(EQUILATERAL_6, 2, 5, {1, 4})
    @example(TWIN_PAIRS, 3, 7, {3})
    @settings(max_examples=400, deadline=None)
    def test_int_key_matches_the_canonical_form(self, ext, scale, bound, extra):
        config = Config(canon_bound=bound)
        assert _key_outcome(_decoded_key, ext, extra, config) == _key_outcome(
            _reference_closure_key, ext, scale, config)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(int_metric_matrices(n), int_metric_matrices(n))),
           st.sets(st.integers(1, 20), max_size=2))
    @example((TWIN_PAIRS, TWIN_PAIRS), set())
    @example((TWIN_PAIRS, [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]), set())
    @settings(max_examples=300, deadline=None)
    def test_int_order_is_the_matrix_order(self, pair, extra):
        # two same-size F+f over one S: the ints compare as the matrices do
        digit = _digits([*itertools.chain(*pair[0], *pair[1]), *extra])
        (ka, kb), (ta, tb) = ([_closure_key(e, digit) for e in pair],
                              [_reference_closure_key(e, 1) for e in pair])
        assert (ka > kb) - (ka < kb) == (ta > tb) - (ta < tb)

    def test_a_cached_order_still_checks_the_bound(self):
        # a bound of 4 admits the 4-point F+f of |F| = 3 and keys it into the
        # process-wide table; a bound of 3 must still refuse the same S there
        s, size_cap, max_points = DistanceSet((1, 2)), 4, 8
        loose = _outcome(urysohn_approx, s, size_cap, max_points, 0, 4)
        assert loose == _outcome(_reference_urysohn_approx, s, size_cap, max_points, 0, 4)
        _, _, partial, pending = loose
        sub, f = next((sub, f) for k, _, sub, f in pending if k == 3)
        dist = tuple(partial[a][b].numerator for a, b in itertools.combinations(sub, 2))
        assert _pattern_maps((1, 2), 3, dist)[tuple(v.numerator for v in f)] is not None
        hits = _pattern_maps.cache_info().hits
        tight = _outcome(urysohn_approx, s, size_cap, max_points, 0, 3)
        assert _pattern_maps.cache_info().hits > hits
        assert tight == _outcome(_reference_urysohn_approx, s, size_cap, max_points, 0, 3)
        assert tight == ("refused", "canonicalization too large: n=4 > 3")

    def test_the_pattern_table_is_bounded(self):
        maxsize = _pattern_maps.cache_parameters()["maxsize"]
        assert maxsize is not None and 0 < maxsize < 10**5

    def test_twins_and_the_refusal(self):
        assert _decoded_key(TWIN_PAIRS, set(), DEFAULT_CONFIG) == tuple(map(tuple, TWIN_PAIRS))
        assert _decoded_key([[0, 5], [5, 0]], set(), DEFAULT_CONFIG) == ((0, 5), (5, 0))
        # digits 0 1 / 1 0 in base 2 over (0, 5)
        assert _closure_key([[0, 5], [5, 0]], {0: 0, 5: 1}) == 0b0110
        with pytest.raises(SearchTooLarge, match="canonicalization too large: n=4 > 3"):
            _decoded_key(TWIN_PAIRS, set(), Config(canon_bound=3))


MIXED = st.builds(Fraction, st.integers(0, 12), st.sampled_from((1, 2, 3, 4, 6)))
MAP_VALUES = st.builds(Fraction, st.integers(-2, 12), st.sampled_from((1, 2, 3, 5)))


@st.composite
def katetov_spaces(draw, max_n=8):
    """Metric spaces with mixed denominators, or unchecked and not metric."""
    n = draw(st.integers(0, max_n))
    if draw(st.booleans()):
        # unchecked: asymmetric, zero or negative entries, failing triangles
        entries = st.builds(Fraction, st.integers(-3, 12), st.sampled_from((1, 2, 3, 4)))
        return FiniteMetricSpace._from_rows(tuple(map(tuple, draw(st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))))
    w = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        w[i][j] = w[j][i] = draw(MIXED.filter(bool))
    for k, i, j in itertools.product(range(n), repeat=3):
        w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    return FiniteMetricSpace(w)


@st.composite
def spaces_and_maps(draw):
    x = draw(katetov_spaces())
    if draw(st.booleans()) and x.n:
        # the distances from a point, nudged: near-Katetov maps fail late
        p = draw(st.integers(0, x.n - 1))
        f = [x.d[p][q] + draw(st.sampled_from((0, 0, 0, Fraction(1, 2), -1))) for q in range(x.n)]
    else:
        f = draw(st.lists(MAP_VALUES, min_size=x.n, max_size=x.n))
    return x, f


class TestKernelMatchesReference:
    @given(spaces_and_maps())
    @settings(max_examples=600, deadline=None)
    def test_is_katetov(self, case):
        x, f = case
        assert is_katetov(x, f) == _reference_is_katetov(x, f)

    @given(katetov_spaces(max_n=7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_realizers(self, x, data):
        sub = data.draw(st.lists(st.integers(0, max(x.n - 1, 0)), max_size=min(x.n, 4), unique=True))
        if x.n and data.draw(st.booleans()):  # realized by point p at least
            p = data.draw(st.integers(0, x.n - 1))
            f = [x.d[p][q] for q in sub]
        else:
            f = data.draw(st.lists(MAP_VALUES, min_size=len(sub), max_size=len(sub)))
        assert _query_outcome(realizers, x, sub, f) == _query_outcome(_reference_realizers, x, sub, f)

    @given(katetov_spaces(), st.lists(MAP_VALUES, max_size=9))
    @settings(max_examples=100, deadline=None)
    def test_is_katetov_length_error(self, x, f):
        assume(len(f) != x.n)
        with pytest.raises(InvalidSpace) as got:
            is_katetov(x, f)
        with pytest.raises(InvalidSpace) as want:
            _reference_is_katetov(x, f)
        assert str(got.value) == str(want.value)

    @given(
        st.integers(0, 4).flatmap(lambda n: st.lists(
            st.lists(st.integers(-2, 9), min_size=n, max_size=n), min_size=n, max_size=n)),
        st.lists(st.integers(-1, 9), min_size=1, max_size=4, unique=True).map(sorted),
    )
    @settings(max_examples=300, deadline=None)
    def test_katetov_maps(self, m, ints):
        dist = [m[a][b] for a, b in itertools.combinations(range(len(m)), 2)]
        assert _katetov_maps(m, ints) == _reference_katetov_maps(dist, len(m), ints)

    def test_row_major_witness(self):
        # (0, 3) fails on |1 - 4| > 2 and (1, 2) on 1 + 1 < 3: row-major
        # order reports (0, 3), column-major would report (1, 2)
        x = FiniteMetricSpace([[0, 2, 2, 2], [2, 0, 3, 2], [2, 3, 0, 2], [2, 2, 2, 0]])
        f = (1, 1, 1, 4)
        assert is_katetov(x, f) == _reference_is_katetov(x, f) == (False, (0, 3))
        assert _katetov_witness([[2 * v for v in row] for row in x.d], [2, 2, 2, 8]) == (0, 3)

    def test_empty_space(self):
        x = FiniteMetricSpace([])
        assert is_katetov(x, []) == _reference_is_katetov(x, []) == (True, None)

    def test_one_point(self):
        x = FiniteMetricSpace.single_point()
        for v in (0, Fraction(1, 3), 5):
            assert is_katetov(x, [v]) == _reference_is_katetov(x, [v]) == (True, None)
        assert is_katetov(x, [-1]) == _reference_is_katetov(x, [-1]) == (False, None)

    def test_vanishing_value(self):
        x = path3()
        for f in ((0, 1, 2), (1, 0, 1), (0, 0, 2), (0, 1, 1)):
            assert is_katetov(x, f) == _reference_is_katetov(x, f)
        assert is_katetov(x, (0, 1, 2)) == (True, None)
        assert is_katetov(x, (0, 0, 2)) == (False, (0, 1))


# --- the queries on submetric spaces and Fractions that the int-view queries
# replaced, kept verbatim but for the Katetov test, the reference one above --

def _reference_refusal(f, witness, pair: str = "witness pair") -> str:
    """Why the Katetov test refused f: its witness pair, or its first negative point."""
    if witness is None:
        return f"negative value at point {next(i for i, v in enumerate(f) if v < 0)}"
    return f"{pair} {witness}"


def _reference_fraction_extend_with(x: FiniteMetricSpace, values) -> FiniteMetricSpace:
    """X plus one new point at distance f(x) from each x, with no triangle scan."""
    f = [as_fraction(v) for v in values]
    ok, witness = _reference_is_katetov(x, f)
    if not ok:
        raise InvalidSpace(f"not a Katetov map, {_reference_refusal(f, witness)}")
    for i, v in enumerate(f):
        if v == 0:
            raise InvalidSpace(f"map vanishes at point {i}: realized by existing point {i}")
    rows = tuple(row + (f[i],) for i, row in enumerate(x.d))
    return FiniteMetricSpace._from_rows(rows + ((*f, Fraction(0)),))


def _reference_shortest_extension(x: FiniteMetricSpace, sub, values) -> list[Fraction]:
    """Extend a Katetov map on a subspace to all of X by g(y) = min d(y,s) + f(s)."""
    sub = list(sub)
    if not sub:
        raise InvalidSpace("the empty subspace has no shortest extension")
    subx = x.submetric(sub)
    f = [as_fraction(v) for v in values]
    if len(f) != len(sub):
        raise InvalidSpace("one value per subspace point required")
    ok, witness = _reference_is_katetov(subx, f)
    if not ok:
        raise InvalidSpace(f"not Katetov over the subspace, witness {witness}")
    return [min(x.d[y][s] + f[k] for k, s in enumerate(sub)) for y in range(x.n)]


def _reference_submetric_realizers(x: FiniteMetricSpace, sub, values) -> list[int]:
    """Points of X at distance exactly f(s) from every s in the subspace."""
    sub = list(sub)
    subx = x.submetric(sub)
    f = tuple(map(as_fraction, values))
    ok, witness = _reference_is_katetov(subx, f)
    if not ok:
        raise InvalidSpace(f"not Katetov over the subspace, {_reference_refusal(f, witness, 'witness')}")
    return [y for y, row in enumerate(x.d) if tuple(map(row.__getitem__, sub)) == f]


def _reference_key_rows(key: int, n: int, values) -> tuple:
    """The n x n matrix that key holds, one power of the base per digit."""
    base = len(values)
    digits = [key // base ** e % base for e in reversed(range(n * n))]
    return tuple(tuple(values[i] for i in digits[a * n:(a + 1) * n]) for a in range(n))


def _query_outcome(query, *args):
    """The result, or the type and text of the error, for equality checks."""
    try:
        return query(*args)
    except InvalidSpace as exc:
        return "InvalidSpace", str(exc)


# map values: negative, zero and mixed denominators; finer than every host's
# scale (sevenths and elevenths); tokens good and malformed
QUERY_TOKENS = st.one_of(
    MAP_VALUES,
    st.builds(Fraction, st.integers(1, 12), st.sampled_from((7, 11))),
    st.sampled_from(("3/2", "-1", "abc", "1/0", "", 1.5, True, None)),
)


@st.composite
def query_cases(draw, min_size=0):
    """A host from katetov_spaces, a subset of at least min_size entries that
    may hold out-of-range and repeated points, and a map on it: often the
    distances from one point, with at most one entry swapped for a drawn
    token, sometimes a value too few or too many."""
    x = draw(katetov_spaces(max_n=6))
    points = st.integers(0, x.n - 1) if x.n else st.nothing()
    anywhere = st.lists(st.integers(-2, x.n + 1), min_size=min_size, max_size=4)
    sub = draw(st.one_of(st.lists(points, min_size=min_size, max_size=min(x.n, 4), unique=True), anywhere)
               if x.n >= min_size else anywhere)
    if x.n and draw(st.booleans()):
        p = draw(points)
        f = [x.d[p][q] if 0 <= q < x.n else Fraction(1) for q in sub]
        if f and draw(st.booleans()):
            f[draw(st.integers(0, len(f) - 1))] = draw(QUERY_TOKENS)
    else:
        f = draw(st.lists(QUERY_TOKENS, min_size=len(sub), max_size=len(sub)))
    change = draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
    f = f[:-1] if change < 0 else f + [Fraction(1)] * change
    return x, sub, f


@st.composite
def extension_cases(draw):
    """A host from katetov_spaces and a map on all of it: the distances from
    one point, nudged (zero at that point unless nudged), or drawn tokens,
    sometimes a value too few or too many."""
    x = draw(katetov_spaces(max_n=6))
    if x.n and draw(st.booleans()):
        p = draw(st.integers(0, x.n - 1))
        f = [x.d[p][q] + draw(st.sampled_from((0, 0, 0, Fraction(1, 2), Fraction(1, 7), -1)))
             for q in range(x.n)]
        if draw(st.booleans()):
            f[draw(st.integers(0, x.n - 1))] = draw(QUERY_TOKENS)
    else:
        f = draw(st.lists(QUERY_TOKENS, min_size=x.n, max_size=x.n))
    change = draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
    f = f[:-1] if change < 0 else f + [Fraction(1)] * change
    return x, f


class TestQueriesMatchReference:
    """Each query on the host's int view gives the result, the refusal and
    the message of the submetric and Fraction code it replaced, in the same
    order of refusals."""

    @given(query_cases())
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [0, 0], [1, 1]))
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [0, 2], ["abc", 1]))
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [0, 1], [Fraction(1, 7), Fraction(8, 7)]))
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [0, 1], [-1, 5]))
    @settings(max_examples=300, deadline=None)
    def test_realizers(self, case):
        assert _query_outcome(realizers, *case) == _query_outcome(_reference_submetric_realizers, *case)

    @given(query_cases(min_size=1))
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [], []))
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [1, 1], ["abc"]))
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [1], [-1]))
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [0, 1], [Fraction(1, 7), Fraction(8, 7)]))
    @settings(max_examples=300, deadline=None)
    def test_shortest_extension(self, case):
        assert _query_outcome(shortest_extension, *case) == _query_outcome(_reference_shortest_extension, *case)

    @given(extension_cases())
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [-1, 5]))
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [1, 0]))
    @example((FiniteMetricSpace([[0, 1], [1, 0]]), [Fraction(1, 7), Fraction(8, 7)]))
    @settings(max_examples=300, deadline=None)
    def test_extend_with(self, case):
        got, want = (_query_outcome(ext, *case) for ext in (extend_with, _reference_fraction_extend_with))
        if isinstance(want, FiniteMetricSpace):
            assert isinstance(got, FiniteMetricSpace) and got.d == want.d
        else:
            assert got == want

    @given(st.integers(1, 5), st.integers(2, 7), st.data())
    @settings(max_examples=300, deadline=None)
    def test_key_rows(self, n, base, data):
        # keys past n * n digits too: both read the last n * n digits
        key = data.draw(st.integers(0, base ** (n * n + 2)))
        values = tuple(Fraction(i, 3) for i in range(base))
        assert _key_rows(key, n, values) == _reference_key_rows(key, n, values)


@st.composite
def adjoin_inputs(draw):
    """An int metric space, the distances from one more point over a subset,
    and S as ints: a Katetov map to adjoin."""
    n = draw(st.integers(1, 6))
    w = [[0] * (n + 1) for _ in range(n + 1)]
    for i, j in itertools.combinations(range(n + 1), 2):
        w[i][j] = w[j][i] = draw(st.integers(1, 8))
    for k, i, j in itertools.product(range(n + 1), repeat=3):
        w[i][j] = min(w[i][j], w[i][k] + w[k][j])
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    ints = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=5)))
    f = [w[n][k] for k in subset]
    return ints, [row[:n] for row in w[:n]], subset, f, draw(st.integers(0, 99))


@given(adjoin_inputs())
@settings(max_examples=300, deadline=None)
def test_adjoin_point_candidates_are_the_kernels(case):
    """Each point's candidates are the values of S that the Katetov kernel
    accepts over the points placed before it, with that point added."""
    ints, m, subset, f, seed = case
    rng = random.Random(seed)
    placed = dict(zip(subset, f))
    rest = iter([y for y in range(len(m)) if y not in placed])

    def accepted(y):
        pts = [*placed, y]
        d = [[m[a][b] for b in pts] for a in pts]
        return [u for u in ints if _katetov_witness(d, [*placed.values(), u]) is None]

    def choose(candidates):
        y = next(rest)
        assert candidates == accepted(y)
        placed[y] = rng.choice(candidates)
        return placed[y]

    try:
        four_values._adjoin_point(ints, 1, [row[:] for row in m], subset, f, choose)
    except InvalidSpace as exc:
        assert "stuck" in str(exc)
        assert accepted(next(rest)) == []
