import dataclasses
import itertools
import random
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finmetric.partitions import (
    ColoringOutcome,
    GreedyResult,
    IndivisibilityReport,
    NetSystem,
    PreconditionError,
    annulus_lemma_check,
    band_color,
    divisibility_coloring,
    epsilon_neighborhood,
    greedy_monochromatic,
    indivisibility_search,
    lambda_epsilon,
)
from finmetric.cli import main
from finmetric.katetov import urysohn_approx
from finmetric.spaces import (
    DEFAULT_CONFIG,
    Config,
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    copies,
)


def _reference_monochromatic_copy(x, target, coloring, k, config):
    """First monochromatic copy of target, scanning color classes in order."""
    for color in range(k):
        cls = [p for p in range(x.n) if coloring[p] == color]
        if len(cls) < target.n:
            continue
        sub = x.submetric(cls)
        found = copies(sub, target, config)
        if found:
            chosen = found[0]
            return tuple(cls[i] for i in chosen), color
    return None, None


def _reference_indivisibility_search(
    x, target, k=2, mode="exhaustive", samples=100, seed=0, budget=2 ** 16,
    config=DEFAULT_CONFIG,
):
    """The per-coloring search: one copy search per color class of each coloring."""
    if k < 1:
        raise InvalidSpace(f"need at least 1 color, got k={k}")
    cfg = dataclasses.replace(config, copies_bound=max(config.copies_bound, x.n))
    outcomes = []
    if mode == "exhaustive":
        total = k ** max(x.n - 1, 0)
        if total > budget:
            raise SearchTooLarge(
                f"exhaustive coloring scan too large: {total} > {budget}"
            )
        iterator = (
            (0,) + tail for tail in itertools.product(range(k), repeat=max(x.n - 1, 0))
        )
        exhaustive = True
    elif mode == "sampled":
        if samples < 1:
            raise InvalidSpace(f"need at least 1 sample, got {samples}")
        rng = random.Random(seed)
        iterator = (
            tuple(rng.randrange(k) for _ in range(x.n)) for _ in range(samples)
        )
        exhaustive = False
    else:
        raise InvalidSpace(f"unknown mode {mode!r}")
    for coloring in iterator:
        copy, color = _reference_monochromatic_copy(x, target, coloring, k, cfg)
        outcomes.append(ColoringOutcome(coloring, copy is not None, copy, color))
    return IndivisibilityReport(outcomes, exhaustive)


def _reference_band_color(d, r):
    """The annulus rule band by band: 0 on [r(1-1/2n), r(1-1/(2n+1))), else 1."""
    d, r = Fraction(d), Fraction(r)
    if d == 0:
        return 0
    if d >= r:
        return 1
    for n in itertools.count(1):
        lo = r * (1 - Fraction(1, 2 * n))
        hi = r * (1 - Fraction(1, 2 * n + 1))
        if d < lo:
            return 1
        if lo <= d < hi:
            return 0


@st.composite
def band_inputs(draw):
    """(d, r) with r positive: d anywhere in [0, 2r], or on a band endpoint
    r(1 - 1/k), or just beside one."""
    r = Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 60)))
    kind = draw(st.sampled_from(("any", "endpoint", "beside")))
    if kind == "any":
        return Fraction(draw(st.integers(0, 400)), 200) * r, r
    d = r * (1 - Fraction(1, draw(st.integers(1, 40))))
    if kind == "beside":
        d += draw(st.sampled_from((-1, 1))) * r / draw(st.integers(10**3, 10**5))
    return max(d, Fraction(0)), r


def _reference_greedy_monochromatic(x, coloring, target):
    """The greedy chase with one scan for the candidates and another for the orbit."""
    coloring = tuple(coloring)
    if len(coloring) != x.n:
        raise InvalidSpace("coloring must assign every point")
    for color in coloring:
        if color not in (0, 1):
            raise InvalidSpace(f"color {color} outside {{0, 1}}")

    def chase(allowed, color):
        chosen: list[int] = []
        for t in range(target.n):
            candidates = [
                p
                for p in allowed
                if p not in chosen
                and coloring[p] == color
                and all(x.d[p][chosen[j]] == target.d[t][j] for j in range(t))
            ]
            if candidates:
                chosen.append(candidates[0])
                continue
            # orbit set: points completing the partial copy regardless of color
            orbit = tuple(
                p
                for p in allowed
                if p not in chosen
                and all(x.d[p][chosen[j]] == target.d[t][j] for j in range(t))
            )
            return chosen, orbit
        return chosen, None

    chosen0, orbit = chase(range(x.n), 0)
    if orbit is None:
        return GreedyResult(tuple(chosen0), 0, True)
    chosen1, orbit1 = chase(orbit, 1)
    if orbit1 is None:
        return GreedyResult(tuple(chosen1), 1, True, obstruction=orbit)
    best, color = (
        (chosen0, 0) if len(chosen0) >= len(chosen1) else (chosen1, 1)
    )
    return GreedyResult(tuple(best), color, False, obstruction=orbit)


@st.composite
def indivisibility_cases(draw):
    """A space of 1-9 points and a 0-4 point target: a subspace or a free shape.

    Every distance lies in [3, 6], so every symmetric matrix is a metric; a
    free target may use a distance the space lacks.
    """
    n = draw(st.integers(1, 9))
    values = draw(st.lists(st.integers(3, 6), min_size=1, max_size=3, unique=True))
    rows = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = draw(st.sampled_from(values))
    x = FiniteMetricSpace(rows)
    m = draw(st.integers(0, 4))
    if draw(st.booleans()):
        target = x.submetric(draw(st.permutations(range(n)))[:m])
    else:
        t = [[0] * m for _ in range(m)]
        for i, j in itertools.combinations(range(m), 2):
            t[i][j] = t[j][i] = draw(st.integers(3, 6))
        target = FiniteMetricSpace(t)
    return x, target


def line_space(positions):
    # |p - q| on the rational line is a metric, so the rows are proved; the
    # annulus tests build a thousand of these, and a checked build of each
    # would only re-prove it
    pos = [Fraction(p) for p in positions]
    return FiniteMetricSpace._from_rows(tuple(tuple(abs(p - q) for q in pos) for p in pos))


class TestEpsilonNeighborhood:
    def test_zero_epsilon_identity(self):
        x = FiniteMetricSpace.equilateral(4, 2)
        assert epsilon_neighborhood(x, [1, 2], 0) == [1, 2]

    def test_diameter_covers_all(self):
        x = FiniteMetricSpace.equilateral(4, 2)
        assert epsilon_neighborhood(x, [0], 2) == [0, 1, 2, 3]

    def test_equilateral_2_with_eps_1(self):
        x = FiniteMetricSpace.equilateral(4, 2)
        assert epsilon_neighborhood(x, [0, 3], 1) == [0, 3]

    @pytest.mark.parametrize("point", [-1, 5])
    def test_subset_point_out_of_range_rejected(self, point):
        # -1 was read as point 2 and 5 raised IndexError
        x = FiniteMetricSpace([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        with pytest.raises(InvalidSpace, match=f"point {point} out of range for a 3-point space"):
            epsilon_neighborhood(x, [point], 0)


class TestIndivisibilitySearch:
    def test_pigeonhole_on_equilateral(self):
        x = FiniteMetricSpace.equilateral(6, 1)
        target = FiniteMetricSpace.equilateral(3, 1)
        report = indivisibility_search(x, target, k=2)
        assert report.exhaustive and report.all_monochromatic()

    def test_target_larger_than_space(self):
        x = FiniteMetricSpace.equilateral(2, 1)
        target = FiniteMetricSpace.equilateral(3, 1)
        report = indivisibility_search(x, target, k=2)
        assert not report.all_monochromatic()
        assert all(not o.found for o in report.outcomes)

    def test_rado_like_space_pair_report(self):
        space, _ = urysohn_approx(DistanceSet((1, 2)), 3)
        target = FiniteMetricSpace([[0, 1], [1, 0]])
        report = indivisibility_search(
            x=space, target=target, k=2, mode="sampled", samples=40, seed=5
        )
        # found copies must be genuine
        for o in report.outcomes:
            if o.found:
                i, j = o.copy_indices
                assert space.d[i][j] == 1
                assert o.coloring[i] == o.coloring[j] == o.color

    def test_exhaustive_report_consistency_on_closure_subspace(self):
        # exhaustive scan over a 10-point subspace of the Rado-like closure:
        # every reported copy is genuine and every failure is a real failure
        space, _ = urysohn_approx(DistanceSet((1, 2)), 3)
        sub = space.submetric(range(10))
        target = FiniteMetricSpace([[0, 1], [1, 0]])
        report = indivisibility_search(sub, target, k=2)
        assert report.exhaustive and len(report.outcomes) == 2 ** 9
        for o in report.outcomes:
            classes = [
                [p for p in range(10) if o.coloring[p] == c] for c in (0, 1)
            ]
            has_copy = any(
                sub.d[a][b] == 1
                for cls in classes
                for i, a in enumerate(cls)
                for b in cls[i + 1 :]
            )
            assert o.found == has_copy
            if o.found:
                i, j = o.copy_indices
                assert sub.d[i][j] == 1
                assert o.coloring[i] == o.coloring[j] == o.color

    def test_sampled_mode_reproducible(self):
        x = FiniteMetricSpace.equilateral(5, 1)
        t = FiniteMetricSpace.equilateral(2, 1)
        a = indivisibility_search(x, t, k=3, mode="sampled", samples=20, seed=9)
        b = indivisibility_search(x, t, k=3, mode="sampled", samples=20, seed=9)
        assert [o.coloring for o in a.outcomes] == [o.coloring for o in b.outcomes]


    @given(
        indivisibility_cases(),
        st.integers(1, 3),
        st.sampled_from(["exhaustive", "sampled"]),
        st.integers(1, 12),
        st.integers(0, 1000),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case, k, mode, samples, seed):
        # budget 2**10 sends 3 colors on 8-9 points over budget in both
        x, target = case
        kwargs = dict(k=k, mode=mode, samples=samples, seed=seed, budget=2 ** 10)
        try:
            want = _reference_indivisibility_search(x, target, **kwargs)
        except SearchTooLarge as exc:
            with pytest.raises(SearchTooLarge) as got:
                indivisibility_search(x, target, **kwargs)
            assert str(got.value) == str(exc)
            return
        got = indivisibility_search(x, target, **kwargs)
        assert got.exhaustive == want.exhaustive
        assert got.outcomes == want.outcomes

    def test_over_budget(self):
        x = FiniteMetricSpace.equilateral(9, 1)
        target = FiniteMetricSpace.equilateral(2, 1)
        for search in (indivisibility_search, _reference_indivisibility_search):
            with pytest.raises(SearchTooLarge, match=r"too large: 6561 > 6560$"):
                search(x, target, k=3, budget=6560)

    def test_huge_k_tries_only_the_colors_used(self):
        # k ** (n - 1) is 1 on one point, so the budget lets any k through
        x, target = FiniteMetricSpace.single_point(), FiniteMetricSpace.equilateral(2, 1)
        start = time.perf_counter()
        exhaustive = indivisibility_search(x, target, k=10 ** 12)
        sampled = indivisibility_search(x, target, k=10 ** 12, mode="sampled", samples=3, seed=0)
        assert time.perf_counter() - start < 1
        assert exhaustive.outcomes == [ColoringOutcome((0,), False, None, None)]
        assert [o.found for o in sampled.outcomes] == [False] * 3

    def test_empty_space(self):
        empty = FiniteMetricSpace([])
        report = indivisibility_search(empty, empty, k=2)
        assert report.exhaustive
        assert report.outcomes == [ColoringOutcome((), True, (), 0)]
        assert report.outcomes[0].to_json_dict() == {
            "coloring": [], "found": True, "copyIndices": [], "color": 0,
        }
        report = indivisibility_search(empty, FiniteMetricSpace.equilateral(1, 1), k=3)
        assert report.outcomes == [ColoringOutcome((), False, None, None)]
        assert not report.all_monochromatic()


class TestGreedyMonochromatic:
    def test_constant_coloring_full_copy(self):
        space, _ = urysohn_approx(DistanceSet((1, 2)), 3)
        target = FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        res = greedy_monochromatic(space, [0] * space.n, target)
        assert res.complete and res.color == 0
        sub = space.submetric(res.copy_indices)
        assert sub == target

    def test_alternating_on_equilateral(self):
        x = FiniteMetricSpace.equilateral(6, 1)
        coloring = [i % 2 for i in range(6)]
        target = FiniteMetricSpace.equilateral(3, 1)
        res = greedy_monochromatic(x, coloring, target)
        assert res.complete
        assert len(res.copy_indices) == 3

    @given(indivisibility_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_chase(self, case, data):
        x, target = case
        coloring = data.draw(st.lists(st.integers(0, 1), min_size=x.n, max_size=x.n))
        assert greedy_monochromatic(x, coloring, target) == _reference_greedy_monochromatic(
            x, coloring, target)

    def test_random_colorings_validated_by_copies(self):
        space, _ = urysohn_approx(DistanceSet((1, 2)), 3)
        path4 = FiniteMetricSpace(
            [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]]
        )
        rng = random.Random(12)
        complete_runs = 0
        for _ in range(12):
            coloring = [rng.randrange(2) for _ in range(space.n)]
            res = greedy_monochromatic(space, coloring, path4)
            if res.complete:
                complete_runs += 1
                sub = space.submetric(res.copy_indices)
                assert sub == path4
                assert len({coloring[p] for p in res.copy_indices}) == 1
            else:
                assert res.obstruction is not None
        assert complete_runs  # the space is rich enough for some to finish


def small_net_space():
    """Five points split between two centers, radii clear of band endpoints."""
    # center 0 owns points 1 (d = 21/100) and 2 (d = 29/100); center 3 owns 4
    rows = [[Fraction(0)] * 5 for _ in range(5)]

    def put(i, j, v):
        rows[i][j] = rows[j][i] = Fraction(v)

    put(0, 1, "21/100")
    put(0, 2, "29/100")
    put(1, 2, "1/5")
    put(0, 3, "9/10")
    put(0, 4, "9/10")
    put(1, 3, "9/10")
    put(1, 4, "9/10")
    put(2, 3, "9/10")
    put(2, 4, "9/10")
    put(3, 4, "21/100")
    x = FiniteMetricSpace(rows)
    net = NetSystem(
        centers=(0, 3), radii={0: Fraction(2, 5), 3: Fraction(2, 5)}
    )
    return x, net


class TestDivisibilityColoring:
    def test_center_gets_base_color(self):
        x, net = small_net_space()
        colors = divisibility_coloring(x, net)
        assert colors[0] == 0 and colors[3] == 0

    def test_band_arithmetic(self):
        x, net = small_net_space()
        colors = divisibility_coloring(x, net)
        # d(0,1) = 21/100 inside the first 0-band [r/2, 2r/3) = [20, 26.66)/100
        assert colors[1] == 0
        # d(0,2) = 29/100 in the gap between 2r/3 and 3r/10*... next 0-band
        # starts at r(1-1/4) = 30/100, so 29/100 is odd territory
        assert colors[2] == 1

    def test_band_rule_closed_left_endpoint(self):
        # the classic instance: r = 2/5, d = 1/5 = r(1 - 1/2) opens the first
        # even band, so the rule itself assigns color 0 at the endpoint
        r = Fraction(2, 5)
        assert band_color(Fraction(1, 5), r) == 0
        assert band_color(Fraction(4, 15), r) == 1  # right endpoint excluded
        assert band_color(Fraction(0), r) == 0
        assert band_color(Fraction(3, 10), r) == 0  # second even band opens

    def test_band_rule_at_and_past_the_radius(self):
        # every band lies below r, so d >= r takes 1, r <= 0 included; the
        # alarm turns a band loop that never ends into a failure
        def hang(signum, frame):
            raise TimeoutError("band_color did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            r = Fraction(1, 4)
            assert band_color(r, r) == 1
            assert band_color(Fraction(1), r) == 1
            assert band_color(Fraction(1), Fraction(0)) == 1
            assert band_color(Fraction(1), Fraction(-1)) == 1
            assert band_color(Fraction(0), Fraction(0)) == 0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @given(band_inputs())
    @settings(max_examples=300, deadline=None)
    def test_band_color_matches_the_band_loop(self, case):
        d, r = case
        assert band_color(d, r) == _reference_band_color(d, r)

    def test_color_divide_close_to_the_radius(self, capsys, tmp_path):
        # d = r(1 - 2/(2*10**6 + 1)) with r = 1/3, in band 10**6: the band
        # loop took seconds here; the alarm turns a slow rule into a failure
        f = tmp_path / "near.txt"
        f.write_text("points: 2\n0 1999999/6000003\n1999999/6000003 0\n")

        def slow(signum, frame):
            raise TimeoutError("color divide did not finish within 1 s")

        previous = signal.signal(signal.SIGALRM, slow)
        signal.alarm(1)
        try:
            code = main(["color", "divide", "--space", str(f), "--centers", "0", "--radii", "1/3"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 0 and capsys.readouterr().out.strip() == "coloring: 00"

    def test_same_band_same_color(self):
        x, net = small_net_space()
        colors = divisibility_coloring(x, net)
        # points 1 and 4 sit at equal distance from their centers
        assert colors[1] == colors[4]

    def test_uncovered_point_rejected(self):
        x, _ = small_net_space()
        bad = NetSystem(centers=(0,), radii={0: Fraction(2, 5)})
        with pytest.raises(InvalidSpace):
            divisibility_coloring(x, bad)

    def test_endpoint_collision_rejected(self):
        rows = [[Fraction(0), Fraction(1, 4)], [Fraction(1, 4), Fraction(0)]]
        x = FiniteMetricSpace(rows)
        # d/r = (1/4)/(49/100) = 25/49 -> 1/(1 - 25/49) = 49/24, not an integer
        good = NetSystem(centers=(0,), radii={0: Fraction(49, 100)})
        divisibility_coloring(x, good)
        # d/r = (1/4)/(3/8) = 2/3 -> 1/(1 - 2/3) = 3: exactly a band endpoint
        bad = NetSystem(centers=(0,), radii={0: Fraction(3, 8)})
        with pytest.raises(InvalidSpace, match="endpoint"):
            divisibility_coloring(x, bad)


class TestAnnulusLemma:
    def test_constructed_line_chain(self):
        # y at 0; start at 1/10; end at 9/10; r = 2/5 (so band n=1: [1/5, 4/15))
        positions = [Fraction(0), Fraction(1, 10)]
        step = Fraction(1, 30)
        p = Fraction(1, 10)
        while p < Fraction(9, 10):
            p = min(p + step, Fraction(9, 10))
            positions.append(p)
        x = line_space(positions)
        idx = annulus_lemma_check(
            x,
            y=0,
            start=1,
            end=len(positions) - 1,
            r=Fraction(2, 5),
            n=1,
            chain=list(range(1, len(positions))),
            eps=Fraction(1, 30),
        )
        d = x.d[0][list(range(1, len(positions)))[idx]]
        assert Fraction(1, 5) <= d < Fraction(4, 15)

    def test_eps_violation_named(self):
        positions = [0, Fraction(1, 10), Fraction(9, 10)]
        x = line_space(positions)
        with pytest.raises(PreconditionError, match="chain step"):
            annulus_lemma_check(
                x, 0, 1, 2, Fraction(2, 5), 1, [1, 2], Fraction(1, 30)
            )

    @pytest.mark.parametrize("args, message", [
        ((0, 1, 2, Fraction(1, 2), 0, [1, 2], Fraction(1, 100)), "n must be at least 1"),
        ((2, 0, 1, Fraction(1, 2), 1, [0, 1], Fraction(1, 100)),
         "start point too far from the center: d=1 >= 1/4"),
        ((0, 0, 1, 2, 1, [0, 1], Fraction(1, 100)), "end point is not beyond radius r from the start"),
        ((0, 0, 2, Fraction(1, 2), 1, [0, 2], Fraction(1, 2)), "eps is not below 1/((n+1)(n+2))"),
    ], ids=["n-below-one", "start-too-far", "end-within-r", "eps-too-large"])
    def test_each_precondition_named(self, args, message):
        # y = 0 and 1 sit 1/10 apart, 2 is 1 from both
        x = FiniteMetricSpace([[0, Fraction(1, 10), 1], [Fraction(1, 10), 0, 1], [1, 1, 0]])
        with pytest.raises(PreconditionError) as exc:
            annulus_lemma_check(x, *args)
        assert str(exc.value) == message

    def test_thousand_random_instances(self):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(1, 3)
            r = Fraction(rng.randint(5, 45), 100) + Fraction(1, 997)
            band_width = r * (Fraction(1, n + 1) - Fraction(1, n + 2))
            eps_cap = Fraction(1, (n + 1) * (n + 2))
            eps = min(eps_cap, band_width) * Fraction(rng.randint(50, 99), 100)
            start_d = r * (1 - Fraction(1, n + 1)) * Fraction(rng.randint(1, 98), 100)
            positions = [Fraction(0), start_d]
            goal = start_d + r + Fraction(1, 53)
            p = start_d
            while p < goal:
                p = p + eps * Fraction(rng.randint(60, 100), 100)
                positions.append(p)
            x = line_space(positions)
            chain = list(range(1, len(positions)))
            idx = annulus_lemma_check(
                x, 0, 1, len(positions) - 1, r, n, chain, eps
            )
            d = x.d[0][chain[idx]]
            assert r * (1 - Fraction(1, n + 1)) <= d < r * (1 - Fraction(1, n + 2))

    def test_literal_preconditions_do_not_suffice(self):
        # documented finding: a single allowed step can jump the whole band
        r = Fraction(1, 100)
        x = line_space([0, Fraction(1, 400), Fraction(1, 400) + Fraction(1, 50)])
        with pytest.raises(AssertionError):
            annulus_lemma_check(
                x, 0, 1, 2, r, 1, [1, 2], Fraction(1, 7)
            )


class TestLambdaEpsilon:
    def test_isolated_point(self):
        x = FiniteMetricSpace([[0, 1], [1, 0]])
        assert lambda_epsilon(x, 0, Fraction(1, 2)) == 0

    def test_chain_spans_one(self):
        x = line_space([0, Fraction(1, 2), 1])
        assert lambda_epsilon(x, 0, Fraction(1, 2)) == 1

    def test_eps_at_diameter(self):
        x = FiniteMetricSpace.equilateral(3, Fraction(1, 3))
        assert lambda_epsilon(x, 1, 2) == Fraction(1, 3)

    def test_monotone_in_eps(self):
        x = line_space([0, Fraction(1, 4), Fraction(1, 2), Fraction(7, 8)])
        values = [
            lambda_epsilon(x, 0, e)
            for e in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))
        ]
        assert values == sorted(values)
        assert all(v <= 1 for v in values)

    @pytest.mark.parametrize("point", [-1, 3, 7])
    def test_point_out_of_range(self, point):
        x = FiniteMetricSpace.equilateral(3, 1)
        with pytest.raises(InvalidSpace, match="out of range"):
            lambda_epsilon(x, point, Fraction(1, 2))
