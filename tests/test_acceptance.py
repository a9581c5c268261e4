"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are exact (rational arithmetic) unless a runtime bound is stated.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from finmetric import four_values, hedgehog, katetov, milliken, partitions, ramsey, ultratrees
from finmetric.four_values import (
    bad_quadruples,
    check_four_values,
    is_good,
    outer_swap,
    swap,
)
from finmetric.spaces import (
    Config,
    DistanceSet,
    EdgeLabelledGraph,
    FiniteMetricSpace,
    canonical_key,
    complete,
    copies,
    isometries,
)

from test_four_values import (
    CLASSIFICATION,
    TABLES,
    VERDICTS_FALSE,
    VERDICTS_TRUE,
    brute_force_one_point_oracle,
    one_point_configurations,
)
from test_katetov import _reference_admissible_maps
from test_ultratrees import (
    _reference_convex_orderings_count,
    _reference_linear_extensions,
    all_tree_shapes,
    random_ultrametric,
    space_from_shape,
)


def ds(*vals):
    return DistanceSet(vals)


def announce(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def test_criterion_1_appendix_reproduction():
    slowest = 0.0
    for s in VERDICTS_TRUE:
        t0 = time.time()
        assert check_four_values(ds(*s)), f"{s} should satisfy the condition"
        slowest = max(slowest, time.time() - t0)
    for s, named in VERDICTS_FALSE.items():
        t0 = time.time()
        res = check_four_values(ds(*s))
        assert not res, f"{s} should fail the condition"
        if named is not None:
            sset = ds(*s)
            assert not is_good(named, sset)
            assert is_good(swap(named), sset) or is_good(outer_swap(named), sset)
        slowest = max(slowest, time.time() - t0)
    for s, expected in TABLES.items():
        t0 = time.time()
        rows = bad_quadruples(ds(*s))
        got = {((r.interval.lo, r.interval.hi), r.quadruple) for r in rows}
        want = {
            ((Fraction(a), Fraction(b)), tuple(Fraction(v) for v in quad))
            for (a, b), quad in expected
        }
        assert got == want, f"table mismatch for {s}"
        assert not any(r.unresolved for r in rows)
        slowest = max(slowest, time.time() - t0)
    assert slowest < 1.0, f"slowest set took {slowest:.2f}s"

    # the same verdicts through the command-line verbs, with exit codes
    from finmetric.cli import main as cli_main

    for s in VERDICTS_TRUE:
        assert cli_main(["check4v", *map(str, s)]) == 0
    for s in VERDICTS_FALSE:
        assert cli_main(["check4v", *map(str, s)]) == 1
    for s in TABLES:
        assert cli_main(["badquads", *map(str, s)]) == 0
    announce(1, f"{len(VERDICTS_TRUE)} true + {len(VERDICTS_FALSE)} false verdicts, "
                f"{len(TABLES)} tables (library and CLI), slowest set {slowest * 1000:.0f} ms")


def test_criterion_2_classification():
    for s, expected in CLASSIFICATION.items():
        assert bool(check_four_values(ds(*s))) is expected, s
    announce(2, f"{len(CLASSIFICATION)} small-set verdicts match")


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for size in (1, 2, 3, 4):
        for combo in itertools.combinations(range(1, 9), size):
            sset = ds(*combo)
            assert bool(check_four_values(sset)) == brute_force_one_point_oracle(sset)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    announce(3, f"{checked} distance sets cross-checked in {elapsed:.1f}s")


def test_criterion_3b_amalgamation_constructive():
    # constructive side: every V-configuration amalgamates when 4-values holds,
    # and the witness quadruple yields a stuck configuration when it fails
    for combo in itertools.combinations(range(1, 9), 3):
        sset = ds(*combo)
        res = check_four_values(sset)
        if res.holds:
            for t, (s0, s1), (s0p, s1p) in one_point_configurations(sset):
                out = four_values.amalgamate(
                    sset,
                    FiniteMetricSpace([[0, t, s0], [t, 0, s1], [s0, s1, 0]]),
                    FiniteMetricSpace([[0, t, s0p], [t, 0, s1p], [s0p, s1p, 0]]),
                    [0, 1],
                    [0, 1],
                )
                assert out.distances() <= set(sset.values)
        else:
            u0, u1, u2, u3 = res.witness if is_good(res.witness, sset) else res.witness_swap
            # the good member supplies the V-configuration with no completion
            candidates = [t for t in sset.values
                          if abs(u0 - u1) <= t <= u0 + u1 and abs(u2 - u3) <= t <= u2 + u3]
            t = candidates[0]
            y0 = FiniteMetricSpace([[0, t, u0], [t, 0, u1], [u0, u1, 0]])
            y1 = FiniteMetricSpace([[0, t, u2], [t, 0, u3], [u2, u3, 0]])
            with pytest.raises(four_values.AmalgamationError):
                four_values.amalgamate(sset, y0, y1, [0, 1], [0, 1])
    announce("3b", "amalgamation succeeds/fails exactly with the 4-values verdict")


def test_criterion_4_ultrametric_degrees():
    for n in range(3, 7):
        rec = ultratrees.ramsey_degree_ultrametric(ultratrees.comb_space(n))
        assert rec.degree == 2 ** (n - 2), f"comb {n}"
    grid22 = FiniteMetricSpace(
        [[0, 1, 3, 3], [1, 0, 3, 3], [3, 3, 0, 1], [3, 3, 1, 0]]
    )
    assert ultratrees.ramsey_degree_ultrametric(grid22).degree == 1
    shapes = 0
    for n_leaves in range(2, 7):
        for depth, shape in all_tree_shapes(n_leaves):
            x = space_from_shape(depth, shape)
            assert ultratrees.convex_orderings_count(x) == _reference_convex_orderings_count(x)
            if ultratrees.is_uniformly_branching(x):
                assert ultratrees.ramsey_degree_ultrametric(x).degree == 1
            shapes += 1
    announce(4, f"comb degrees 2^(n-2) for n=3..6; formula = brute force on {shapes} shapes")


def test_criterion_5_fichet():
    rng = random.Random(2024)
    for trial in range(200):
        x = random_ultrametric(rng, rng.randint(2, 8))
        for p in (1, 2, 3):
            rep = ultratrees.fichet_embedding(x, p)  # identities asserted inside
            assert rep.dimension <= x.n * (x.n + 1) // 2
    announce(5, "200 random spaces, p in {1,2,3}: exact weight identities and bound")


def _all_rooted_trees(max_nodes):
    """Canonical parent arrays of all rooted trees with <= max_nodes nodes."""

    def ahu(parents):
        n = len(parents)
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[parents[v]].append(v)

        def code(v):
            return "(" + "".join(sorted(code(c) for c in children[v])) + ")"

        return code(0)

    out = []
    for n in range(1, max_nodes + 1):
        seen = set()
        for combo in itertools.product(*(range(i) for i in range(1, n))):
            parents = [-1] + list(combo)
            key = ahu(parents)
            if key not in seen:
                seen.add(key)
                out.append(parents)
    return out


def test_criterion_6_big_ramsey_degree():
    trees = _all_rooted_trees(10)
    for parents in trees:
        assert ultratrees.linear_extensions_tree(parents) == _reference_linear_extensions(parents)
    for svals in ((1,), (1, 2), (1, 2, 5), (2, 3, 7, 9)):
        assert ultratrees.big_ramsey_degree(
            FiniteMetricSpace.single_point(), ds(*svals)
        ) == 1
    announce(6, f"hook length = enumeration on {len(trees)} trees; 1-point degree 1")


def test_criterion_7_arrow_r33():
    t0 = time.time()
    pair = FiniteMetricSpace.equilateral(2, 1)
    triangle = FiniteMetricSpace.equilateral(3, 1)
    res6 = ramsey.verify_arrow(
        FiniteMetricSpace.equilateral(6, 1), triangle, pair, k=2,
        config=Config(arrow_copy_budget=16),
    )
    assert res6.holds
    res5 = ramsey.verify_arrow(
        FiniteMetricSpace.equilateral(5, 1), triangle, pair, k=2
    )
    assert not res5.holds
    elapsed = time.time() - t0
    assert elapsed < 5.0
    assert res6.colorings_checked <= 2 ** 15 and res5.colorings_checked <= 2 ** 15
    announce(7, f"6-point arrow, 5-point failure in {elapsed:.2f}s "
                f"({res6.colorings_checked}+{res5.colorings_checked} colorings)")


def test_criterion_8_urysohn_approx():
    s = ds(1, 2)
    space, _ = katetov.urysohn_approx(s, 3)
    for size in (1, 2):
        for subset in itertools.combinations(range(space.n), size):
            for f in _reference_admissible_maps(space, subset, s):
                assert katetov.realizers(space, subset, f), (subset, f)
    types = [
        FiniteMetricSpace.single_point(),
        FiniteMetricSpace([[0, 1], [1, 0]]),
        FiniteMetricSpace([[0, 2], [2, 0]]),
        FiniteMetricSpace.equilateral(3, 1),
        FiniteMetricSpace.equilateral(3, 2),
        FiniteMetricSpace([[0, 1, 1], [1, 0, 2], [1, 2, 0]]),
        FiniteMetricSpace([[0, 1, 2], [1, 0, 2], [2, 2, 0]]),
    ]
    cfg = Config(copies_bound=space.n)
    for t in types:
        assert copies(space, t, cfg), f"missing size-{t.n} type"
    announce(8, f"{space.n}-point closure realizes every (F,f) below 3 and "
                f"all {len(types)} small isometry types")


def test_criterion_9_hedgehog():
    rng = random.Random(77)
    instances = 0
    for m in (1, 2, 3):
        for n in (3, 4, 6):
            w = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    w[i][j] = w[j][i] = Fraction(rng.randint(25, 100), 100)
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if w[i][k] + w[k][j] < w[i][j]:
                            w[i][j] = w[i][k] + w[k][j]
            prefix = FiniteMetricSpace(w)
            t0 = time.time()
            z = hedgehog.hedgehog_build(m, prefix)
            report = hedgehog.hedgehog_verify(z)
            elapsed = time.time() - t0
            assert report.labels_preserved, (m, n, report.label_violations)
            assert not report.branch_violations
            assert report.fattening_ok
            assert not report.unexpected_cycle_shapes
            assert elapsed < 10.0, f"instance m={m} n={n} took {elapsed:.1f}s"
            instances += 1
    announce(9, f"{instances} instances: labels preserved, branches isometric, "
                f"fattening holds")


def test_criterion_10_milliken():
    exhaustive_depths = {"134": 4, "2379": 4, "26712": 4, "2678": 3, "1378": 3}
    for name, depth in exhaustive_depths.items():
        ms = milliken.milliken_space(name, depth)
        assert ms.metric, f"{name} at depth {depth}"
    # the two fast-growing variants exceed the cubic budget at depth 4;
    # run a high-volume seeded sample there instead
    for name in ("2678", "1378"):
        ms = milliken.milliken_space(name, 4, check="sampled", samples=200_000, seed=1)
        assert ms.metric, f"{name} sampled at depth 4"

    rng = random.Random(555)
    embedded = 0
    for name in milliken.VARIANTS:
        svals = [int(v) for v in milliken.load_variant(name).distance_set.values]
        for _ in range(2):
            n = rng.randint(2, 5)
            while True:
                rows = [[Fraction(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        rows[i][j] = rows[j][i] = Fraction(rng.choice(svals))
                try:
                    target = FiniteMetricSpace(rows)
                    break
                except Exception:
                    continue
            emb = milliken.coding_embed(name, 5, target)
            assert emb is not None, (name, target.d)
            assert milliken.verify_embedding(name, emb, target)
            embedded += 1
    announce(10, f"5 exhaustive + 2 sampled metric checks; {embedded} random "
                 f"targets embedded and verified at depth 5")


def test_criterion_11_property_suites():
    # annulus crossing on 1000 random valid instances
    rng = random.Random(424242)
    for _ in range(1000):
        n = rng.randint(1, 3)
        r = Fraction(rng.randint(5, 45), 100) + Fraction(1, 997)
        band = r * (Fraction(1, n + 1) - Fraction(1, n + 2))
        eps = min(Fraction(1, (n + 1) * (n + 2)), band) * Fraction(rng.randint(50, 99), 100)
        start = r * (1 - Fraction(1, n + 1)) * Fraction(rng.randint(1, 98), 100)
        positions = [Fraction(0), start]
        goal = start + r + Fraction(1, 53)
        p = start
        while p < goal:
            p = p + eps * Fraction(rng.randint(60, 100), 100)
            positions.append(p)
        # |a - b| on the rational line is a metric: proved rows
        x = FiniteMetricSpace._from_rows(tuple(tuple(abs(a - b) for b in positions) for a in positions))
        chain = list(range(1, len(positions)))
        idx = partitions.annulus_lemma_check(x, 0, 1, len(positions) - 1, r, n, chain, eps)
        d = x.d[0][chain[idx]]
        assert r * (1 - Fraction(1, n + 1)) <= d < r * (1 - Fraction(1, n + 2))

    # isometry-order divisibility and canonicalization consistency
    rng = random.Random(31337)
    for _ in range(40):
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
        order = len(isometries(x))
        assert math.factorial(n) % order == 0
        key = canonical_key(x)
        perm = list(range(n))
        rng.shuffle(perm)
        x2 = FiniteMetricSpace(
            [[x.d[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        )
        assert canonical_key(x2) == key

    # path-completion label preservation on random partial graphs
    rng = random.Random(2718)
    preserved = 0
    for _ in range(60):
        n = rng.randint(3, 6)
        g = EdgeLabelledGraph(n)
        for i in range(1, n):
            g.set_label(i - 1, i, rng.randint(1, 4))
        for i in range(n):
            for j in range(i + 2, n):
                if rng.random() < 0.4:
                    g.set_label(i, j, rng.randint(1, 4))
        try:
            space = complete(g, "sum-cap", r=8)
        except Exception:
            continue  # not metric-consistent; completion correctly refused
        for (i, j) in g.labelled_pairs():
            assert space.d[i][j] == g.label(i, j)
        preserved += 1
    assert preserved >= 20
    announce(11, f"1000 annulus instances, 40 isometry/canonical batteries, "
                 f"{preserved} completions label-exact")
