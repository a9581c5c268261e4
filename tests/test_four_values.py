import itertools
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from finmetric.four_values import (
    _pair_intervals,
    _prefix_bitsets,
    AdmissibleInterval,
    AmalgamationError,
    BadQuadrupleRow,
    FourValuesResult,
    amalgamate,
    bad_quadruples,
    canonical_quadruple,
    check_four_values,
    interval,
    similar,
    swap,
)
from finmetric.spaces import (
    DEFAULT_CONFIG,
    Config,
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    _check_points,
    _scaled,
    format_fraction,
)


def ds(*vals):
    return DistanceSet(vals)


# --- reference scans: the direct walk over S^4 on Fractions ------------------

def _reference_is_good(q, s):
    """q is good: its admissible interval meets S."""
    iv = interval(q)
    return any(iv.lo <= v <= iv.hi for v in s)


def _reference_outer_swap(q):
    """The other useful involution, exchanging u1 and u3."""
    u0, u1, u2, u3 = q
    return (u0, u3, u2, u1)


def _reference_check_four_values(s):
    for q in itertools.product(s.values, repeat=4):
        g, gs = _reference_is_good(q, s), _reference_is_good(swap(q), s)
        if g != gs:
            bad = swap(q) if g else q
            return FourValuesResult(False, q, swap(q), canonical_quadruple(bad))
    return FourValuesResult(True)


def _reference_bad_quadruples(s):
    seen = {}
    for q in itertools.product(s.values, repeat=4):
        if not _reference_is_good(q, s):
            seen.setdefault(canonical_quadruple(q), interval(q))
    rows = []
    for q, iv in seen.items():
        resolutions = []
        resolved = False
        for op, partner in (("*", swap(q)), ("_*", _reference_outer_swap(q))):
            cp = canonical_quadruple(partner)
            if not _reference_is_good(partner, s):
                resolved = True
                if cp != q and all(cp != t for _, t in resolutions):
                    resolutions.append((op, cp))
        rows.append(BadQuadrupleRow(iv, q, tuple(resolutions), not resolved))
    rows.sort(key=lambda r: (r.interval.lo, r.interval.hi, r.quadruple))
    return rows


def _reference_index_pair_bad_quadruples(s):
    """The walk over index pairs that the pair-rank walk replaced.

    It builds its own pair-interval table, ranks the index pairs in a dict
    keyed by pair, canonicalizes each bad partner through that dict and maps
    every row back to Fractions.
    """
    a, scale = _scaled(s.values)
    lo, hi = _pair_intervals(a)
    m = len(a)
    pairs = sorted(
        ((i, j) for i in range(m) for j in range(i, m)),
        key=lambda p: (a[p[0]] - a[p[1]], a[p[0]] + a[p[1]], p),
    )
    rank = {p: x for x, p in enumerate(pairs)}
    tops = [(k, l, hi[k][l]) for k, l in pairs]

    def canonical(u0, u1, u2, u3):
        p1 = (u0, u1) if u0 <= u1 else (u1, u0)
        p2 = (u2, u3) if u2 <= u3 else (u3, u2)
        return p1 + p2 if rank[p1] <= rank[p2] else p2 + p1

    keyed = []
    for x, (i, j) in enumerate(pairs):
        lo_ij = lo[i][j]
        for k, l, hi_kl in tops[x:]:
            if hi_kl >= lo_ij:
                continue
            q = (i, j, k, l)
            resolutions = []
            resolved = False
            for op, (u0, u1, u2, u3) in (("*", (i, k, j, l)), ("_*", (i, l, k, j))):
                if lo[u2][u3] > hi[u0][u1]:
                    resolved = True
                    cp = canonical(u0, u1, u2, u3)
                    if cp != q and all(cp != t for _, t in resolutions):
                        resolutions.append((op, cp))
            keyed.append(((a[j] - a[i], min(a[i] + a[j], a[k] + a[l]), q), resolutions, not resolved))
    keyed.sort()
    frac = {u: Fraction(u, scale) for u in {e for (x, y, _), _, _ in keyed for e in (x, y)}}
    value = s.values.__getitem__
    rows = []
    for (x, y), group in itertools.groupby(keyed, lambda row: row[0][:2]):
        iv = AdmissibleInterval(frac[x], frac[y])
        rows.extend(
            BadQuadrupleRow(
                iv,
                tuple(map(value, q)),
                tuple((op, tuple(map(value, t))) for op, t in resolutions),
                unresolved,
            )
            for (_, _, q), resolutions, unresolved in group
        )
    return rows


def _reference_pair_mask_check(s):
    """The |S|^4 pair-mask scan that the O(|S|^3) prefix-bitset scan replaced.

    mask[i][j] has bit t set when |a_i - a_j| <= a_t <= a_i + a_j, on S scaled
    to ints; (a_i, a_j, a_k, a_l) is good when mask[i][j] & mask[k][l] != 0.
    """
    a = _scaled(s.values)[0]
    masks = [
        [(1 << bisect_right(a, x + y)) - (1 << bisect_left(a, abs(x - y))) for y in a]
        for x in a
    ]
    r = range(len(masks))
    for i, j, k, l in itertools.product(r, repeat=4):
        if (not masks[i][j] & masks[k][l]) != (not masks[i][k] & masks[j][l]):
            q = tuple(s.values[u] for u in (i, j, k, l))
            bad = swap(q) if masks[i][j] & masks[k][l] else q
            return FourValuesResult(False, q, swap(q), canonical_quadruple(bad))
    return FourValuesResult(True)


def _reference_similar(s, t):
    """Equivalence of distance sets: same triple-inequality patterns."""
    if len(s) != len(t):
        return False
    sv, tv = s.values, t.values
    m = len(sv)
    return all(
        (sv[i] <= sv[j] + sv[k]) == (tv[i] <= tv[j] + tv[k])
        for i, j, k in itertools.product(range(m), repeat=3)
    )


@st.composite
def mixed_distance_sets(draw, max_size=8):
    """|S| in 1..max_size, each value p/q with q drawn from {1, 2, 3, 6}."""
    vals = draw(st.lists(
        st.builds(Fraction, st.integers(1, 36), st.sampled_from((1, 2, 3, 6))),
        min_size=1, max_size=max_size, unique=True,
    ))
    return DistanceSet(vals)


@st.composite
def holding_sets(draw, max_size=12):
    """Sets built to hold: progressions a + i*d, and windows inside [lo, 2*lo].

    In a window every pair interval [|x - y|, x + y] covers the whole set, so
    every quadruple is good and the check scans all of S^4.
    """
    den = draw(st.sampled_from((1, 2, 3)))
    size = draw(st.integers(1, max_size))
    if draw(st.booleans()):
        a, d = draw(st.integers(1, 30)), draw(st.integers(1, 12))
        vals = [Fraction(a + i * d, den) for i in range(size)]
    else:
        lo = draw(st.integers(size, 40))
        vals = [Fraction(v, den) for v in draw(st.lists(
            st.integers(lo, 2 * lo), min_size=1, max_size=size, unique=True))]
    return DistanceSet(vals)


@st.composite
def quarter_sets(draw, max_size=9):
    """|S| in 1..max_size, each value p/q with q in 1..4.  Most such sets
    fail the 4-values condition, so rows marked UNRESOLVED are drawn."""
    vals = draw(st.lists(
        st.builds(Fraction, st.integers(1, 40), st.integers(1, 4)),
        min_size=1, max_size=max_size, unique=True,
    ))
    return DistanceSet(vals)


class TestKernelMatchesReference:
    @given(mixed_distance_sets())
    @settings(max_examples=150, deadline=None)
    def test_check_four_values(self, s):
        assert check_four_values(s) == _reference_check_four_values(s)

    @given(mixed_distance_sets())
    @settings(max_examples=60, deadline=None)
    def test_bad_quadruples(self, s):
        assert bad_quadruples(s) == _reference_bad_quadruples(s)

    @given(quarter_sets())
    @settings(max_examples=200, deadline=None)
    def test_bad_quadruples_match_the_index_pair_walk(self, s):
        assert bad_quadruples(s) == _reference_index_pair_bad_quadruples(s)

    def test_unresolved_rows_are_drawn(self):
        # sixty seeded sets of quarter_sets' shape, each compared with the
        # references, full rows included; some of their rows are UNRESOLVED
        rng, unresolved = random.Random(38), 0
        for _ in range(60):
            size = rng.randint(3, 9)
            s = DistanceSet(Fraction(rng.randint(1, 40), rng.randint(1, 4)) for _ in range(size))
            rows = bad_quadruples(s)
            assert rows == _reference_index_pair_bad_quadruples(s)
            if len(s) <= 6:
                assert rows == _reference_bad_quadruples(s)
            unresolved += sum(r.unresolved for r in rows)
        assert unresolved > 0

    @given(holding_sets())
    @settings(max_examples=12, deadline=None)
    def test_holding_sets(self, s):
        # a set that holds has no early exit: the check scans every orbit
        assert check_four_values(s) == _reference_check_four_values(s)
        assert bad_quadruples(s) == _reference_bad_quadruples(s)

    @given(st.one_of(holding_sets(), mixed_distance_sets(max_size=12)))
    @settings(max_examples=150, deadline=None)
    def test_check_four_values_against_the_pair_masks(self, s):
        assert check_four_values(s) == _reference_pair_mask_check(s)

    @given(mixed_distance_sets(max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_reference_witness_is_an_orbit_representative(self, s):
        # the scan looks only at q = (u0, u1, u2, u3) with u0 <= u1 < u2 and u0 < u3
        res = _reference_check_four_values(s)
        assert res == _reference_pair_mask_check(s)
        if not res:
            u0, u1, u2, u3 = res.witness
            assert u0 <= u1 < u2 and u0 < u3

    @given(mixed_distance_sets(max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_pair_intervals_and_prefix_bitsets(self, s):
        a = _scaled(s.values)[0]
        lo, hi = _pair_intervals(a)
        le, ge = _prefix_bitsets(lo, hi)
        r = range(len(a))
        for i, j in itertools.product(r, repeat=2):
            inside = [t for t in r if abs(a[i] - a[j]) <= a[t] <= a[i] + a[j]]
            assert a.index(max(a[i], a[j])) in inside
            assert inside == list(range(lo[i][j], hi[i][j] + 1))
        for k, h in itertools.product(r, repeat=2):
            assert le[k][h] == sum(1 << l for l in r if lo[k][l] <= h)
            assert ge[k][h] == sum(1 << l for l in r if hi[k][l] >= h)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_small_sets(self, size):
        # |S| = 1 runs no scan at all, |S| = 2 one (i, j, k) triple
        for vals in itertools.combinations(AMALGAM_POOL, size):
            s = DistanceSet(vals)
            assert check_four_values(s) == _reference_check_four_values(s)
            assert bad_quadruples(s) == _reference_bad_quadruples(s)

    def test_initial_segment_of_twelve(self):
        s = ds(*range(1, 13))
        assert check_four_values(s) == _reference_check_four_values(s)
        assert bad_quadruples(s) == _reference_bad_quadruples(s)

    def test_rows_carry_fractions(self):
        # the integer scan hands back the exact values of S, not scaled ints
        s = ds(Fraction(1, 2), Fraction(2, 3), 2)
        for r in bad_quadruples(s):
            assert all(type(v) is Fraction for v in (r.interval.lo, r.interval.hi) + r.quadruple)
            assert all(v in s for v in r.quadruple)

    def test_bound(self):
        with pytest.raises(SearchTooLarge):
            check_four_values(ds(1, 2, 5), bound=2)
        with pytest.raises(SearchTooLarge):
            bad_quadruples(ds(1, 2, 5), bound=2)


class TestKeptVerdict:
    """The set keeps its first verdict; the bound is checked on every call."""

    @given(st.one_of(mixed_distance_sets(), holding_sets(max_size=8)),
           st.lists(st.integers(-3, 3), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_repeated_checks_under_drawn_bounds(self, s, offsets):
        want = _reference_check_four_values(s)
        for bound in (len(s) + d for d in offsets):
            if len(s) > bound:
                with pytest.raises(SearchTooLarge, match=rf"^4-values check too large: \|S\|={len(s)} > {bound}$"):
                    check_four_values(s, bound)
            else:
                assert check_four_values(s, bound) == want

    def test_a_looser_bound_does_not_open_a_tighter_one(self):
        s, pair = ds(1, 2, 4), FiniteMetricSpace([[0, 1], [1, 0]])
        assert not check_four_values(s, 12)
        with pytest.raises(SearchTooLarge):
            check_four_values(s, 2)
        with pytest.raises(AmalgamationError, match="^S fails the 4-values condition"):
            amalgamate(s, pair, pair, [0], [0])
        with pytest.raises(SearchTooLarge):
            amalgamate(s, pair, pair, [0], [0], Config(four_values_bound=2))
        assert check_four_values(s, 3) == _reference_check_four_values(s)

    def test_each_set_is_scanned_once(self, monkeypatch):
        from finmetric import four_values
        from finmetric.katetov import urysohn_approx

        scans = []
        scan = four_values._four_values_scan
        monkeypatch.setattr(four_values, "_four_values_scan", lambda s: scans.append(s) or scan(s))
        s = ds(1, 2)
        pair = FiniteMetricSpace([[0, 1], [1, 0]])
        for _ in range(3):
            check_four_values(s)
            amalgamate(s, pair, pair, [0], [0])
        urysohn_approx(s, 2)
        assert scans == [s]
        # no table outlives a set: an equal set is scanned again
        t = ds(1, 2)
        check_four_values(t)
        assert len(scans) == 2 and scans[1] is t


class TestKeptPairTable:
    """The pair-interval table is built once per set, by whichever of the
    check and the bad-quadruple table runs first; both refuse |S| > bound
    before reading it."""

    @pytest.mark.parametrize("vals", [
        (1, 2, 4), (1, 2, 5), tuple(range(1, 9)), (Fraction(1, 2), Fraction(2, 3), 2), (3,),
    ])
    @pytest.mark.parametrize("check_first", [True, False], ids=["check-first", "table-first"])
    def test_interleaved_calls_build_one_table(self, monkeypatch, vals, check_first):
        from finmetric import four_values

        built = []
        pair_intervals = four_values._pair_intervals
        monkeypatch.setattr(four_values, "_pair_intervals", lambda a: built.append(a) or pair_intervals(a))
        s = DistanceSet(vals)
        want = {check_four_values: _reference_check_four_values(s),
                bad_quadruples: _reference_bad_quadruples(s)}
        refusal = {check_four_values: "4-values check", bad_quadruples: "bad-quadruple scan"}
        calls = [check_four_values, bad_quadruples]
        if not check_first:
            calls.reverse()
        for offset in (-1, 0, 2, -2, 1):
            bound = len(s) + offset
            for fn in calls + calls[::-1]:
                if len(s) > bound:
                    with pytest.raises(SearchTooLarge, match=rf"^{refusal[fn]} too large: \|S\|={len(s)} > {bound}$"):
                        fn(s, bound)
                else:
                    assert fn(s, bound) == want[fn]
        assert len(built) == 1
        # no table outlives a set: an equal set builds its own
        calls[0](DistanceSet(vals))
        assert len(built) == 2

    def test_a_refused_call_builds_no_table(self, monkeypatch):
        from finmetric import four_values

        built = []
        monkeypatch.setattr(four_values, "_pair_intervals", lambda a: built.append(a))
        s = ds(1, 2, 5)
        for fn in (check_four_values, bad_quadruples):
            with pytest.raises(SearchTooLarge):
                fn(s, 2)
        assert built == [] and s._pair_table is None


class TestInterval:
    def test_published_bad_quadruple_125(self):
        iv = interval((2, 5, 1, 1))
        assert (iv.lo, iv.hi) == (3, 2)
        assert not _reference_is_good((2, 5, 1, 1), ds(1, 2, 5))

    def test_singleton_good(self):
        iv = interval((1, 1, 1, 1))
        assert (iv.lo, iv.hi) == (0, 2)
        assert _reference_is_good((1, 1, 1, 1), ds(1))

    def test_published_bad_quadruple_2379(self):
        iv = interval((3, 7, 2, 2))
        assert (iv.lo, iv.hi) == (4, 4)
        assert not _reference_is_good((3, 7, 2, 2), ds(2, 3, 7, 9))

    def test_invariant_under_trivial_permutations(self):
        q = (1, 5, 2, 3)
        for a, b in ((0, 1), (1, 0)):
            for c, d in ((2, 3), (3, 2)):
                assert interval((q[a], q[b], q[c], q[d])) == interval(q)
                assert interval((q[c], q[d], q[a], q[b])) == interval(q)


class TestCheckFourValues:
    def test_1_2_4_fails_with_katetov_witness(self):
        res = check_four_values(ds(1, 2, 4))
        assert not res
        assert res.witness == (1, 1, 2, 4)

    def test_1_2_5_holds(self):
        assert check_four_values(ds(1, 2, 5))

    def test_5_14_5_7_witness(self):
        res = check_four_values(ds(5, 7, 8, 14))
        assert not res
        assert res.witness_bad == (5, 14, 5, 7)

    def test_singleton_holds(self):
        assert check_four_values(ds(1))


# verdicts of the |S|<=3 classification
CLASSIFICATION = {
    (1, 2): True,
    (1, 3): True,
    (2, 3, 4): True,
    (1, 2, 3): True,
    (1, 2, 4): False,
    (1, 2, 5): True,
    (1, 3, 4): True,
    (1, 3, 6): True,
    (1, 3, 7): True,
}


@pytest.mark.parametrize("s,expected", sorted(CLASSIFICATION.items()))
def test_small_classification(s, expected):
    assert bool(check_four_values(ds(*s))) is expected


# published size-4 verdicts; failures carry their named bad quadruple
VERDICTS_TRUE = [
    (5, 7, 8, 10),
    (5, 7, 8, 11),
    (5, 7, 8, 13),
    (5, 7, 8, 17),
    (5, 6, 9, 10),
    (5, 6, 9, 11),
    (5, 6, 9, 12),
    (5, 6, 9, 13),
    (5, 6, 9, 14),
    (5, 6, 9, 19),
    (4, 7, 9, 11),
    (4, 7, 9, 12),
    (4, 7, 9, 13),
    (4, 7, 9, 19),
    (8, 14, 21, 22),
    (8, 14, 21, 28),
    (8, 14, 21, 43),
    (2, 3, 7, 9),
    (2, 3, 7, 14),
    (2, 3, 7, 15),
    (2, 6, 7, 8),
    (2, 6, 7, 12),
    (2, 6, 7, 15),
    (1, 4, 6, 7),
    (1, 4, 6, 8),
    (1, 4, 6, 10),
    (1, 4, 6, 13),
    (2, 5, 9, 10),
    (2, 5, 9, 14),
    (2, 5, 9, 19),
    (1, 3, 7, 8),
    (1, 3, 7, 10),
    (1, 3, 7, 14),
    (1, 3, 7, 15),
]

VERDICTS_FALSE = {
    (5, 7, 8, 14): (5, 14, 5, 7),
    (5, 7, 8, 15): (5, 15, 5, 7),
    (5, 7, 8, 16): (7, 16, 7, 8),
    (5, 6, 9, 15): None,  # via similarity with {5,7,8,15}
    (5, 6, 9, 18): None,  # via similarity with {5,7,8,16}
    (4, 7, 9, 14): (4, 14, 4, 7),
    # the printed witness (4,16,4,7) cannot witness a swap mismatch: both of
    # its pairings give empty intervals; (4,16,4,9) is the correct quadruple
    (4, 7, 9, 16): (4, 16, 4, 9),
    (4, 7, 9, 18): (7, 18, 4, 9),
    (8, 14, 21, 29): (14, 29, 8, 8),
    (8, 14, 21, 35): None,  # via similarity with {4,7,9,16}
    (8, 14, 21, 42): None,  # via similarity with {4,7,9,18}
    (2, 3, 7, 10): (2, 10, 2, 7),
    (2, 6, 7, 9): (6, 9, 2, 2),
    (2, 6, 7, 13): (2, 13, 6, 6),
    (2, 6, 7, 14): (6, 14, 2, 7),
    (1, 4, 6, 12): (4, 12, 4, 6),
    (2, 5, 9, 11): (5, 11, 2, 5),
    (2, 5, 9, 18): (5, 18, 5, 9),
}


@pytest.mark.parametrize("s", VERDICTS_TRUE)
def test_published_true_verdicts(s):
    assert check_four_values(ds(*s))


@pytest.mark.parametrize("s,named", sorted(VERDICTS_FALSE.items()))
def test_published_false_verdicts(s, named):
    res = check_four_values(ds(*s))
    assert not res
    # res.witness_bad is the lex-least mismatch; the published witness is a
    # hand-picked one, so verify it is a genuine witness: bad, with a good swap
    if named is not None:
        sset = ds(*s)
        assert not _reference_is_good(named, sset)
        assert _reference_is_good(swap(named), sset) or _reference_is_good(_reference_outer_swap(named), sset)
    # and the reported witness itself must be genuine
    assert _reference_is_good(res.witness, sset := ds(*s)) != _reference_is_good(res.witness_swap, sset)
    assert not _reference_is_good(res.witness_bad, sset)


# published bad-quadruple tables, rows as (interval, quadruple)
TABLES = {
    (1, 2, 5): [
        ((3, 2), (2, 5, 1, 1)),
        ((3, 3), (2, 5, 1, 2)),
        ((3, 4), (2, 5, 2, 2)),
        ((4, 2), (1, 5, 1, 1)),
        ((4, 3), (1, 5, 1, 2)),
        ((4, 4), (1, 5, 2, 2)),
    ],
    (1, 3, 4): [
        ((2, 2), (1, 3, 1, 1)),
        ((3, 2), (1, 4, 1, 1)),
    ],
    (1, 3, 6): [
        ((2, 2), (1, 3, 1, 1)),
        ((3, 2), (3, 6, 1, 1)),
        ((5, 2), (1, 6, 1, 1)),
        ((5, 4), (1, 6, 1, 3)),
    ],
    (2, 3, 7, 9): [
        ((4, 4), (3, 7, 2, 2)),
        ((4, 5), (3, 7, 2, 3)),
        ((4, 6), (3, 7, 3, 3)),
        ((5, 4), (2, 7, 2, 2)),
        ((5, 5), (2, 7, 2, 3)),
        ((5, 6), (2, 7, 3, 3)),
        ((6, 4), (3, 9, 2, 2)),
        ((6, 5), (3, 9, 2, 3)),
        ((6, 6), (3, 9, 3, 3)),
        ((7, 4), (2, 9, 2, 2)),
        ((7, 5), (2, 9, 2, 3)),
        ((7, 6), (2, 9, 3, 3)),
    ],
    (2, 3, 7, 14): [
        ((4, 4), (3, 7, 2, 2)),
        ((4, 5), (3, 7, 2, 3)),
        ((4, 6), (3, 7, 3, 3)),
        ((5, 4), (2, 7, 2, 2)),
        ((5, 5), (2, 7, 2, 3)),
        ((5, 6), (2, 7, 3, 3)),
        ((7, 4), (7, 14, 2, 2)),
        ((7, 5), (7, 14, 2, 3)),
        ((7, 6), (7, 14, 3, 3)),
        ((11, 4), (3, 14, 2, 2)),
        ((11, 5), (3, 14, 2, 3)),
        ((11, 6), (3, 14, 3, 3)),
        ((11, 9), (3, 14, 2, 7)),
        ((11, 10), (3, 14, 3, 7)),
        ((12, 4), (2, 14, 2, 2)),
        ((12, 5), (2, 14, 2, 3)),
        ((12, 6), (2, 14, 3, 3)),
        ((12, 9), (2, 14, 2, 7)),
        ((12, 10), (2, 14, 3, 7)),
    ],
    (1, 4, 6, 7): [
        ((2, 2), (4, 6, 1, 1)),
        ((3, 2), (4, 7, 1, 1)),
        ((3, 2), (1, 4, 1, 1)),
        ((5, 2), (1, 6, 1, 1)),
        ((5, 5), (1, 6, 1, 4)),
        ((6, 2), (1, 7, 1, 1)),
        ((6, 5), (1, 7, 1, 4)),
    ],
    (1, 4, 6, 8): [
        ((2, 2), (4, 6, 1, 1)),
        ((2, 2), (6, 8, 1, 1)),
        ((3, 2), (1, 4, 1, 1)),
        ((4, 2), (4, 8, 1, 1)),
        ((5, 2), (1, 6, 1, 1)),
        ((5, 5), (1, 6, 1, 4)),
        ((7, 2), (1, 8, 1, 1)),
        ((7, 5), (1, 8, 1, 4)),
        ((7, 7), (1, 8, 1, 6)),
    ],
    (1, 4, 6, 10): [
        ((2, 2), (4, 6, 1, 1)),
        ((3, 2), (1, 4, 1, 1)),
        ((4, 2), (6, 10, 1, 1)),
        ((5, 2), (1, 6, 1, 1)),
        ((5, 5), (1, 6, 1, 4)),
        ((6, 2), (4, 10, 1, 1)),
        ((6, 5), (4, 10, 1, 4)),
        ((9, 2), (1, 10, 1, 1)),
        ((9, 5), (1, 10, 1, 4)),
        ((9, 7), (1, 10, 1, 6)),
        ((9, 8), (1, 10, 4, 4)),
    ],
    (2, 6, 7, 8): [
        ((4, 4), (2, 6, 2, 2)),
        ((5, 4), (2, 7, 2, 2)),
        ((6, 4), (2, 8, 2, 2)),
    ],
    (2, 6, 7, 12): [
        ((4, 4), (2, 6, 2, 2)),
        ((5, 4), (2, 7, 2, 2)),
        ((5, 4), (7, 12, 2, 2)),
        # the printed table also lists (2,8,2,2) under [6,4], but 8 is not in
        # {2,6,7,12}; that row is a slip carried over from the {2,6,7,8} case
        ((6, 4), (6, 12, 2, 2)),
        ((10, 4), (2, 12, 2, 2)),
        ((10, 8), (2, 12, 2, 6)),
        ((10, 9), (2, 12, 2, 7)),
    ],
    (1, 3, 7, 8): [
        ((2, 2), (1, 3, 1, 1)),
        ((4, 2), (3, 7, 1, 1)),
        ((4, 4), (3, 7, 1, 3)),
        ((4, 6), (3, 7, 3, 3)),
        ((5, 2), (3, 8, 1, 1)),
        ((5, 4), (3, 8, 1, 3)),
        ((5, 6), (3, 8, 3, 3)),
        ((6, 2), (1, 7, 1, 1)),
        ((6, 4), (1, 7, 1, 3)),
        ((6, 6), (1, 7, 3, 3)),
        ((7, 2), (1, 8, 1, 1)),
        ((7, 4), (1, 8, 1, 3)),
        ((7, 6), (1, 8, 3, 3)),
    ],
    (1, 3, 7, 10): [
        ((2, 2), (1, 3, 1, 1)),
        ((3, 2), (7, 10, 1, 1)),
        ((4, 2), (3, 7, 1, 1)),
        ((4, 4), (3, 7, 1, 3)),
        ((4, 6), (3, 7, 3, 3)),
        ((6, 2), (1, 7, 1, 1)),
        ((6, 4), (1, 7, 1, 3)),
        ((6, 6), (1, 7, 3, 3)),
        ((7, 2), (3, 10, 1, 1)),
        ((7, 4), (3, 10, 1, 3)),
        ((7, 6), (3, 10, 3, 3)),
        ((9, 2), (1, 10, 1, 1)),
        ((9, 4), (1, 10, 1, 3)),
        ((9, 6), (1, 10, 3, 3)),
        ((9, 8), (1, 10, 1, 7)),
    ],
    (1, 3, 7, 14): [
        ((2, 2), (1, 3, 1, 1)),
        ((4, 2), (3, 7, 1, 1)),
        ((4, 4), (3, 7, 1, 3)),
        ((4, 6), (3, 7, 3, 3)),
        ((6, 2), (1, 7, 1, 1)),
        ((6, 4), (1, 7, 1, 3)),
        ((6, 6), (1, 7, 3, 3)),
        ((7, 2), (7, 14, 1, 1)),
        ((7, 4), (7, 14, 1, 3)),
        ((7, 6), (7, 14, 3, 3)),
        ((11, 2), (3, 14, 1, 1)),
        ((11, 4), (3, 14, 1, 3)),
        ((11, 6), (3, 14, 3, 3)),
        ((11, 8), (3, 14, 1, 7)),
        ((11, 10), (3, 14, 3, 7)),
        ((13, 2), (1, 14, 1, 1)),
        ((13, 4), (1, 14, 1, 3)),
        ((13, 6), (1, 14, 3, 3)),
        ((13, 8), (1, 14, 1, 7)),
        ((13, 10), (1, 14, 3, 7)),
    ],
}


@pytest.mark.parametrize("s", sorted(TABLES))
def test_published_tables(s):
    rows = bad_quadruples(ds(*s))
    got = {((r.interval.lo, r.interval.hi), r.quadruple) for r in rows}
    expected = {
        ((Fraction(a), Fraction(b)), tuple(Fraction(v) for v in quad))
        for (a, b), quad in TABLES[s]
    }
    assert got == expected
    assert not any(r.unresolved for r in rows)


def test_bad_quadruples_empty_for_singleton():
    assert bad_quadruples(ds(1)) == []


def test_every_listed_quadruple_is_bad_and_interval_exact():
    for s, rows in TABLES.items():
        sset = ds(*s)
        for (a, b), quad in rows:
            assert not _reference_is_good(quad, sset)
            iv = interval(quad)
            assert (iv.lo, iv.hi) == (a, b)
            assert canonical_quadruple(quad) == tuple(Fraction(v) for v in quad)


class TestSimilar:
    @given(mixed_distance_sets(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, s, data):
        # a set of the same size from a small pool is often similar to s
        t = data.draw(st.one_of(
            st.lists(st.integers(1, 12), min_size=len(s), max_size=len(s), unique=True),
            st.lists(st.builds(Fraction, st.integers(1, 36), st.sampled_from((1, 2, 3, 6))),
                     min_size=1, max_size=8, unique=True),
            st.builds(lambda c: [v * c for v in s], st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))),
        ))
        t = DistanceSet(t)
        assert similar(s, t) == _reference_similar(s, t)

    def test_12_23(self):
        assert similar(ds(1, 2), ds(2, 3))

    def test_12_13(self):
        assert not similar(ds(1, 2), ds(1, 3))

    def test_reflexive(self):
        s = ds(1, 4, 6, 10)
        assert similar(s, s)

    def test_published_similarities(self):
        assert similar(ds(5, 6, 9, 15), ds(5, 7, 8, 15))
        assert similar(ds(5, 6, 9, 18), ds(5, 7, 8, 16))
        assert similar(ds(8, 14, 21, 28), ds(4, 7, 9, 12))
        assert similar(ds(2, 5, 9, 10), ds(1, 4, 6, 7))
        assert similar(ds(2, 5, 9, 14), ds(1, 4, 6, 10))

    def test_similar_implies_same_verdict_exhaustive(self):
        # every nonempty subset of {1..6}, verdicts agree across similar pairs
        sets = [
            DistanceSet(c)
            for size in (1, 2, 3, 4, 5, 6)
            for c in itertools.combinations(range(1, 7), size)
        ]
        verdicts = {s: bool(check_four_values(s)) for s in sets}
        for a in sets:
            for b in sets:
                if similar(a, b):
                    assert verdicts[a] == verdicts[b]

    def test_initial_segments_of_omega_hold(self):
        for m in range(1, 7):
            assert check_four_values(ds(*range(1, m + 1)))


def one_point_configurations(sset):
    """All V-configurations: two S-triangles sharing a base edge of length t.

    The second side must range over ordered pairs: which new point faces
    which base endpoint changes the admissible interval for the missing
    distance (pairing (1,3) against (7,3) is not the same V as against (3,7)).
    """
    vals = sset.values
    for t in vals:
        for s0, s1 in itertools.combinations_with_replacement(vals, 2):
            if not (abs(s0 - s1) <= t <= s0 + s1):
                continue
            for s0p, s1p in itertools.product(vals, repeat=2):
                if not (abs(s0p - s1p) <= t <= s0p + s1p):
                    continue
                yield t, (s0, s1), (s0p, s1p)


def brute_force_one_point_oracle(sset):
    """4-values via exhaustive one-point amalgamation over S-triangles."""
    for t, (s0, s1), (s0p, s1p) in one_point_configurations(sset):
        ok = any(
            abs(s0 - s0p) <= u <= s0 + s0p and abs(s1 - s1p) <= u <= s1 + s1p
            for u in sset.values
        )
        if not ok:
            return False
    return True


def test_oracle_equivalence_over_subsets_of_1_to_8():
    # acceptance-grade cross-check at module level, small slice
    for size in (1, 2, 3):
        for c in itertools.combinations(range(1, 9), size):
            sset = ds(*c)
            assert bool(check_four_values(sset)) == brute_force_one_point_oracle(sset)


def literal_definition_form(sset):
    """t-exists implies u-exists, quantified exactly as the condition reads."""
    vals = sset.values
    for s0, s1, s0p, s1p in itertools.product(vals, repeat=4):
        t_exists = any(
            abs(s0 - s1) <= t <= s0 + s1 and abs(s0p - s1p) <= t <= s0p + s1p
            for t in vals
        )
        if not t_exists:
            continue
        if not any(
            abs(s0 - s0p) <= u <= s0 + s0p and abs(s1 - s1p) <= u <= s1 + s1p
            for u in vals
        ):
            return False
    return True


def test_quadruple_formulation_matches_literal_definition():
    # the swap formulation is equivalent to the two-quantifier original
    for size in (1, 2, 3, 4):
        for c in itertools.combinations(range(1, 8), size):
            sset = ds(*c)
            assert bool(check_four_values(sset)) == literal_definition_form(sset), c


class TestAmalgamate:
    def test_identity_amalgam(self):
        s = ds(1, 2, 3)
        x = FiniteMetricSpace([[0, 2], [2, 0]])
        res = amalgamate(s, x, x, [0, 1], [0, 1])
        assert res == x

    def test_two_triangles_over_shared_edge(self):
        s = ds(1, 2, 3)
        tri = FiniteMetricSpace([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        res = amalgamate(s, tri, tri, [0, 1], [0, 1])
        assert res.n == 4
        # y0 copied verbatim, y1's exclusive point appended
        assert res.submetric([0, 1, 2]) == tri
        assert res.submetric([0, 1, 3]) == tri
        u = res.d[2][3]
        lo = max(abs(tri.d[0][2] - tri.d[0][2]), abs(tri.d[1][2] - tri.d[1][2]))
        hi = min(tri.d[0][2] + tri.d[0][2], tri.d[1][2] + tri.d[1][2])
        admissible = [v for v in s.values if lo <= v <= hi]
        assert u in admissible
        assert u == min(admissible)

    def test_respects_block_structure_in_125(self):
        s = ds(1, 2, 5)
        # two points at distance 1 each extended by a far point at distance 5
        y0 = FiniteMetricSpace([[0, 1, 5], [1, 0, 5], [5, 5, 0]])
        y1 = FiniteMetricSpace([[0, 1, 5], [1, 0, 5], [5, 5, 0]])
        res = amalgamate(s, y0, y1, [0, 1], [0, 1])
        # the two far points must be 5 apart or in the same near-block
        assert res.d[2][3] in (Fraction(1), Fraction(2), Fraction(5))
        # exhaustive oracle: collect all S-valued completions
        completions = []
        for u in s.values:
            rows = [row[:] for row in [list(r) for r in res.d]]
            rows[2][3] = rows[3][2] = u
            try:
                FiniteMetricSpace(rows)
            except Exception:
                continue
            completions.append(u)
        assert res.d[2][3] == min(completions)

    def test_failure_on_bad_set(self):
        s = ds(1, 2, 4)
        x = FiniteMetricSpace([[0, 1], [1, 0]])
        with pytest.raises(AmalgamationError):
            amalgamate(s, x, x, [0], [0])

    def test_small_exhaustive_one_point_consistency(self):
        # for S subsets of {1..8} of size <= 3 holding 4-values, every V-configuration amalgamates
        for c in itertools.combinations(range(1, 9), 3):
            sset = ds(*c)
            if not check_four_values(sset):
                continue
            for t, (s0, s1), (s0p, s1p) in one_point_configurations(sset):
                y0 = FiniteMetricSpace([[0, t, s0], [t, 0, s1], [s0, s1, 0]])
                y1 = FiniteMetricSpace([[0, t, s0p], [t, 0, s1p], [s0p, s1p, 0]])
                res = amalgamate(sset, y0, y1, [0, 1], [0, 1])
                assert res.n == 4
                assert res.distances() <= set(sset.values)


# --- reference amalgam: the pair-dict fill, one cross pair at a time ----------

def _one_point_distance(s, left: dict, right: dict, common) -> Fraction:
    """Least u in S with |a-b| <= u <= a+b over the common points."""
    m = Fraction(0)
    m_prime = None
    for y in common:
        a, b = left[y], right[y]
        m = max(m, abs(a - b))
        m_prime = a + b if m_prime is None else min(m_prime, a + b)
    for u in s.values:
        if m <= u and (m_prime is None or u <= m_prime):
            return u
    raise AmalgamationError(
        f"one-point amalgamation failed: S meets no value in "
        f"[{format_fraction(m)},{format_fraction(m_prime)}]"
    )


def _reference_amalgamate(
    s: DistanceSet,
    y0: FiniteMetricSpace,
    y1: FiniteMetricSpace,
    x0_indices,
    x1_indices,
    config: Config = DEFAULT_CONFIG,
) -> FiniteMetricSpace:
    """Strong amalgam of y0 and y1 over a common subspace.

    x0_indices / x1_indices give the images in y0 / y1 of the shared space, in
    matching order.  The result carries y0 on indices 0..y0.n-1 and the
    exclusive part of y1 after it; new cross distances are the least element
    of S admissible for the pair, filled by removing the highest-index
    exclusive point of y1 first (the proof's two-stage induction), which makes
    the output deterministic.  config.four_values_bound caps |S| for the
    4-values check run first.
    """
    chk = check_four_values(s, config.four_values_bound)
    if not chk:
        raise AmalgamationError(
            f"S fails the 4-values condition, witness {chk.witness}"
        )
    x0 = list(x0_indices)
    x1 = list(x1_indices)
    if len(x0) != len(x1) or len(set(x0)) != len(x0) or len(set(x1)) != len(x1):
        raise AmalgamationError("shared-part index maps must be injective and aligned")
    _check_points(y0.n, x0)
    _check_points(y1.n, x1)
    for a in range(len(x0)):
        for b in range(a + 1, len(x0)):
            if y0.d[x0[a]][x0[b]] != y1.d[x1[a]][x1[b]]:
                raise AmalgamationError("y0 and y1 disagree on the shared subspace")
    for sp in (y0, y1):
        if any(v not in s for v in sp.distances()):
            raise AmalgamationError("input space has a distance outside S")

    # global indices: y0 points keep 0..y0.n-1, exclusive y1 points follow
    x1_to_global = dict(zip(x1, x0))
    y1_exclusive = [j for j in range(y1.n) if j not in x1_to_global]
    for j in y1_exclusive:
        x1_to_global[j] = y0.n + y1_exclusive.index(j)
    total = y0.n + len(y1_exclusive)

    dist: dict[tuple[int, int], Fraction] = {}

    def put(i, j, v):
        dist[(min(i, j), max(i, j))] = v

    def get(i, j):
        return dist.get((min(i, j), max(i, j)))

    for i in range(y0.n):
        for j in range(i + 1, y0.n):
            put(i, j, y0.d[i][j])
    for i in range(y1.n):
        for j in range(i + 1, y1.n):
            put(x1_to_global[i], x1_to_global[j], y1.d[i][j])

    # linearization of the proof's recursion: the highest-index exclusive
    # point of y1 is removed first, so its cross pairs are decided last
    missing = [
        (i, j)
        for j in sorted(x1_to_global[e] for e in y1_exclusive)
        for i in range(y0.n)
        if i not in x0 and get(i, j) is None
    ]
    for (i, j) in missing:
        common = [k for k in range(total) if get(i, k) is not None and get(j, k) is not None]
        left = {k: get(i, k) for k in common}
        right = {k: get(j, k) for k in common}
        put(i, j, _one_point_distance(s, left, right, common))

    rows = [
        [get(i, j) if i != j else Fraction(0) for j in range(total)]
        for i in range(total)
    ]
    try:
        return FiniteMetricSpace(rows)
    except InvalidSpace as exc:  # unreachable once the 4-values check passed
        raise AmalgamationError(f"amalgam is not metric: {exc}") from exc


AMALGAM_POOL = (1, 2, 3, 4, 5, 6, 8, Fraction(3, 2), Fraction(5, 2))
AMALGAM_SETS = [
    DistanceSet(c)
    for size in range(1, 5)
    for c in itertools.combinations(AMALGAM_POOL, size)
]
HOLDING_SETS = [s for s in AMALGAM_SETS if _reference_check_four_values(s)]
FAILING_SETS = [s for s in AMALGAM_SETS if not _reference_check_four_values(s)]


def _grow(rng, vals, rows, n):
    """Add random S-valued points to the matrix rows until n, or until a draw fails."""
    rows = [list(r) for r in rows]
    while len(rows) < n:
        for _ in range(30):
            new = [rng.choice(vals) for _ in rows]
            cand = [r + [v] for r, v in zip(rows, new)] + [new + [Fraction(0)]]
            try:
                FiniteMetricSpace(cand)
            except InvalidSpace:
                continue
            rows = cand
            break
        else:
            break
    return FiniteMetricSpace(rows)


@st.composite
def amalgamation_inputs(draw):
    """(S, y0, y1, x0, x1) with 0-3 shared points; a tenth disagree on them."""
    s = draw(st.sampled_from(HOLDING_SETS if draw(st.integers(0, 9)) else FAILING_SETS))
    rng = random.Random(draw(st.integers(0, 10**6)))
    k = draw(st.integers(0, 3))
    y0 = _grow(rng, s.values, [], k + draw(st.integers(0, 2)))
    k = min(k, y0.n)
    x0 = rng.sample(range(y0.n), k)
    if draw(st.integers(0, 9)):
        y1 = _grow(rng, s.values, y0.submetric(x0).d, k + draw(st.integers(0, 3)))
        perm = rng.sample(range(y1.n), y1.n)
        y1 = y1.submetric(perm)
        x1 = [perm.index(a) for a in range(k)]
    else:
        y1 = _grow(rng, s.values, [], k + draw(st.integers(0, 3)))
        x1 = rng.sample(range(y1.n), min(k, y1.n))
        x0 = x0[:len(x1)]
    return s, y0, y1, x0, x1


def _amalgam_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestAmalgamateMatchesReference:
    @given(amalgamation_inputs())
    @settings(max_examples=200, deadline=None)
    def test_random_inputs(self, inputs):
        assert _amalgam_outcome(amalgamate, *inputs) == _amalgam_outcome(
            _reference_amalgamate, *inputs
        )

    def test_disjoint_amalgam(self):
        s = ds(1, 2, 3)
        tri = FiniteMetricSpace([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        res = amalgamate(s, tri, tri, [], [])
        assert res == _reference_amalgamate(s, tri, tri, [], [])
        assert res.submetric([0, 1, 2]) == tri and res.submetric([3, 4, 5]) == tri
        assert res.d[0][3] == 1  # the least value of S, nothing shared to bound it

    def test_fractional_s(self):
        s = ds(1, Fraction(3, 2), 2)
        y0 = FiniteMetricSpace([[0, 1, Fraction(3, 2)], [1, 0, 2], [Fraction(3, 2), 2, 0]])
        res = amalgamate(s, y0, y0, [0], [0])
        assert res == _reference_amalgamate(s, y0, y0, [0], [0])
        assert all(type(v) is Fraction for row in res.d for v in row)

    def test_disagreeing_shared_part(self):
        s = ds(1, 2)
        with pytest.raises(AmalgamationError, match="disagree on the shared subspace"):
            amalgamate(s, FiniteMetricSpace([[0, 1], [1, 0]]),
                       FiniteMetricSpace([[0, 2], [2, 0]]), [0, 1], [0, 1])
