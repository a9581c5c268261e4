"""The 4-values condition, the good/bad-quadruple calculus, and amalgamation.

A quadruple q = (u0,u1,u2,u3) over a distance set S has the admissible
interval I(q) = [max(|u0-u1|, |u2-u3|), min(u0+u1, u2+u3)]; q is good when
I(q) meets S.  S satisfies the 4-values condition exactly when goodness is
invariant under the swap q* = (u0,u2,u1,u3), and that condition is equivalent
to the class of finite S-valued metric spaces having strong amalgamation.

The two scans run on integers.  S is multiplied by the lcm of its
denominators, which makes every value an int.  Each comparison above is
between sums, differences and elements of S, and a positive scaling keeps
all of them, so no verdict, witness or row order changes.  Both scans read
one pair table, the pair intervals: for each index pair (i, j), the least
and greatest index lo[i][j] <= hi[i][j] of an element of S inside
[|a_i - a_j|, a_i + a_j].  I(q) is the intersection of its two pair
intervals, so (a_i, a_j, a_k, a_l) is good exactly when the index intervals
overlap: lo[k][l] <= hi[i][j] and hi[k][l] >= lo[i][j].  The check reads
the good l of each (i, j, k) at once off prefix bitsets of the table, and
scans one representative of each orbit of mismatches, O(|S|^3) in all; the
bad-quadruple table walks the pairs of index pairs, about |S|^4 / 8.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from math import inf
from operator import or_

from .spaces import (
    DEFAULT_CONFIG,
    Config,
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    _check_points,
    _fraction_rows,
    _scaled,
    format_fraction,
)


@dataclass(frozen=True)
class AdmissibleInterval:
    lo: Fraction
    hi: Fraction  # lo > hi encodes the empty interval

    def __str__(self):
        return f"[{format_fraction(self.lo)},{format_fraction(self.hi)}]"


def interval(q) -> AdmissibleInterval:
    u0, u1, u2, u3 = q
    return AdmissibleInterval(
        max(abs(u0 - u1), abs(u2 - u3)), min(u0 + u1, u2 + u3)
    )


def swap(q):
    """q* : exchange the inner entries, pairing u0 with u2 and u1 with u3."""
    u0, u1, u2, u3 = q
    return (u0, u2, u1, u3)


def canonical_quadruple(q):
    """Representative modulo trivial permutations (those fixing {u0,u1} | {u2,u3}).

    Each pair is sorted ascending and the pair achieving the larger difference
    comes first (ties: smaller sum first, then lexicographic), matching the
    layout of printed bad-quadruple tables.
    """
    p1 = tuple(sorted(q[:2]))
    p2 = tuple(sorted(q[2:]))
    d1, d2 = p1[1] - p1[0], p2[1] - p2[0]
    s1, s2 = p1[0] + p1[1], p2[0] + p2[1]
    if (-d1, s1, p1) <= (-d2, s2, p2):
        return p1 + p2
    return p2 + p1


def _pair_intervals(a: list[int]) -> tuple[list[list[int]], list[list[int]]]:
    """lo[i][j], hi[i][j]: the index bounds of S inside [|a_i - a_j|, a_i + a_j].

    The interval is never empty: it holds max(a_i, a_j).
    """
    lo = [[bisect_left(a, abs(x - y)) for y in a] for x in a]
    hi = [[bisect_right(a, x + y) - 1 for y in a] for x in a]
    return lo, hi


def _prefix_bitsets(lo: list[list[int]], hi: list[list[int]]):
    """le[k][h]: the l with lo[k][l] <= h; ge[k][g]: the l with hi[k][l] >= g."""
    m = len(lo)
    le, ge = [], []
    for lk, hk in zip(lo, hi):
        at_lo, at_hi, bit = [0] * m, [0] * m, 1
        for x, y in zip(lk, hk):
            at_lo[x] |= bit
            at_hi[y] |= bit
            bit <<= 1
        le.append(list(accumulate(at_lo, or_)))
        ge.append(list(accumulate(at_hi[::-1], or_))[::-1])
    return le, ge


@dataclass(frozen=True)
class FourValuesResult:
    holds: bool
    witness: tuple | None = None          # lex-least q with good(q) != good(q*)
    witness_swap: tuple | None = None
    witness_bad: tuple | None = None      # the bad member, table-canonical form

    def __bool__(self):
        return self.holds


def check_four_values(
    s: DistanceSet, bound: int = DEFAULT_CONFIG.four_values_bound
) -> FourValuesResult:
    """Decide the 4-values condition; on failure report the least mismatch.

    The witness is the lexicographically least q in S^4 whose goodness differs
    from that of q*.  witness_bad is the bad member of {q, q*} in canonical
    form, which is how such witnesses are conventionally printed.

    The scan is O(|S|^3) on indices.  For fixed (i, j, k) the l with
    (i, j, k, l) good form the bitset le[k][hi_ij] & ge[k][lo_ij], and the l
    with (i, k, j, l) good form le[j][hi_ik] & ge[j][lo_ik]; the lowest bit
    of their XOR is the least mismatching l.

    Only orbit representatives are scanned.  Goodness depends only on the
    two pairs, unordered.  (j, i, l, k) and (k, l, i, j) have the pairs of
    q = (i, j, k, l), and their swaps have the pairs of q*, so a mismatch at
    q is one at both; it is also one at q* = (i, k, j, l), whose swap is q.
    These moves put each of i, j, k, l first.  No mismatch has j = k
    (q* = q) or i = l (q* is q with its pairs exchanged).  So the lex-least
    mismatch has i = min(i, j, k, l), j < k and i < l, and it is the first
    mismatch that the scan over j >= i, k > j, l > i meets in product order.
    """
    if len(s) > bound:
        raise SearchTooLarge(f"4-values check too large: |S|={len(s)} > {bound}")
    lo, hi = _pair_intervals(_scaled(s.values)[0])
    le, ge = _prefix_bitsets(lo, hi)
    m = len(lo)
    for i in range(m - 1):
        lo_i, hi_i, above_i = lo[i], hi[i], -2 << i
        for j in range(i, m - 1):
            lo_ij, hi_ij, le_j, ge_j = lo_i[j], hi_i[j], le[j], ge[j]
            for k in range(j + 1, m):
                good = le[k][hi_ij] & ge[k][lo_ij]
                diff = (good ^ (le_j[hi_i[k]] & ge_j[lo_i[k]])) & above_i
                if diff:
                    l = (diff & -diff).bit_length() - 1
                    vals = s.values
                    q = (vals[i], vals[j], vals[k], vals[l])
                    bad = swap(q) if good >> l & 1 else q
                    return FourValuesResult(False, q, swap(q), canonical_quadruple(bad))
    return FourValuesResult(True)


@dataclass(frozen=True)
class BadQuadrupleRow:
    interval: AdmissibleInterval
    quadruple: tuple
    resolutions: tuple  # ((op, target-canonical-quadruple), ...); empty = self-resolving
    unresolved: bool    # True when neither swap is bad: a 4-values failure


def bad_quadruples(
    s: DistanceSet, bound: int = DEFAULT_CONFIG.four_values_bound
) -> list[BadQuadrupleRow]:
    """The table of bad quadruples, deduplicated up to trivial permutation.

    Rows are grouped by empty admissible interval, sorted lexicographically.
    Each row records how its quadruple is matched by a swap: the inner swap
    (*), the outer swap, both when they give distinct partners, or neither
    (only possible when S fails the 4-values condition).
    """
    if len(s) > bound:
        raise SearchTooLarge(f"bad-quadruple scan too large: |S|={len(s)} > {bound}")
    a, scale = _scaled(s.values)
    lo, hi = _pair_intervals(a)
    m = len(a)
    # index pairs i <= j in the order canonical_quadruple puts pairs in; the
    # representatives are then exactly pairs[x] + pairs[y] with x <= y
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
        # pairs[x] comes first, so its difference is the larger one and
        # lo[k][l] <= lo_ij: the pair intervals meet unless hi[k][l] < lo_ij
        for k, l, hi_kl in tops[x:]:
            if hi_kl >= lo_ij:
                continue
            q = (i, j, k, l)
            resolutions = []
            resolved = False
            # j >= lo_ij > hi_kl >= l >= k, and j >= i: j is the largest index
            # in q.  Each partner has j in its second pair, so that pair's hi
            # is at least j, which is at least the first pair's lo: the partner
            # is bad exactly when the second pair's lo is above the first's hi
            for op, (u0, u1, u2, u3) in (("*", (i, k, j, l)), ("_*", (i, l, k, j))):
                if lo[u2][u3] > hi[u0][u1]:
                    resolved = True
                    cp = canonical(u0, u1, u2, u3)
                    if cp != q and all(cp != t for _, t in resolutions):
                        resolutions.append((op, cp))
            keyed.append(((a[j] - a[i], min(a[i] + a[j], a[k] + a[l]), q), resolutions, not resolved))
    keyed.sort()  # the (lo, hi, q) keys are distinct
    # rows come grouped by interval: one Fraction per distinct endpoint, and
    # one AdmissibleInterval per group, shared by the rows of the group
    frac = {u: Fraction(u, scale) for u in {e for (x, y, _), _, _ in keyed for e in (x, y)}}
    value = s.values.__getitem__
    rows = []
    for (x, y), group in groupby(keyed, lambda row: row[0][:2]):
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


def format_bad_quadruple_table(rows: list[BadQuadrupleRow]) -> str:
    out = []
    for r in rows:
        quad = "(" + ",".join(format_fraction(v) for v in r.quadruple) + ")"
        line = f"{r.interval}  {quad}"
        for op, target in r.resolutions:
            line += f", {op} -> (" + ",".join(format_fraction(v) for v in target) + ")"
        if r.unresolved:
            line += ", UNRESOLVED"
        out.append(line)
    return "\n".join(out)


def similar(s: DistanceSet, t: DistanceSet) -> bool:
    """Equivalence of distance sets: same triple-inequality patterns.

    S is sorted, so the i with s_i <= s_j + s_k form a prefix, of length
    bisect_right(S, s_j + s_k); two sets are similar exactly when those
    lengths agree for every j <= k.  S and T are compared scaled to ints.
    """
    if len(s) != len(t):
        return False
    a, b = _scaled(s.values)[0], _scaled(t.values)[0]
    return all(
        bisect_right(a, a[j] + a[k]) == bisect_right(b, b[j] + b[k])
        for j in range(len(a)) for k in range(j, len(a))
    )


class AmalgamationError(Exception):
    pass


def _adjoin_point(ints, scale, m, subset, f, choose):
    """Add one point at distance f over the subset, amalgamating the rest.

    m is the distance matrix times scale, ints is S times scale, and m grows
    in place.  Every other point y, in index order, gets choose(values): the
    values of ints in [max |a-b|, min a+b] over the points k placed before
    it, with a = d(new, k) and b = d(k, y).  With no point placed, all of S.
    The interval is the Katetov test solved for y alone, O(placed + |S|) a
    point; filtering S through katetov._katetov_witness costs |S| x placed.
    """
    n = len(m)
    new = dict(zip(subset, f))
    for y in range(n):
        if y in new:
            continue
        row, lo, hi = m[y], 0, inf  # m is symmetric: row[k] is d(k, y)
        for k, v in new.items():
            b = row[k]
            if abs(v - b) > lo:
                lo = abs(v - b)
            if v + b < hi:
                hi = v + b
        candidates = [u for u in ints if lo <= u <= hi]
        if not candidates:
            raise InvalidSpace(
                f"one-point amalgamation stuck at point {y}: no S value in "
                f"[{format_fraction(Fraction(lo, scale))},"
                f"{format_fraction(Fraction(hi, scale))}]"
            )
        new[y] = choose(candidates)
    for i, row in enumerate(m):
        row.append(new[i])
    m.append([new[i] for i in range(n)] + [0])


def amalgamate(
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
    exclusive points of y1 after it, in index order.  Each of them is adjoined
    in turn at its y1 distances to the points of y1 placed so far; every
    other cross distance is the least element of S admissible over the
    points placed before it (`_adjoin_point` with choose=min), which makes
    the output deterministic.  config.four_values_bound caps |S| for the
    4-values check run first.  The amalgam is metric with no triangle scan:
    `_adjoin_point` puts every value in the admissible interval over the
    points placed before it, so each adjoined point is a Katetov map over a
    metric space, given that y0 and y1 are metric.
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

    # the int views of y0 and y1 at S's scale, which their scales divide:
    # their distances lie in S
    ints, scale = _scaled(s.values)
    (m0, scale0), (m1, scale1) = y0._scaled_rows(), y1._scaled_rows()
    k0, k1 = scale // scale0, scale // scale1
    m = [[u * k0 for u in row] for row in m0]
    placed = dict(zip(x1, x0))  # y1 index -> amalgam index
    try:
        for e in range(y1.n):
            if e not in placed:
                f = [m1[e][q] * k1 for q in placed]
                _adjoin_point(ints, scale, m, placed.values(), f, min)
                placed[e] = len(m) - 1
    except InvalidSpace as exc:  # unreachable once the 4-values check passed
        raise AmalgamationError(f"amalgam is not metric: {exc}") from exc
    return FiniteMetricSpace._from_rows(_fraction_rows(m, scale))
