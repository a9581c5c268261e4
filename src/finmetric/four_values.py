"""The 4-values condition, the good/bad-quadruple calculus, and amalgamation.

A quadruple q = (u0,u1,u2,u3) over a distance set S has the admissible
interval I(q) = [max(|u0-u1|, |u2-u3|), min(u0+u1, u2+u3)]; q is good when
I(q) meets S.  S satisfies the 4-values condition exactly when goodness is
invariant under the swap q* = (u0,u2,u1,u3), and that condition is equivalent
to the class of finite S-valued metric spaces having strong amalgamation.

The two |S|^4 scans run on integers.  S is multiplied by the lcm of its
denominators, which makes every value an int.  Each comparison above is
between sums, differences and elements of S, and a positive scaling keeps
all of them, so no verdict, witness or row order changes.  For each index
pair (i, j) the scans keep one bitset, the pair mask: bit t is set when
|a_i - a_j| <= a_t <= a_i + a_j.  I(q) is the intersection of its two pair
intervals, so (a_i, a_j, a_k, a_l) is good exactly when
mask[i][j] & mask[k][l] is non-zero.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .spaces import (
    DEFAULT_CONFIG,
    Config,
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    _scaled,
    format_fraction,
)


@dataclass(frozen=True)
class AdmissibleInterval:
    lo: Fraction
    hi: Fraction  # lo > hi encodes the empty interval

    def meets(self, s: DistanceSet) -> bool:
        return any(self.lo <= v <= self.hi for v in s)

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


def outer_swap(q):
    """The other useful involution, exchanging u1 and u3."""
    u0, u1, u2, u3 = q
    return (u0, u3, u2, u1)


def is_good(q, s: DistanceSet) -> bool:
    return interval(q).meets(s)


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


def _pair_masks(a: list[int]) -> list[list[int]]:
    """mask[i][j]: bit t set exactly when |a_i - a_j| <= a_t <= a_i + a_j."""
    return [
        [(1 << bisect_right(a, x + y)) - (1 << bisect_left(a, abs(x - y))) for y in a]
        for x in a
    ]


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
    """
    if len(s) > bound:
        raise SearchTooLarge(f"4-values check too large: |S|={len(s)} > {bound}")
    masks = _pair_masks(_scaled(s.values)[0])
    r = range(len(masks))
    # i, j, k, l in itertools.product order: the first mismatch is lex-least
    for i in r:
        mi = masks[i]
        for j in r:
            mij, mj = mi[j], masks[j]
            for k in r:
                mik, mk = mi[k], masks[k]
                for l in r:
                    if (not mij & mk[l]) != (not mik & mj[l]):
                        vals = s.values
                        q = (vals[i], vals[j], vals[k], vals[l])
                        bad = swap(q) if mij & mk[l] else q
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
    masks = _pair_masks(a)
    m = len(a)
    # index pairs i <= j in the order canonical_quadruple puts pairs in; the
    # representatives are then exactly pairs[x] + pairs[y] with x <= y
    pairs = sorted(
        ((i, j) for i in range(m) for j in range(i, m)),
        key=lambda p: (a[p[0]] - a[p[1]], a[p[0]] + a[p[1]], p),
    )
    rank = {p: x for x, p in enumerate(pairs)}

    def canonical(u0, u1, u2, u3):
        p1 = (u0, u1) if u0 <= u1 else (u1, u0)
        p2 = (u2, u3) if u2 <= u3 else (u3, u2)
        return p1 + p2 if rank[p1] <= rank[p2] else p2 + p1

    keyed = []
    for x, (i, j) in enumerate(pairs):
        mij = masks[i][j]
        for k, l in pairs[x:]:
            if mij & masks[k][l]:
                continue
            q = (i, j, k, l)
            resolutions = []
            resolved = False
            for op, (u0, u1, u2, u3) in (("*", (i, k, j, l)), ("_*", (i, l, k, j))):
                if not masks[u0][u1] & masks[u2][u3]:
                    resolved = True
                    cp = canonical(u0, u1, u2, u3)
                    if cp != q and all(cp != t for _, t in resolutions):
                        resolutions.append((op, cp))
            # pairs[x] comes first, so its difference is the larger one
            lo, hi = a[j] - a[i], min(a[i] + a[j], a[k] + a[l])
            keyed.append(((lo, hi, q), resolutions, not resolved))
    keyed.sort()  # the (lo, hi, q) keys are distinct
    vals = s.values
    return [
        BadQuadrupleRow(
            AdmissibleInterval(Fraction(lo, scale), Fraction(hi, scale)),
            tuple(vals[u] for u in q),
            tuple((op, tuple(vals[u] for u in t)) for op, t in resolutions),
            unresolved,
        )
        for (lo, hi, q), resolutions, unresolved in keyed
    ]


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
    """Equivalence of distance sets: same triple-inequality patterns."""
    if len(s) != len(t):
        return False
    sv, tv = s.values, t.values
    m = len(sv)
    return all(
        (sv[i] <= sv[j] + sv[k]) == (tv[i] <= tv[j] + tv[k])
        for i, j, k in itertools.product(range(m), repeat=3)
    )


class AmalgamationError(Exception):
    pass


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
