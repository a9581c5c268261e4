"""Ramsey degrees, critical distances, metric orderings, and finite verifiers.

Degrees are exact integers: the number of order types of a space, i.e. the
relevant ordering count divided by the isometry-group order.  The arrow and
ordering-property verifiers are exhaustive finite checks, not theorems.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .spaces import (
    Config,
    DEFAULT_CONFIG,
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    _check_distances,
    _match,
    _rank_matrix,
    _ranked,
    _twins,
    copies,
    isometries,
    isometry_order,
)
from .ultratrees import DegreeRecord, _block_orderings, _class_tree, _degree_record


def ramsey_degree_general(
    x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> DegreeRecord:
    """Degree in the class of all finite metric spaces: n! over |iso|."""
    return _degree_record("LO", math.factorial(x.n), isometry_order(x, config))


def critical_distances(s: DistanceSet) -> list[Fraction]:
    """Values s with no S element in (s, 2s]; closeness below them is transitive.

    max S always qualifies, so the list is never empty.  Whether exotic sets
    admit further critical values beyond this interval test is not addressed
    here; this is exactly the (s, 2s] criterion.
    """
    vals, ints = s.values, s._scaled_values()[0]
    # sorted and distinct: the least value above v is the next one; the
    # test runs on S's int view
    return [v for v, u, w in zip(vals, ints, ints[1:]) if w > 2 * u] + [vals[-1]]


def metric_orderings_count(x: FiniteMetricSpace, s: DistanceSet) -> int:
    """Orderings making every closeness class convex, for every critical value.

    With every distance of x in S, closeness d <= c at a critical value c is
    transitive: d(a, b), d(b, e) <= c give d(a, e) <= 2c, and S has no value
    in (c, 2c].  So each class is the set of points within c of any one of
    its members, which is how `_class_tree` splits a node, and the classes
    of the critical values nest, each one's partition refining the next
    larger one's.  An ordering keeps the classes intervals exactly when it
    orders the children of every node of that tree as blocks: the count is
    the product over the nodes of (number of children)!.
    """
    _check_distances(x, s)
    parents, _, _ = _class_tree(x, sorted(critical_distances(s), reverse=True))
    return _block_orderings(parents)


def ramsey_degree_metric_ordered(
    x: FiniteMetricSpace, s: DistanceSet, config: Config = DEFAULT_CONFIG
) -> DegreeRecord:
    """Degree in the S-distance class: metric orderings over isometries."""
    return _degree_record("mLO", metric_orderings_count(x, s), isometry_order(x, config))


def order_types(
    x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> list[tuple[int, ...]]:
    """One ordering per orbit under the isometry group.

    Orderings are point sequences; two are equivalent when the order-driven
    bijection between them is an isometry.  The orbit count is n!/|iso|.
    The representative is the lexicographically least ordering of its
    orbit, and the list is in lexicographic order.  An ordering is least in
    its orbit exactly when each entry c is the least point of its orbit
    under the isometries fixing the earlier entries pointwise, that is when
    g[c] >= c for every such g.  So a depth-first search in ascending order
    keeps that stabilizer, filtered by one more fixed point per level; once
    it is trivial, every ordering of the unused points is the least of its
    own orbit (the group acts freely on orderings), and those are emitted in
    `itertools.permutations` order.  No n! scan is made.
    """
    group = isometries(x, config)
    reps: list[tuple[int, ...]] = []

    def extend(prefix: tuple, unused: list, stab: list) -> None:
        if len(stab) == 1:
            reps.extend(prefix + p for p in itertools.permutations(unused))
            return
        for c in unused:
            if all(g[c] >= c for g in stab):
                extend(prefix + (c,), [u for u in unused if u != c],
                       [g for g in stab if g[c] == c])

    extend((), list(range(x.n)), group)
    if len(reps) != math.factorial(x.n) // len(group):
        raise AssertionError(
            f"{len(reps)} order types, but n!/|iso| = {math.factorial(x.n) // len(group)}"
        )
    return reps


@dataclass
class ArrowResult:
    """The verdict of `verify_arrow`.

    colorings_checked is the number of colorings (first color pinned) that a
    scan in lexicographic order checks: the witness's rank + 1 when the arrow
    fails, all k^(N-1) of them when it holds (N copies of x; 1 when N = 0),
    and 0 when z has no copy of y.  The search itself visits fewer.
    """

    holds: bool
    copies_of_x: int
    colorings_checked: int
    witness_coloring: tuple | None = None  # least coloring with no good big copy

    def __bool__(self):
        return self.holds


def verify_arrow(
    z: FiniteMetricSpace,
    y: FiniteMetricSpace,
    x: FiniteMetricSpace,
    k: int = 2,
    l: int = 1,
    config: Config = DEFAULT_CONFIG,
) -> ArrowResult:
    """Exhaustively decide whether z arrows (y) over x with k colors, l values.

    Every k-coloring of the copies of x in z must admit a copy of y whose
    x-copies carry at most l colors.  Colorings are searched depth first in
    lexicographic order, so a failure witness is the least one.  Only those
    whose colors first appear in the order 0, 1, 2, ... are tried: relabelling
    colors by first appearance keeps a coloring failing and does not raise it
    lexicographically, so the least witness is among these, and a huge k
    costs what k = n_copies costs.  Copy t may not take a color that leaves a
    copy of y whose last x-copy is t with at most l colors: every completion
    would be good.  This is decided once per node from each such y-copy's
    rest, the colors of its earlier x-copies: a rest of fewer than l colors
    leaves t no color, one of exactly l colors bans those, a larger one bans
    none.  That is the per-color test solved for the color, so the search
    visits the same nodes in the same order and finds the same witness.
    """
    if k < 1 or l < 0:
        raise InvalidSpace(f"the arrow needs k >= 1 colors and l >= 0 values, got k={k}, l={l}")
    copies_x = copies(z, x, config)
    n_copies = len(copies_x)
    if n_copies > config.arrow_copy_budget:
        raise SearchTooLarge(f"arrow search too large: {n_copies} copies > {config.arrow_copy_budget}")
    copies_y = copies(z, y, config)
    if not copies_y:
        # no big copy at all: the arrow fails for any coloring unless there
        # is nothing to color
        holds = n_copies == 0
        return ArrowResult(holds, n_copies, 0, None if holds else ())
    rests: list[list[list[int]]] = [[] for _ in range(n_copies)]
    for yc in copies_y:
        members = set(yc)
        sub = [i for i, c in enumerate(copies_x) if members.issuperset(c)]
        if not sub:  # no x-copy to color: good under every coloring
            return ArrowResult(True, n_copies, k ** max(n_copies - 1, 0))
        rests[sub.pop()].append(sub)  # filed under the x-copy that closes it
    bits: list[int] = []  # 1 << color of each colored copy

    def witness(used: int) -> bool:
        """Color the next copy with one of the used colors 0..used-1 or a new
        one; true once every copy of y is left bad."""
        t = len(bits)
        if t == n_copies:
            return True
        banned = 0
        for rest in rests[t]:
            seen = 0
            for i in rest:
                seen |= bits[i]
            m = seen.bit_count()
            if m < l:
                return False
            if m == l:
                banned |= seen
        for color in range(used + 1 if used < k else k):
            if not banned >> color & 1:
                bits.append(1 << color)
                if witness(used + (color == used)):
                    return True
                bits.pop()
        return False

    if witness(0):
        coloring = tuple(b.bit_length() - 1 for b in bits)
        rank = functools.reduce(lambda r, color: r * k + color, coloring[1:], 0)
        return ArrowResult(False, n_copies, rank + 1, coloring)
    return ArrowResult(True, n_copies, k ** max(n_copies - 1, 0))


def _class_groups(y: FiniteMetricSpace, which: str, s: DistanceSet | None, masks) -> list[int]:
    """Point bitmasks of the groups that every ordering in the class keeps contiguous.

    masks are y's rank masks (`_ranked`), so the ball of p at rank v is the
    OR of masks[p][0..v].  The convex class keeps every ball contiguous.
    The metric class keeps the closeness classes at each critical value c,
    which, with every distance of y in s, are the balls of radius c (see
    `metric_orderings_count`): those at the rank cut of c, the number of
    y's distances at most c.  Groups of one point or of all points
    constrain nothing and are left out.
    """
    if which == "all":
        return []
    if which == "convex":
        cuts = range(len(masks[0])) if masks else ()
    elif which == "metric":
        if s is None:
            s = y.distance_set()
        _check_distances(y, s)
        dist = y.distances()
        cuts = [sum(v <= c for v in dist) for c in critical_distances(s)]
    else:
        raise InvalidSpace(f"unknown ordering class {which!r}")
    groups = set()
    for row in masks:
        balls = list(itertools.accumulate(row, operator.or_))
        groups.update(balls[v] for v in cuts)
    return [g for g in groups if g & (g - 1) and g != (1 << y.n) - 1]


def _interval_orders(groups: list[int], order: list[int], free: int, visit, cut=None) -> bool:
    """Extend order by the points of the bitmask free, one at a time.

    The candidates are the free points lying in every group that is started
    but not finished: once a group is entered, no point outside it comes
    before it is complete.  So the complete orders are exactly the orders
    in which every group is contiguous.  visit(order) is called on each,
    and the search stops as soon as it returns true.  If given,
    cut(order, rest) is called after each placement, with rest the points
    still free, and a true value drops every completion of order.
    """
    if not free:
        return bool(visit(order))
    cands = free
    for g in groups:
        if g & free and g & ~free:
            cands &= g
    while cands:
        low = cands & -cands
        order.append(low.bit_length() - 1)
        rest = free ^ low
        if not (cut and cut(order, rest)) and (
                _interval_orders(groups, order, rest, visit, cut) if rest else visit(order)):
            order.pop()
            return True
        order.pop()
        cands ^= low
    return False


def verify_ordering_property_witness(
    y: FiniteMetricSpace,
    x: FiniteMetricSpace,
    order_x,
    ordering_class: str = "all",
    s: DistanceSet | None = None,
    config: Config = DEFAULT_CONFIG,
) -> bool:
    """Does every ordering of y (in the class) embed the ordered space (x, <)?

    This is the single-candidate check behind the ordering property: a
    witness y works when no ordering of it avoids an order-preserving copy.
    order_x must list every point of x once; the "metric" class also needs
    every distance of y in s (default: y's own distance set).

    When x is equilateral (as every space of at most two points is), each
    order of a copy's points is again a copy, so every ordering holds one
    exactly when y does.  Otherwise the orderings of y in the class are
    built left to right by `_interval_orders`, which cuts a prefix as soon
    as every completion of it holds a copy: when the point p just placed
    is the image of x's second-last point under a copy whose earlier
    images are placed in increasing order and whose last image is still
    free, for that point comes after p in every completion.  A complete
    ordering holding a copy had its prefix cut when that copy's second-last
    image was placed, so the orderings the search reaches are exactly the
    avoiding ones.  The copies through p are searched by `_match` from x's
    second-last point down to its first, on each placed point's masks cut
    to the points placed before it.
    """
    if y.n > config.ordering_bound:
        raise SearchTooLarge(f"ordering-property scan too large: n={y.n}")
    order_x = tuple(order_x)
    if sorted(order_x) != list(range(x.n)):
        raise InvalidSpace(
            f"order {','.join(map(str, order_x))} is not an ordering of the {x.n} points of x"
        )
    table, _, masks = _ranked(y)
    groups, full = _class_groups(y, ordering_class, s, masks), (1 << y.n) - 1

    def class_is_empty():
        return not _interval_orders(groups, [], full, lambda order_y: True)

    try:
        r = _rank_matrix(x.submetric(order_x), table, y._scaled_rows()[1])
    except KeyError:  # x has a distance that y lacks: only an empty class embeds it
        return class_is_empty()
    if all(_twins(r, 0, q) for q in range(1, x.n)):  # x is equilateral
        return _match(r, masks, [], lambda img: True) or class_is_empty()
    back = [row[-2::-1] for row in r[-2::-1]]  # x's points from the second last down
    last = r[-1][-2::-1]  # the ranks from x's last point to those points
    cut = [[]] * y.n  # cut[q]: the masks of a placed q, cut to the points placed before q

    def holds_copy(order_y, free):
        p = order_y[-1]
        before = full ^ free ^ (1 << p)
        cut[p] = [m & before for m in masks[p]]

        def last_free(img):  # a free point at the right ranks from every image
            lasts = free
            for q, v in zip(img, last):
                lasts &= masks[q][v]
            return lasts

        return free & masks[p][last[0]] and _match(back, cut, [p], last_free)

    return not _interval_orders(groups, [], full, lambda order_y: True, holds_copy)
