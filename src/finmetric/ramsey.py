"""Ramsey degrees, critical distances, metric orderings, and finite verifiers.

Degrees are exact integers: the number of order types of a space, i.e. the
relevant ordering count divided by the isometry-group order.  The arrow and
ordering-property verifiers are exhaustive finite checks, not theorems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .spaces import (
    Config,
    DEFAULT_CONFIG,
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    copies,
    isometries,
    isometry_order,
)
from .ultratrees import DegreeRecord


def ramsey_degree_general(
    x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> DegreeRecord:
    """Degree in the class of all finite metric spaces: n! over |iso|."""
    lo = math.factorial(x.n)
    iso = isometry_order(x, config)
    if lo % iso:
        raise AssertionError(f"|iso|={iso} does not divide |LO|={lo}")
    return DegreeRecord(lo, iso, lo // iso)


def critical_distances(s: DistanceSet) -> list[Fraction]:
    """Values s with no S element in (s, 2s]; closeness below them is transitive.

    max S always qualifies, so the list is never empty.  Whether exotic sets
    admit further critical values beyond this interval test is not addressed
    here; this is exactly the (s, 2s] criterion.
    """
    out = [v for v in s.values if not any(v < w <= 2 * v for w in s.values)]
    if s.max not in out:
        raise AssertionError(f"max S = {s.max} is not critical")
    return out


def _equivalence_classes(x: FiniteMetricSpace, threshold: Fraction) -> list[list[int]]:
    """Classes of d <= threshold; the relation must be transitive to be used."""
    classes = []
    assigned = {}
    for p in range(x.n):
        if p in assigned:
            continue
        cls = [q for q in range(x.n) if x.d[p][q] <= threshold]
        for a in cls:
            for b in cls:
                if x.d[a][b] > threshold:
                    raise InvalidSpace(
                        f"closeness at {threshold} is not an equivalence on this space"
                    )
        for q in cls:
            assigned[q] = len(classes)
        classes.append(cls)
    return classes


def metric_orderings_count(
    x: FiniteMetricSpace, s: DistanceSet, config: Config = DEFAULT_CONFIG
) -> int:
    """Orderings making every closeness class convex, for every critical value.

    The classes of the critical values are nested (each critical value's
    partition refines the next one's), so they form a laminar tree under the
    whole space.  An ordering keeps them all intervals exactly when it orders
    the children of every node as blocks: the count is the product over the
    root and every class of (maximal subclasses + points in no subclass)!.
    """
    if any(v not in s for v in x.distances()):
        raise InvalidSpace("space has a distance outside S")
    if x.n > config.iso_bound:
        raise SearchTooLarge(f"ordering scan too large: n={x.n}")
    class_sets = set()
    for c in critical_distances(s):
        for cls in _equivalence_classes(x, c):
            if 1 < len(cls) < x.n:
                class_sets.add(frozenset(cls))
    count = 1
    for node in class_sets | {frozenset(range(x.n))}:
        subs = [c for c in class_sets if c < node]
        maximal = [c for c in subs if not any(c < o for o in subs)]
        count *= math.factorial(len(node) - sum(map(len, maximal)) + len(maximal))
    return count


def ramsey_degree_metric_ordered(
    x: FiniteMetricSpace, s: DistanceSet, config: Config = DEFAULT_CONFIG
) -> DegreeRecord:
    """Degree in the S-distance class: metric orderings over isometries."""
    mlo = metric_orderings_count(x, s, config)
    iso = isometry_order(x, config)
    if mlo % iso:
        raise AssertionError(f"|iso|={iso} does not divide |mLO|={mlo}")
    return DegreeRecord(mlo, iso, mlo // iso)


def order_types(
    x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> list[tuple[int, ...]]:
    """One ordering per orbit under the isometry group.

    Orderings are point sequences; two are equivalent when the order-driven
    bijection between them is an isometry.  The orbit count is n!/|iso|.
    """
    group = isometries(x, config)
    seen = set()
    reps = []
    for perm in itertools.permutations(range(x.n)):
        if perm in seen:
            continue
        reps.append(perm)
        for g in group:
            seen.add(tuple(g[p] for p in perm))
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
    x-copies carry at most l colors.  The first copy's color is pinned to 0
    (color permutations preserve the verdict), and colorings are searched
    depth first in lexicographic order so a failure witness is the least
    one.  A partial coloring is cut as soon as a copy of y whose last x-copy
    is colored shows at most l colors: every completion of it is good.
    """
    copies_x = copies(z, x, config)
    n_copies = len(copies_x)
    if n_copies > config.arrow_copy_budget:
        raise SearchTooLarge(
            f"arrow search too large: {n_copies} copies > {config.arrow_copy_budget}"
        )
    copies_y = copies(z, y, config)
    if not copies_y:
        # no big copy at all: the arrow fails for any coloring unless there
        # is nothing to color
        holds = n_copies == 0
        return ArrowResult(holds, n_copies, 0, None if holds else ())
    closing: list[list[list[int]]] = [[] for _ in range(n_copies)]
    for yc in copies_y:
        members = set(yc)
        sub = [i for i, c in enumerate(copies_x) if set(c) <= members]
        if not sub:
            if l >= 0:  # no x-copy to color: good under every coloring
                return ArrowResult(True, n_copies, k ** max(n_copies - 1, 0))
            continue
        closing[sub[-1]].append(sub)
    coloring: list[int] = []

    def witness() -> bool:
        """Color the next copy; true once every copy of y is left bad."""
        t = len(coloring)
        if t == n_copies:
            return True
        for color in range(k) if t else (0,):
            coloring.append(color)
            if all(len({coloring[i] for i in sub}) > l for sub in closing[t]):
                if witness():
                    return True
            coloring.pop()
        return False

    if witness():
        rank = 0
        for color in coloring[1:]:
            rank = rank * k + color
        return ArrowResult(False, n_copies, rank + 1, tuple(coloring))
    return ArrowResult(True, n_copies, k ** max(n_copies - 1, 0))


def _order_preserving_copy_exists(
    y: FiniteMetricSpace, order_y, x: FiniteMetricSpace, order_x
) -> bool:
    """Is there an isometric copy of x in y aligned with both orderings?

    Orderings are point sequences listing the points from least to greatest.
    """
    seq_x = list(order_x)
    seq_y = list(order_y)

    def extend(img):
        i = len(img)
        if i == x.n:
            return True
        start = seq_y.index(img[-1]) + 1 if img else 0
        for pos in range(start, y.n):
            cand = seq_y[pos]
            if all(
                y.d[cand][img[j]] == x.d[seq_x[i]][seq_x[j]] for j in range(i)
            ):
                if extend(img + [cand]):
                    return True
        return False

    return extend([])


def _is_interval(positions) -> bool:
    spots = sorted(positions)
    return spots[-1] - spots[0] == len(spots) - 1


def _orderings_in_class(y: FiniteMetricSpace, which: str, s: DistanceSet | None):
    """Yield point sequences of y belonging to the requested ordering class."""
    if which == "all":
        yield from itertools.permutations(range(y.n))
        return
    if which == "convex":
        from .ultratrees import _balls

        groups = _balls(y)
    elif which == "metric":
        if s is None:
            s = y.distance_set()
        groups = set()
        for c in critical_distances(s):
            for cls in _equivalence_classes(y, c):
                if 1 < len(cls) < y.n:
                    groups.add(frozenset(cls))
    else:
        raise InvalidSpace(f"unknown ordering class {which!r}")
    for perm in itertools.permutations(range(y.n)):
        pos = {p: i for i, p in enumerate(perm)}
        if all(_is_interval([pos[p] for p in grp]) for grp in groups):
            yield perm


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
    """
    if y.n > config.ordering_bound:
        raise SearchTooLarge(f"ordering-property scan too large: n={y.n}")
    order_x = tuple(order_x)
    for order_y in _orderings_in_class(y, ordering_class, s):
        if not _order_preserving_copy_exists(y, order_y, x, order_x):
            return False
    return True
