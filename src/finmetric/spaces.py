"""Exact finite metric spaces and edge-labelled graphs.

All distances are `fractions.Fraction` values kept in lowest terms, so every
verdict in this package is bit-exact.  Floats are rejected at the boundary.
Fractions stay at the boundary: each space also carries one int view of its
matrix, the rows times the lcm of their denominators, built once by
`_int_rows` (in the checked constructor, or on first use) and read through
`_scaled_rows()`.  A positive scale keeps every comparison, so the
constructor's checks, the triple scan, the rankings of the searches below
and the Katetov and amalgamation kernels all run on those ints; proved int
results skip the re-check.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class SearchTooLarge(Exception):
    """Raised when an exhaustive scan would exceed the configured bound."""


class InvalidSpace(Exception):
    """Raised when input data violates a structural invariant."""


@dataclass(frozen=True)
class Config:
    """Search bounds.  These are artifact decisions, not constants."""

    iso_bound: int = 10
    copies_bound: int = 12
    canon_bound: int = 10
    arrow_copy_budget: int = 24
    urysohn_max_points: int = 64
    four_values_bound: int = 12  # largest |S| for the |S|^4 scans
    ordering_bound: int = 9  # largest y for the ordering-property search


DEFAULT_CONFIG = Config()


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise InvalidSpace(f"float distance {value!r} not allowed; use p/q rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise InvalidSpace(f"zero denominator in {value!r}") from None
        except ValueError as exc:  # not a rational literal
            raise InvalidSpace(str(exc)) from None
    raise InvalidSpace(f"cannot interpret {value!r} as a rational")


def format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _check_points(n: int, points) -> None:
    """Reject a point index outside range(n), negative indices included."""
    for p in points:
        if not 0 <= p < n:
            raise InvalidSpace(f"point {p} out of range for a {n}-point space")


def _check_distances(x: FiniteMetricSpace, s: DistanceSet) -> None:
    """Reject a space with a distance outside the distance set s."""
    if any(v not in s for v in x.distances()):
        raise InvalidSpace("space has a distance outside S")


class DistanceSet:
    """A strictly increasing set of positive rationals."""

    def __init__(self, values: Iterable):
        vals = sorted({as_fraction(v) for v in values})
        if not vals:
            raise InvalidSpace("distance set must be non-empty")
        if vals[0] <= 0:
            raise InvalidSpace("distance set values must be positive")
        self.values: tuple[Fraction, ...] = tuple(vals)
        self._members = frozenset(vals)

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __contains__(self, v):
        return as_fraction(v) in self._members

    def __eq__(self, other):
        return isinstance(other, DistanceSet) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return "{" + ", ".join(format_fraction(v) for v in self.values) + "}"

    @property
    def max(self) -> Fraction:
        return self.values[-1]


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _int_rows(d) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The Fraction rows d times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*{v.denominator for row in d for v in row})
    if scale == 1:
        return tuple(tuple([v.numerator for v in row]) for row in d), 1
    return tuple(tuple([v.numerator * (scale // v.denominator) for v in row]) for row in d), scale


def _fraction_rows(m, scale: int) -> tuple[tuple[Fraction, ...], ...]:
    """The int rows m over scale as Fraction rows, one Fraction per distinct int."""
    frac = {u: Fraction(u, scale) for u in set().union(*m)}
    return tuple(tuple(map(frac.__getitem__, row)) for row in m)


def _violating_triple(m, join) -> tuple[int, int, int] | None:
    """The least (i, j, k) with one side > join of the other two, or None.

    m is an int matrix (a space's view, or its rows scaled to ints: a
    positive scaling keeps every comparison).  join is operator.add for the
    triangle inequality and max for the ultrametric one.  Triples are
    scanned in itertools.combinations order.
    """
    for i, j, k in itertools.combinations(range(len(m)), 3):
        a, b, c = m[i][j], m[i][k], m[j][k]
        if a > join(b, c) or b > join(a, c) or c > join(a, b):
            return i, j, k
    return None


class FiniteMetricSpace:
    """n points with an exact symmetric distance matrix satisfying the triangle inequality.

    .d holds the Fraction rows.  The int view, read through _scaled_rows(),
    is _int_rows(.d), which alone builds it: the pair (m, scale) with scale
    the lcm of .d's reduced denominators and m = .d times scale.  The scale
    must be that least one, not any common multiple: _rank_matrix reads a
    space's distances at another space's scale, which it can only do when
    the first scale divides the second.
    """

    def __init__(self, rows: Sequence[Sequence], check: bool = True):
        """Rows checked on every call: square, zero diagonal, symmetric, positive,
        triangle inequality, all on the int view, which is kept.  check is
        ignored, kept only for the benchmark's one caller; _from_rows is the
        only unchecked constructor."""
        d = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        n = len(d)
        if any(len(row) != n for row in d):
            raise InvalidSpace("distance matrix must be square")
        m, _ = ints = _int_rows(d)
        for i, mi in enumerate(m):
            if mi[i] != 0:
                raise InvalidSpace(f"d({i},{i}) = {d[i][i]} != 0")
            for j in range(i + 1, n):
                if mi[j] != m[j][i]:
                    raise InvalidSpace(f"d({i},{j}) != d({j},{i})")
                if mi[j] <= 0:
                    raise InvalidSpace(f"d({i},{j}) = {d[i][j]} must be positive")
        bad = _violating_triple(m, operator.add)
        if bad is not None:
            raise InvalidSpace("triangle inequality fails on ({},{},{})".format(*bad))
        self.n, self.d, self._ints = n, d, ints

    @classmethod
    def _from_rows(cls, d: tuple[tuple[Fraction, ...], ...]) -> "FiniteMetricSpace":
        """The space whose matrix is d, taken as it is: square tuple rows of
        Fractions that the caller has proved metric (a proved int matrix
        passes _fraction_rows(m, scale)).  The int view is built on first use."""
        x = cls.__new__(cls)
        x.n, x.d, x._ints = len(d), d, None
        return x

    def _scaled_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The int view (m, scale) = _int_rows(self.d), built at most once."""
        if self._ints is None:
            self._ints = _int_rows(self.d)
        return self._ints

    def distance_set(self) -> DistanceSet:
        vals = self.distances()
        if not vals:
            raise InvalidSpace(f"{'one-point' if self.n else 'the empty'} space has an empty distance set")
        return DistanceSet(vals)

    def distances(self) -> set[Fraction]:
        return {self.d[i][j] for i in range(self.n) for j in range(i + 1, self.n)}

    def submetric(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        """The points at the indices, in their order: distinct points of a metric space."""
        idx = list(indices)
        _check_points(self.n, idx)
        if len(set(idx)) != len(idx):
            raise InvalidSpace(f"repeated point in {idx}")
        return FiniteMetricSpace._from_rows(tuple(tuple(self.d[i][j] for j in idx) for i in idx))

    def is_ultrametric(self) -> bool:
        return _violating_triple(self._scaled_rows()[0], max) is None

    def __eq__(self, other):
        return isinstance(other, FiniteMetricSpace) and self.d == other.d

    def __hash__(self):
        return hash(self.d)

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n})"

    @classmethod
    def equilateral(cls, n: int, a) -> "FiniteMetricSpace":
        """n points pairwise at distance a, metric as a > 0."""
        a = as_fraction(a)
        if n >= 2 and a <= 0:
            raise InvalidSpace(f"equilateral distance must be positive, got {a}")
        zero = Fraction(0)
        return cls._from_rows(tuple(tuple(zero if i == j else a for j in range(n)) for i in range(n)))

    @classmethod
    def single_point(cls) -> "FiniteMetricSpace":
        """One point, trivially metric."""
        return cls._from_rows(((Fraction(0),),))


class EdgeLabelledGraph:
    """Symmetric partial assignment of positive rationals to point pairs."""

    def __init__(self, n: int, labels: dict | None = None):
        if n < 0:
            raise InvalidSpace(f"a graph needs at least 0 points, got {n}")
        self.n = n
        self._labels: dict[tuple[int, int], Fraction] = {}
        if labels:
            for (i, j), v in labels.items():
                self.set_label(i, j, v)

    def set_label(self, i: int, j: int, value) -> None:
        if i == j:
            raise InvalidSpace(f"no label allowed on ({i},{i})")
        v = as_fraction(value)
        if v <= 0:
            raise InvalidSpace(f"label on ({i},{j}) must be positive, got {v}")
        _check_points(self.n, (i, j))
        key = (min(i, j), max(i, j))
        if key in self._labels and self._labels[key] != v:
            raise InvalidSpace(f"conflicting labels on {key}")
        self._labels[key] = v

    def label(self, i: int, j: int) -> Fraction | None:
        return self._labels.get((min(i, j), max(i, j)))

    def labelled_pairs(self) -> list[tuple[int, int]]:
        return sorted(self._labels)

    def is_total(self) -> bool:
        return len(self._labels) == self.n * (self.n - 1) // 2

    def neighbours(self) -> list[list[int]]:
        """Each point's labelled neighbours, in ascending order."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self._labels:
            adj[a].append(b)
            adj[b].append(a)
        for row in adj:
            row.sort()
        return adj

    def is_connected(self) -> bool:
        """Whether the labelled pairs connect all n points: one walk, O(n + E log n)."""
        if self.n <= 1:
            return True
        adj = self.neighbours()
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == self.n


def _simple_paths(adj: list[list[int]], start: int, end: int, max_size: int):
    """Yield simple paths (vertex sequences) from start to end along adj's edges.

    adj lists each point's neighbours in ascending order, as
    EdgeLabelledGraph.neighbours does, so the paths come in lexicographic
    order: the walk takes neighbours in that order, and end only ever comes
    last, so no path is a proper prefix of another.
    """

    def walk(path):
        cur = path[-1]
        if cur == end and len(path) > 1:
            yield tuple(path)
            return
        if len(path) >= max_size:
            return
        for nxt in adj[cur]:
            if nxt not in path:
                path.append(nxt)
                yield from walk(path)
                path.pop()

    yield from walk([start])


def validate(g: EdgeLabelledGraph, mode: str, l: int | None = None):
    """Check the metric / ultrametric / l-metric constraints of an edge-labelled graph.

    Returns (True, None) or (False, witness) where the witness is the
    lexicographically least violating triple (or path for l-metric mode).
    Metric and ultrametric modes require a total labelling.
    """
    if mode in ("metric", "ultrametric"):
        if not g.is_total():
            raise InvalidSpace("incomplete labelling in a total mode")
        d = [
            [Fraction(0) if i == j else g.label(i, j) for j in range(g.n)]
            for i in range(g.n)
        ]
        bad = _violating_triple(_int_rows(d)[0], operator.add if mode == "metric" else max)
        return bad is None, bad
    if mode == "l-metric":
        if l is None or l < 1:
            raise InvalidSpace("l-metric mode needs a positive l")
        adj = g.neighbours()
        for (i, j) in g.labelled_pairs():
            lam = g.label(i, j)
            for path in _simple_paths(adj, i, j, l):
                length = sum(
                    g.label(path[t], path[t + 1]) for t in range(len(path) - 1)
                )
                if lam > length:
                    return False, path
        return True, None
    raise InvalidSpace(f"unknown mode {mode!r}")


def _path_closure(n: int, labels: dict, add: bool, cap: int) -> list[list[int]]:
    """Least path value between every two points, capped at cap.

    One Dijkstra search from each source over an adjacency list built once,
    on int labels in (0, cap]; every entry off the diagonal starts at cap,
    so a value that reaches cap is never pushed.  A path's value is its
    labels folded by + when add is true (shortest paths) and by max when it
    is false (minimax, bottleneck paths).  Dijkstra's order is exact for
    both: labels are positive and both folds are monotone in both arguments,
    so extending a path never lowers its value, and the least value on the
    heap is final.  Each relaxation writes its fold inline.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (i, j), v in labels.items():
        adj[i].append((j, v))
        adj[j].append((i, v))
    out = []
    for source in range(n):
        dist = [cap] * n
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, w in adj[u]:
                s = du + w if add else (du if du > w else w)
                if s < dist[v]:
                    dist[v] = s
                    heapq.heappush(heap, (s, v))
        out.append(dist)
    return out


def complete(g: EdgeLabelledGraph, mode: str, r=None) -> FiniteMetricSpace:
    """Path-metric completion of a partial edge-labelled graph.

    mode 'sum-cap': d(x,y) = min over paths of min(path sum, r).  The infimum
    over all paths is attained on simple paths because labels are positive.
    mode 'max': d(x,y) = min over paths of the largest edge label, capped at
    the largest label, which it never exceeds.  The space agrees with the
    labelling exactly and is metric with no triangle scan: on a connected
    graph with positive labels, least path sums capped at or above every
    label form a metric, and minimax path values an ultrametric.  Both come
    from one Dijkstra search per point (_path_closure), exact because the
    labels are positive and both joins, + and max, are monotone in both
    arguments.
    """
    if not g.is_connected():
        raise InvalidSpace("graph is disconnected; completion undefined")
    labels = {p: g._labels[p] for p in sorted(g._labels)}
    if mode == "sum-cap":
        if r is None:
            raise InvalidSpace("sum-cap mode needs a cap r")
        cap = as_fraction(r)
    elif mode == "max":
        cap = max(labels.values(), default=Fraction(1))
    else:
        raise InvalidSpace(f"unknown completion mode {mode!r}")
    # the checks run on the labels and the cap scaled to ints, which keeps
    # every comparison; Fractions are built only for a refusal's message
    ints, scale = _scaled([*labels.values(), cap])
    top = ints[-1]
    int_labels = dict(zip(labels, ints))
    for (i, j), u in int_labels.items():
        if u > top:
            raise InvalidSpace(
                f"cap {format_fraction(cap)} smaller than label on ({i},{j})"
            )
    m = _path_closure(g.n, int_labels, mode == "sum-cap", top)
    for (i, j), u in int_labels.items():
        if m[i][j] != u:
            raise InvalidSpace(
                f"labelling is not {mode}-consistent: pair ({i},{j}) has label "
                f"{format_fraction(labels[i, j])} but path value "
                f"{format_fraction(Fraction(m[i][j], scale))}"
            )
    return FiniteMetricSpace._from_rows(_fraction_rows(m, scale))


def _rank_rows(m) -> tuple[dict, tuple[tuple[int, ...], ...]]:
    """The ranks of the int matrix m: its distinct values get 0, 1, 2, ... in
    increasing order (0 is the diagonal, every other value of a space is
    positive), and the table with m read through it."""
    table = {u: v for v, u in enumerate(sorted(set().union(*m)))}
    return table, tuple(tuple(map(table.__getitem__, row)) for row in m)


def _rank_matrix(x: FiniteMetricSpace, table: dict, scale: int) -> list[list[int]]:
    """x's distances as ranks from table, another space's ranks at that
    space's scale; KeyError if x has a distance the table lacks, which is
    so when x's scale does not divide scale."""
    m, own = x._scaled_rows()
    if scale % own:
        raise KeyError(own)
    k = scale // own
    return [[table[u * k] for u in row] for row in m]


def _ranked(x: FiniteMetricSpace) -> tuple[dict, tuple, list[list[int]]]:
    """x's ranking, read off its int view: the rank table, the rank matrix
    and the point masks.  masks[p][v] has bit q set when the rank of d(p, q)
    is v, so every comparison of the searches below is between ints.
    """
    table, r = _rank_rows(x._scaled_rows()[0])
    return table, r, _rank_masks(r, len(table))


def _rank_masks(r, n_ranks: int) -> list[list[int]]:
    """The point masks of the rank matrix r, whose ranks are 0 .. n_ranks - 1."""
    masks = []
    for row in r:
        m = [0] * n_ranks
        for q, v in enumerate(row):
            m[v] |= 1 << q
        masks.append(m)
    return masks


def _match(r, masks, img: list[int], visit) -> bool:
    """Extend the partial map img (points 0..len(img)-1 of r) point by point.

    The candidates for point i are the AND of masks[img[j]][r[i][j]] over
    j < i: the host points at the right rank from every point placed so far,
    which excludes the placed points themselves.  They are taken in
    ascending order; visit(img) is called on every complete map (directly
    from the last point, which saves a call per map), and the search stops
    as soon as it returns true.
    """
    i = len(img)
    if i == len(r):
        return bool(visit(img))
    row = r[i]
    cands = (1 << len(masks)) - 1
    for j in range(i):
        cands &= masks[img[j]][row[j]]
    last = i + 1 == len(r)
    while cands:
        low = cands & -cands
        img.append(low.bit_length() - 1)
        if visit(img) if last else _match(r, masks, img, visit):
            img.pop()
            return True
        img.pop()
        cands ^= low
    return False


def _twins(r, p: int, q: int) -> bool:
    """Whether points p < q are twins in the rank matrix r.

    Twins are points whose rank rows agree off their own pair, so swapping
    two twins is an isometry.  Twinhood is an equivalence relation.
    """
    rp, rq = r[p], r[q]
    return rp[:p] == rq[:p] and rp[p + 1:q] == rq[p + 1:q] and rp[q + 1:] == rq[q + 1:]


def isometries(
    x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> list[tuple[int, ...]]:
    """All distance-preserving permutations of x, in lexicographic order.

    Let t be least with every point of t..n-1 a twin of n-1.  The search
    places points 0..t-1 only.  An isometry maps the twin class t..n-1 onto
    a set of pairwise twins, and any permutation of such a set is an
    isometry, so one extension of a placed map means every bijection of the
    suffix onto the unused points extends it.  These are emitted in
    `itertools.permutations` order, which keeps the whole list
    lexicographic: the maps and order of a point-by-point search, with no
    search node per suffix map.
    """
    if x.n > config.iso_bound:
        raise SearchTooLarge(f"isometry search too large: n={x.n} > {config.iso_bound}")
    _, r, masks = _ranked(x)
    n = x.n
    found: list[tuple[int, ...]] = []
    t = n - 1
    while t > 0 and _twins(r, t - 1, n - 1):
        t -= 1
    if t >= n - 1:
        _match(r, masks, [], lambda img: found.append(tuple(img)))
        return found

    def emit(img):
        if _match(r, masks, list(img), lambda _: True):
            head = tuple(img)
            rest = [p for p in range(n) if p not in head]
            found.extend(head + p for p in itertools.permutations(rest))

    _match([row[:t] for row in r[:t]], masks, [], emit)
    return found


def isometry_order(x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG) -> int:
    """|iso(x)| by orbit-stabilizer, without listing the group.

    The order is the product over i of the orbit of point i under the
    isometries fixing 0..i-1; c is in that orbit when the partial map fixing
    0..i-1 and sending i to c extends to an isometry.
    """
    if x.n > config.iso_bound:
        raise SearchTooLarge(f"isometry search too large: n={x.n} > {config.iso_bound}")
    _, r, masks = _ranked(x)
    order = 1
    for i in range(x.n):
        cands = (1 << x.n) - (1 << i)
        for j in range(i):
            cands &= masks[j][r[i][j]]
        orbit = 0
        while cands:
            low = cands & -cands
            img = list(range(i)) + [low.bit_length() - 1]
            orbit += _match(r, masks, img, lambda img: True)
            cands ^= low
        order *= orbit
    return order


def copies(
    y: FiniteMetricSpace, x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> list[tuple[int, ...]]:
    """All point subsets of y isometric to x, as sorted index tuples."""
    if y.n > config.copies_bound:
        raise SearchTooLarge(f"copy search too large: n={y.n} > {config.copies_bound}")
    if x.n > y.n:
        return []
    table, _, masks = _ranked(y)
    try:
        r = _rank_matrix(x, table, y._scaled_rows()[1])
    except KeyError:  # x has a distance that y lacks
        return []
    out: set[tuple[int, ...]] = set()
    _match(r, masks, [], lambda img: out.add(tuple(sorted(img))))
    return sorted(out)


def canonicalize(
    x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> tuple[FiniteMetricSpace, tuple[int, ...]]:
    """Canonical relabelling: the lexicographically least distance matrix.

    The matrix is compared as its upper triangle read column by column: row
    i of the new order lists the distances from the points placed before it.
    The order returned is the first one reaching the least matrix when the
    orders are scanned lexicographically.  Only the points giving the least
    new row are branched on, and a point is skipped while a smaller twin of
    it is unused (twins: equal distances to every other point), because the
    swap of two twins is an isometry.  Two spaces are isometric iff their
    canonical forms are equal.  The form, a reordering of x, needs no re-check.
    """
    _check_canon_bound(x.n, config)
    n, d = x.n, x.d
    if n <= 2:  # every order gives the same matrix
        order = tuple(range(n))
    else:
        order = _least_order(*_ranked(x)[1:])
    canon = FiniteMetricSpace._from_rows(tuple(tuple(d[a][b] for b in order) for a in order))
    return canon, order


def _check_canon_bound(n: int, config: Config) -> None:
    """Refuse a canonical form of more than config.canon_bound points."""
    if n > config.canon_bound:
        raise SearchTooLarge(f"canonicalization too large: n={n} > {config.canon_bound}")


def _least_order(r, masks) -> tuple[int, ...]:
    """The first order, lexicographically, giving the rank matrix r (point masks
    masks, one point or more) its least matrix: only the ranks' order counts."""
    n, n_ranks = len(r), len(masks[0])
    smaller_twins = [0] * n
    for p, q in itertools.combinations(range(n), 2):
        if _twins(r, p, q):
            smaller_twins[q] |= 1 << p
    order: list[int] = []
    rows: list[tuple[int, ...]] = []
    best_rows: list[tuple[int, ...]] = []
    best_order: tuple[int, ...] = ()

    def extend(unused: int, tied: bool) -> bool:
        """Search below order; tied: its rows equal best_rows so far.

        Returns whether a new best was found, which the caller is then tied to.
        """
        nonlocal best_rows, best_order
        i = len(order)
        if i == n:
            if tied:
                return False
            best_rows, best_order = list(rows), tuple(order)
            return True
        # the candidates giving the least new row, refined column by column
        cands, row = unused, []
        for p in order:
            mp = masks[p]
            if cands & (cands - 1):
                for v in range(1, n_ranks):
                    if cands & mp[v]:
                        cands &= mp[v]
                        break
            row.append(r[p][cands.bit_length() - 1])
        row = tuple(row)
        if tied:
            if row > best_rows[i]:
                return False
            tied = row == best_rows[i]
        rows.append(row)
        found = False
        while cands:
            low = cands & -cands
            cands ^= low
            c = low.bit_length() - 1
            if smaller_twins[c] & unused:
                continue
            order.append(c)
            if extend(unused ^ low, tied):
                found = tied = True
            order.pop()
        rows.pop()
        return found

    extend((1 << n) - 1, False)
    return best_order


def canonical_key(x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG):
    canon, _ = canonicalize(x, config)
    return canon.d


# --- text and JSON space formats ------------------------------------------

def space_to_text(x: FiniteMetricSpace) -> str:
    lines = [f"points: {x.n}"]
    for row in x.d:
        lines.append(" ".join(format_fraction(v) for v in row))
    return "\n".join(lines) + "\n"


def _parse_lines(text: str):
    rows = []
    n = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("points:"):
            n = int(line.split(":", 1)[1])
            continue
        rows.append(line.split())
    if n is None:
        raise InvalidSpace("missing 'points:' header")
    if len(rows) != n:
        raise InvalidSpace(f"expected {n} rows, found {len(rows)}")
    return n, rows


class _TokenFractions(dict):
    """as_fraction of string tokens, each distinct token converted once, when
    first looked up; only strings are keys, so 1.0 never meets 1."""

    def __missing__(self, token: str) -> Fraction:
        q = self[token] = as_fraction(token)
        return q


def space_from_text(text: str) -> FiniteMetricSpace:
    _, rows = _parse_lines(text)
    q = _TokenFractions()
    return FiniteMetricSpace([[q[tok] for tok in row] for row in rows])


def graph_from_text(text: str) -> EdgeLabelledGraph:
    n, rows = _parse_lines(text)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidSpace(f"row {i} has {len(row)} entries, expected {n}")
    g = EdgeLabelledGraph(n)
    q = _TokenFractions()
    for i, j in itertools.combinations(range(n), 2):
        tok, mirror = rows[i][j], rows[j][i]
        if (tok == "?") != (mirror == "?"):
            raise InvalidSpace(f"pair ({i},{j}) labelled on one side only")
        if tok == "?":
            continue
        if q[tok] != q[mirror]:
            raise InvalidSpace(f"asymmetric labels on ({i},{j})")
        g.set_label(i, j, q[tok])
    return g


def _space_dict(x: FiniteMetricSpace) -> dict:
    """The JSON object of x: {"points": n, "rows": [[...], ...]}, entries as strings."""
    return {"points": x.n, "rows": [[format_fraction(v) for v in row] for row in x.d]}


def space_to_json(x: FiniteMetricSpace) -> str:
    return json.dumps(_space_dict(x))


def space_from_json(text: str) -> FiniteMetricSpace:
    """A space from {"points": n, "rows": [[...], ...]}; entries as for as_fraction."""
    obj = json.loads(text)
    if not (isinstance(obj, dict) and set(obj) == {"points", "rows"}
            and isinstance(obj["rows"], list) and obj["points"] == len(obj["rows"])
            and all(isinstance(row, list) for row in obj["rows"])):
        raise InvalidSpace("bad JSON space payload")
    q = _TokenFractions()
    return FiniteMetricSpace(
        [[q[v] if type(v) is str else as_fraction(v) for v in row] for row in obj["rows"]]
    )
