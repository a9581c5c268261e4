"""Exact finite metric spaces and edge-labelled graphs.

All distances are `fractions.Fraction` values kept in lowest terms, so every
verdict in this package is bit-exact.  Floats are rejected at the boundary.
The triple scan and the path closure below run on the values scaled to ints
by the lcm of their denominators; Fractions are rebuilt only for results.
"""

from __future__ import annotations

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


DEFAULT_CONFIG = Config()


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction; reject floats."""
    if isinstance(value, float):
        raise InvalidSpace(f"float distance {value!r} not allowed; use p/q rationals")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InvalidSpace(f"cannot interpret {value!r} as a rational")


def format_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


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

    @property
    def min(self) -> Fraction:
        return self.values[0]


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _violating_triple(d, join) -> tuple[int, int, int] | None:
    """The least (i, j, k) with one side > join of the other two, or None.

    join is operator.add for the triangle inequality and max for the
    ultrametric one.  Triples are scanned in itertools.combinations order
    on the matrix scaled to ints; a positive scaling keeps every comparison.
    """
    n = len(d)
    if n < 3:
        return None
    flat, _ = _scaled([v for row in d for v in row])
    m = [flat[i * n:(i + 1) * n] for i in range(n)]
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = m[i][j], m[i][k], m[j][k]
        if a > join(b, c) or b > join(a, c) or c > join(a, b):
            return i, j, k
    return None


class FiniteMetricSpace:
    """n points with an exact symmetric distance matrix satisfying the triangle inequality."""

    def __init__(self, rows: Sequence[Sequence], check: bool = True):
        d = tuple(tuple(as_fraction(v) for v in row) for row in rows)
        n = len(d)
        if any(len(row) != n for row in d):
            raise InvalidSpace("distance matrix must be square")
        if check:
            for i in range(n):
                if d[i][i] != 0:
                    raise InvalidSpace(f"d({i},{i}) = {d[i][i]} != 0")
                for j in range(i + 1, n):
                    if d[i][j] != d[j][i]:
                        raise InvalidSpace(f"d({i},{j}) != d({j},{i})")
                    if d[i][j] <= 0:
                        raise InvalidSpace(f"d({i},{j}) = {d[i][j]} must be positive")
            bad = _violating_triple(d, operator.add)
            if bad is not None:
                raise InvalidSpace("triangle inequality fails on ({},{},{})".format(*bad))
        self.n = n
        self.d = d

    def distance(self, i: int, j: int) -> Fraction:
        return self.d[i][j]

    def distance_set(self) -> DistanceSet:
        vals = {self.d[i][j] for i in range(self.n) for j in range(i + 1, self.n)}
        if not vals:
            raise InvalidSpace("one-point space has an empty distance set")
        return DistanceSet(vals)

    def distances(self) -> set[Fraction]:
        return {self.d[i][j] for i in range(self.n) for j in range(i + 1, self.n)}

    def submetric(self, indices: Sequence[int]) -> "FiniteMetricSpace":
        idx = list(indices)
        return FiniteMetricSpace(
            [[self.d[i][j] for j in idx] for i in idx], check=False
        )

    def is_ultrametric(self) -> bool:
        return _violating_triple(self.d, max) is None

    def diameter(self) -> Fraction:
        if self.n < 2:
            return Fraction(0)
        return max(self.d[i][j] for i in range(self.n) for j in range(i + 1, self.n))

    def __eq__(self, other):
        return isinstance(other, FiniteMetricSpace) and self.d == other.d

    def __hash__(self):
        return hash(self.d)

    def __repr__(self):
        return f"FiniteMetricSpace(n={self.n})"

    @classmethod
    def equilateral(cls, n: int, a) -> "FiniteMetricSpace":
        a = as_fraction(a)
        return cls(
            [[Fraction(0) if i == j else a for j in range(n)] for i in range(n)],
            check=False,
        )

    @classmethod
    def single_point(cls) -> "FiniteMetricSpace":
        return cls([[0]], check=False)


class EdgeLabelledGraph:
    """Symmetric partial assignment of positive rationals to point pairs."""

    def __init__(self, n: int, labels: dict | None = None):
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

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for (a, b) in self._labels:
                for nxt, cur in ((a, b), (b, a)):
                    if cur == i and nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return len(seen) == self.n

    @classmethod
    def from_space(cls, space: FiniteMetricSpace) -> "EdgeLabelledGraph":
        g = cls(space.n)
        for i in range(space.n):
            for j in range(i + 1, space.n):
                g.set_label(i, j, space.d[i][j])
        return g


def _simple_paths(g: EdgeLabelledGraph, start: int, end: int, max_size: int):
    """Yield simple paths (vertex sequences) from start to end along labelled pairs."""

    def walk(path):
        cur = path[-1]
        if cur == end and len(path) > 1:
            yield tuple(path)
            return
        if len(path) >= max_size:
            return
        for nxt in range(g.n):
            if nxt not in path and g.label(cur, nxt) is not None:
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
        bad = _violating_triple(d, operator.add if mode == "metric" else max)
        return bad is None, bad
    if mode == "l-metric":
        if l is None or l < 1:
            raise InvalidSpace("l-metric mode needs a positive l")
        for (i, j) in g.labelled_pairs():
            lam = g.label(i, j)
            for path in sorted(_simple_paths(g, i, j, l)):
                length = sum(
                    g.label(path[t], path[t + 1]) for t in range(len(path) - 1)
                )
                if lam > length:
                    return False, path
        return True, None
    raise InvalidSpace(f"unknown mode {mode!r}")


def _path_closure(n: int, labels: dict, join) -> list[list[Fraction | None]]:
    """Least path value between every two points; None = unreachable.

    One Floyd-Warshall loop on the labels scaled to ints.  A path's value is
    its labels folded by join: operator.add gives shortest paths, max gives
    minimax (bottleneck) paths.
    """
    ints, scale = _scaled(list(labels.values()))
    dist: list[list[int | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for (i, j), v in zip(labels, ints):
        dist[i][j] = dist[j][i] = v
    for k in range(n):
        dk = dist[k]
        for di in dist:
            dik = di[k]
            if dik is None:
                continue
            for j, dkj in enumerate(dk):
                if dkj is None:
                    continue
                s = join(dik, dkj)
                if di[j] is None or s < di[j]:
                    di[j] = s
    return [[None if v is None else Fraction(v, scale) for v in row] for row in dist]


def complete(g: EdgeLabelledGraph, mode: str, r=None) -> FiniteMetricSpace:
    """Path-metric completion of a partial edge-labelled graph.

    mode 'sum-cap': d(x,y) = min over paths of min(path sum, r).  The infimum
    over all paths is attained on simple paths because labels are positive.
    mode 'max': d(x,y) = min over paths of the largest edge label.
    The returned space agrees with the labelling exactly.
    """
    if not g.is_connected():
        raise InvalidSpace("graph is disconnected; completion undefined")
    labels = {p: g.label(*p) for p in g.labelled_pairs()}
    if mode == "sum-cap":
        if r is None:
            raise InvalidSpace("sum-cap mode needs a cap r")
        cap = as_fraction(r)
        for (i, j), v in labels.items():
            if v > cap:
                raise InvalidSpace(
                    f"cap {format_fraction(cap)} smaller than label on ({i},{j})"
                )
        dist = _path_closure(g.n, labels, operator.add)
        rows = [
            [min(dist[i][j], cap) if i != j else Fraction(0) for j in range(g.n)]
            for i in range(g.n)
        ]
    elif mode == "max":
        rows = _path_closure(g.n, labels, max)
    else:
        raise InvalidSpace(f"unknown completion mode {mode!r}")
    for (i, j), v in labels.items():
        if rows[i][j] != v:
            raise InvalidSpace(
                f"labelling is not {mode}-consistent: pair ({i},{j}) has label "
                f"{format_fraction(v)} but path value {format_fraction(rows[i][j])}"
            )
    return FiniteMetricSpace(rows)


def isometries(
    x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> list[tuple[int, ...]]:
    """All distance-preserving permutations of x, by pruned backtracking."""
    if x.n > config.iso_bound:
        raise SearchTooLarge(f"isometry search too large: n={x.n} > {config.iso_bound}")
    n, d = x.n, x.d
    found: list[tuple[int, ...]] = []

    def extend(img: list[int], used: set[int]):
        i = len(img)
        if i == n:
            found.append(tuple(img))
            return
        for cand in range(n):
            if cand in used:
                continue
            if all(d[i][j] == d[cand][img[j]] for j in range(i)):
                img.append(cand)
                used.add(cand)
                extend(img, used)
                img.pop()
                used.remove(cand)

    extend([], set())
    return found


def copies(
    y: FiniteMetricSpace, x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> list[tuple[int, ...]]:
    """All point subsets of y isometric to x, as sorted index tuples."""
    if y.n > config.copies_bound:
        raise SearchTooLarge(f"copy search too large: n={y.n} > {config.copies_bound}")
    if x.n > y.n:
        return []
    out: set[tuple[int, ...]] = set()

    def extend(img: list[int], used: set[int]):
        i = len(img)
        if i == x.n:
            out.add(tuple(sorted(img)))
            return
        for cand in range(y.n):
            if cand in used:
                continue
            if all(x.d[i][j] == y.d[cand][img[j]] for j in range(i)):
                img.append(cand)
                used.add(cand)
                extend(img, used)
                img.pop()
                used.remove(cand)

    extend([], set())
    return sorted(out)


def _flat_upper(d, order: Sequence[int]):
    out = []
    for a in range(len(order)):
        for b in range(a):
            out.append(d[order[b]][order[a]])
    return tuple(out)


def canonicalize(
    x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> tuple[FiniteMetricSpace, tuple[int, ...]]:
    """Canonical relabelling: the lexicographically least distance matrix.

    Two spaces are isometric iff their canonical forms are equal.  Exact but
    worst-case factorial on highly symmetric spaces; fine at desk scale.
    """
    if x.n > config.canon_bound:
        raise SearchTooLarge(
            f"canonicalization too large: n={x.n} > {config.canon_bound}"
        )
    n, d = x.n, x.d
    best: dict = {"flat": None, "order": None}

    def extend(order: list[int], flat: list[Fraction]):
        i = len(order)
        if best["flat"] is not None:
            k = len(flat)
            prefix = best["flat"][:k]
            if tuple(flat) > prefix:
                return
        if i == n:
            key = tuple(flat)
            if best["flat"] is None or key < best["flat"]:
                best["flat"] = key
                best["order"] = tuple(order)
            return
        for cand in range(n):
            if cand in order:
                continue
            row = [d[order[j]][cand] for j in range(i)]
            order.append(cand)
            extend(order, flat + row)
            order.pop()

    extend([], [])
    order = best["order"]
    canon = FiniteMetricSpace(
        [[d[order[a]][order[b]] for b in range(n)] for a in range(n)], check=False
    )
    return canon, order


def canonical_key(x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG):
    canon, _ = canonicalize(x, config)
    return canon.d


# --- text and JSON space formats ------------------------------------------

def space_to_text(x: FiniteMetricSpace) -> str:
    lines = [f"points: {x.n}"]
    for row in x.d:
        lines.append(" ".join(format_fraction(v) for v in row))
    return "\n".join(lines) + "\n"


def graph_to_text(g: EdgeLabelledGraph) -> str:
    lines = [f"points: {g.n}"]
    for i in range(g.n):
        row = []
        for j in range(g.n):
            if i == j:
                row.append("0")
            else:
                v = g.label(i, j)
                row.append("?" if v is None else format_fraction(v))
        lines.append(" ".join(row))
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


def space_from_text(text: str) -> FiniteMetricSpace:
    _, rows = _parse_lines(text)
    return FiniteMetricSpace([[as_fraction(tok) for tok in row] for row in rows])


def graph_from_text(text: str) -> EdgeLabelledGraph:
    n, rows = _parse_lines(text)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InvalidSpace(f"row {i} has {len(row)} entries, expected {n}")
    g = EdgeLabelledGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            tok, mirror = rows[i][j], rows[j][i]
            if (tok == "?") != (mirror == "?"):
                raise InvalidSpace(f"pair ({i},{j}) labelled on one side only")
            if tok == "?":
                continue
            if as_fraction(tok) != as_fraction(mirror):
                raise InvalidSpace(f"asymmetric labels on ({i},{j})")
            g.set_label(i, j, as_fraction(tok))
    return g


def space_to_json(x: FiniteMetricSpace) -> str:
    return json.dumps(
        {"points": x.n, "rows": [[format_fraction(v) for v in row] for row in x.d]}
    )


def space_from_json(text: str) -> FiniteMetricSpace:
    obj = json.loads(text)
    if set(obj) != {"points", "rows"} or obj["points"] != len(obj["rows"]):
        raise InvalidSpace("bad JSON space payload")
    return FiniteMetricSpace([[as_fraction(v) for v in row] for row in obj["rows"]])
