"""Katetov maps, one-point extensions, and finite Urysohn-space approximations.

A Katetov map f over a space X satisfies |f(x)-f(y)| <= d(x,y) <= f(x)+f(y)
for all pairs, and can be read as a potential new point at distance f(x) from
each x.  The builder closes a seed space under bounded one-point extensions,
producing a finite space in which every small admissible extension is realized.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import four_values
from .spaces import (
    Config,
    DEFAULT_CONFIG,
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    _check_canon_bound,
    _check_points,
    _fraction_rows,
    _least_order,
    _rank_masks,
    _rank_rows,
    as_fraction,
    format_fraction,
)


class ResourceLimit(Exception):
    """Raised when a closure process hits its configured cap; carries progress.

    space is the partial space, pending the sorted unrealized extensions and
    log the provenance of the points added so far.
    """

    def __init__(self, message, space=None, pending=None, log=None):
        super().__init__(message)
        self.space = space
        self.pending = pending
        self.log = log


def _katetov_witness(d, f) -> tuple[int, int] | None:
    """The least pair i < j, row-major, failing |f[i]-f[j]| <= d[i][j] <= f[i]+f[j],
    or None: the one Katetov test, on any ordered numbers."""
    for i, a in enumerate(f):
        row = d[i]
        for j in range(i + 1, len(f)):
            b = f[j]
            if not (a - b if a > b else b - a) <= row[j] <= a + b:
                return i, j
    return None


def _scaled_map(x: FiniteMetricSpace, f: list[Fraction]) -> tuple[list, list[int], int]:
    """(m, g, scale): x's int view and the Fraction map f as ints, both at
    scale, the lcm of the view's scale and f's denominators.  A positive
    scale keeps every comparison.  The view is multiplied only when f is
    finer than it, that is when scale is not the view's own."""
    m, own = x._scaled_rows()
    scale = math.lcm(own, *{v.denominator for v in f})
    if scale != own:
        k = scale // own
        m = [[u * k for u in row] for row in m]
    return m, [v.numerator * (scale // v.denominator) for v in f], scale


def _verdict(d, g) -> tuple[bool, tuple[int, int] | None]:
    """is_katetov's answer for the int map g over the int matrix d: False
    with no witness if g is negative somewhere, else the kernel's pair."""
    if g and min(g) < 0:
        return False, None
    witness = _katetov_witness(d, g)
    return witness is None, witness


def _check_subset(n: int, sub: list) -> None:
    """Refuse sub as submetric does unless it lists distinct points of range(n)."""
    _check_points(n, sub)
    if len(set(sub)) != len(sub):
        raise InvalidSpace(f"repeated point in {sub}")


def _block(m, sub: list[int]) -> list[list[int]]:
    """The rows and columns sub of the matrix m, in sub's order."""
    return [[m[a][b] for b in sub] for a in sub]


def is_katetov(x: FiniteMetricSpace, values) -> tuple[bool, tuple[int, int] | None]:
    """Check the two-sided Katetov inequality; witness is the least violating pair.

    Zero values are allowed here: a map vanishing at a point is identified
    with that point.  Only extend_with refuses them.  The test runs on x's
    int view and f at one scale (_scaled_map), which keeps every
    comparison, verdict and witness.
    """
    f = [as_fraction(v) for v in values]
    if len(f) != x.n:
        raise InvalidSpace(f"expected {x.n} values, got {len(f)}")
    m, g, _ = _scaled_map(x, f)
    return _verdict(m, g)


def _refusal(g, witness, pair: str = "witness pair") -> str:
    """Why is_katetov refused the map g: its witness pair, or its first negative point."""
    if witness is None:
        return f"negative value at point {next(i for i, v in enumerate(g) if v < 0)}"
    return f"{pair} {witness}"


def extend_with(x: FiniteMetricSpace, values) -> FiniteMetricSpace:
    """X plus one new point at distance f(x) from each x, with no triangle scan:
    a nonvanishing Katetov map is exactly a metric one-point extension."""
    f = [as_fraction(v) for v in values]
    if len(f) != x.n:
        raise InvalidSpace(f"expected {x.n} values, got {len(f)}")
    m, g, _ = _scaled_map(x, f)
    ok, witness = _verdict(m, g)
    if not ok:
        raise InvalidSpace(f"not a Katetov map, {_refusal(g, witness)}")
    if 0 in g:
        i = g.index(0)
        raise InvalidSpace(f"map vanishes at point {i}: realized by existing point {i}")
    rows = [row + (v,) for row, v in zip(x.d, f)]
    return FiniteMetricSpace._from_rows((*rows, (*f, Fraction(0))))


def shortest_extension(x: FiniteMetricSpace, sub, values) -> list[Fraction]:
    """Extend a Katetov map on a subspace to all of X by g(y) = min d(y,s) + f(s).

    The result restricts back to f on the subspace and is Katetov over X; it
    is the distance function of the path-metric amalgam of X and sub-plus-f.
    The test and the minimums run on x's int view and f at one scale.
    """
    sub = list(sub)
    if not sub:
        raise InvalidSpace("the empty subspace has no shortest extension")
    _check_subset(x.n, sub)
    f = [as_fraction(v) for v in values]
    if len(f) != len(sub):
        raise InvalidSpace("one value per subspace point required")
    m, g, scale = _scaled_map(x, f)
    ok, witness = _verdict(_block(m, sub), g)
    if not ok:
        raise InvalidSpace(f"not Katetov over the subspace, witness {witness}")
    return [Fraction(min(map(operator.add, map(row.__getitem__, sub), g)), scale) for row in m]


def realizers(x: FiniteMetricSpace, sub, values) -> list[int]:
    """Points of X at distance exactly f(s) from every s in the subspace.

    With an empty subspace every point qualifies.  A point of the subspace
    itself appears exactly when f is its own distance function there.  The
    test and the comparisons run on x's int view and f at one scale; a map
    finer than x's scale takes a value that no distance of x has.
    """
    sub = list(sub)
    _check_subset(x.n, sub)
    f = [as_fraction(v) for v in values]
    if len(f) != len(sub):
        raise InvalidSpace(f"expected {len(sub)} values, got {len(f)}")
    m, g, scale = _scaled_map(x, f)
    ok, witness = _verdict(_block(m, sub), g)
    if not ok:
        raise InvalidSpace(f"not Katetov over the subspace, {_refusal(g, witness, 'witness')}")
    if scale != x._scaled_rows()[1]:
        return []
    g = tuple(g)
    return [y for y, row in enumerate(m) if tuple(map(row.__getitem__, sub)) == g]


@dataclass
class BuildLog:
    """Provenance of a closure run: one entry per added point."""

    entries: list = field(default_factory=list)

    def record(self, subset, values):
        self.entries.append((tuple(subset), tuple(values)))

    def format(self) -> str:
        return "\n".join(
            "(" + " ".join(map(str, sub)) + " | "
            + " ".join(format_fraction(v) for v in vals) + ")"
            for sub, vals in self.entries
        )


def urysohn_approx(
    s: DistanceSet,
    size_cap: int,
    config: Config = DEFAULT_CONFIG,
    seed: int = 0,
) -> tuple[FiniteMetricSpace, BuildLog]:
    """A finite S-space realizing every admissible extension below size_cap.

    Closure strategy: keep the unrealized pairs (F, f), with F a subspace of
    fewer than size_cap points and f an S-valued Katetov map over F, ordered
    by |F|, then the canonical form of F+f, then the raw indices.  Add a
    point realizing the first pair, and repeat until none is pending.
    Indices never move, so a pair over an older subspace keeps its
    admissibility and its key: after point p is added only the pairs that p
    realizes drop out, and the unrealized pairs over subspaces containing p
    come in.  The pending pairs are kept by subspace, F -> {f: entry}, and
    in a heap of the same entries: p realizes exactly one map over each F,
    so one dict pop per open subspace drops them, and the heap drops its
    realized entries lazily, when they reach the top.  Katetov and realizer
    tests run on S and the matrix scaled to ints.  One bounded table for the
    whole process, keyed by S's ints, |F| and F's distances, holds F's
    Katetov maps and, once a map is first open, the key of F+f: its int
    matrix in canonicalize's order, read off its ranks, packed into one int
    whose digits are the entries' indices in (0, *S).  So a process that runs
    many builds (a test suite, a benchmark, a loop over seeds) lists and keys
    each distance pattern once, while a single cold build gains nothing.
    config.canon_bound is checked once per subset with an open map, before
    its keys are read, so a key cached under a looser bound is still
    refused; only a capped run's listing decodes keys to matrices.  Each
    added point is Katetov over a metric space (see four_values.amalgamate),
    so no space built here is scanned for triangles.  Cross
    distances to points outside F come from iterated one-point amalgamation;
    when several values of S are admissible the choice is drawn from a
    seeded generator.  Always taking the least value provably diverges
    (for {1,2} it keeps manufacturing missing non-adjacent extensions
    forever), while the seeded rule saturates quickly; a fixed seed keeps
    the output deterministic.  Growth is capped by config.urysohn_max_points;
    hitting the cap reports progress.
    """
    if size_cap < 1:
        raise InvalidSpace(f"size cap must be at least 1, got {size_cap}")
    chk = four_values.check_four_values(s, config.four_values_bound)
    if not chk:
        witness = "(" + ",".join(format_fraction(v) for v in chk.witness) + ")"
        raise InvalidSpace(f"S fails the 4-values condition, witness {witness}")
    rng = random.Random(seed)
    ints, scale = s._scaled_values()
    frac = {u: Fraction(u, scale) for u in (0, *ints)}  # shared by the log and pending
    digit = {u: i for i, u in enumerate(frac)}  # each int of F+f as its digit in a key
    m = [[0]]  # the distance matrix so far, scaled to ints
    log = BuildLog()
    pending: dict = {}  # F -> {f: (|F|, key, F, f)} for the unrealized f, in ints
    heap: list = []  # every (|F|, key, F, f) listed so far; the realized ones lazily dropped
    p = 0
    while True:
        # list the unrealized pairs over the subsets that contain point p
        # a subset with p has at most p + 1 points
        for size in range(1, min(size_cap, p + 2)):
            for rest in itertools.combinations(range(p), size - 1):
                sub = rest + (p,)
                fs = _pattern_maps(ints, size, tuple(m[a][b] for a, b in itertools.combinations(sub, 2)))
                realized = set(zip(*(m[q] for q in sub)))
                open_fs = [f for f in fs if f not in realized]
                if not open_fs:
                    continue
                _check_canon_bound(size + 1, config)  # a key may come from a looser bound
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
            rows, maps = {}, {}  # each distinct key decoded, each distinct f's Fractions built, once
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
        # the new point p realizes exactly one map over each subset
        row = m[p]
        for sub, fs in list(pending.items()):
            if fs.pop(tuple(map(row.__getitem__, sub)), None) and not fs:
                del pending[sub]


@functools.lru_cache(maxsize=4096)
def _pattern_maps(ints: tuple, size: int, dist: tuple) -> dict:
    """{f: key of F+f, None until f is first open} over the Katetov maps f of
    F into ints, in product order: F has size points and the distances dist
    in combinations order.  One table for the process (see urysohn_approx);
    the builds fill its dicts in place."""
    d = [[0] * size for _ in range(size)]
    for (a, b), u in zip(itertools.combinations(range(size), 2), dist):
        d[a][b] = d[b][a] = u
    return dict.fromkeys(_katetov_maps(d, ints))


def _closure_key(ext, digit: dict) -> int:
    """The int matrix ext of F+f in canonicalize's order, read row by row as
    base-len(digit) digits digit[entry].  A positive scale keeps the ranks, so
    ext's own ranks give that order; same-size keys have as many digits, so
    they compare as the matrices do."""
    table, r = _rank_rows(ext)
    order = _least_order(r, _rank_masks(r, len(table)))
    key, base = 0, len(digit)
    for a in order:
        for b in order:
            key = key * base + digit[ext[a][b]]
    return key


def _key_rows(key: int, n: int, values) -> tuple:
    """The n x n matrix that key holds: its base-len(values) digits, row by
    row, each read as values[digit]."""
    base = len(values)
    entries = []
    for _ in range(n * n):
        key, i = divmod(key, base)
        entries.append(values[i])
    entries.reverse()
    return tuple(tuple(entries[a * n:(a + 1) * n]) for a in range(n))


def _katetov_maps(d, values) -> list[tuple]:
    """The maps F -> values that are Katetov over F's matrix d, in product order."""
    return [f for f in itertools.product(values, repeat=len(d)) if _katetov_witness(d, f) is None]


def ultrametric_urysohn_grid(s: DistanceSet, arity: int) -> FiniteMetricSpace:
    """The full arity^|S| ultrametric grid: tuples, distance by first difference.

    Coordinates are indexed by S sorted decreasing, so the first differing
    coordinate carries the largest relevant distance; the result is the
    canonical finite truncation of the ultrametric Urysohn space over S.
    First differences over decreasing positive levels give an ultrametric.
    """
    if arity < 2:
        raise InvalidSpace("arity must be at least 2")
    levels = sorted(s.values, reverse=True)
    k = len(levels)
    points = list(itertools.product(range(arity), repeat=k))
    n = len(points)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            delta = next(i for i in range(k) if points[a][i] != points[b][i])
            rows[a][b] = rows[b][a] = levels[delta]
    return FiniteMetricSpace._from_rows(tuple(map(tuple, rows)))
