"""Katetov maps, one-point extensions, and finite Urysohn-space approximations.

A Katetov map f over a space X satisfies |f(x)-f(y)| <= d(x,y) <= f(x)+f(y)
for all pairs, and can be read as a potential new point at distance f(x) from
each x.  The builder closes a seed space under bounded one-point extensions,
producing a finite space in which every small admissible extension is realized.
"""

from __future__ import annotations

import itertools
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
    as_fraction,
    canonical_key,
    format_fraction,
)


class ResourceLimit(Exception):
    """Raised when a closure process hits its configured cap; carries progress."""

    def __init__(self, message, space=None, pending=None):
        super().__init__(message)
        self.space = space
        self.pending = pending


def is_katetov(x: FiniteMetricSpace, values) -> tuple[bool, tuple[int, int] | None]:
    """Check the two-sided Katetov inequality; witness is the least violating pair.

    Zero values are allowed here: a map vanishing at a point is identified
    with that point.  Only extend_with refuses them.
    """
    f = [as_fraction(v) for v in values]
    if len(f) != x.n:
        raise InvalidSpace(f"expected {x.n} values, got {len(f)}")
    if any(v < 0 for v in f):
        return False, None
    for i in range(x.n):
        for j in range(i + 1, x.n):
            if not (abs(f[i] - f[j]) <= x.d[i][j] <= f[i] + f[j]):
                return False, (i, j)
    return True, None


def extend_with(x: FiniteMetricSpace, values) -> FiniteMetricSpace:
    """The space X plus one new point at distance f(x) from each x."""
    f = [as_fraction(v) for v in values]
    ok, witness = is_katetov(x, f)
    if not ok:
        raise InvalidSpace(f"not a Katetov map, witness pair {witness}")
    for i, v in enumerate(f):
        if v == 0:
            raise InvalidSpace(f"map vanishes at point {i}: realized by existing point {i}")
    rows = [list(row) + [f[i]] for i, row in enumerate(x.d)]
    rows.append(f + [Fraction(0)])
    return FiniteMetricSpace(rows)


def shortest_extension(x: FiniteMetricSpace, sub, values) -> list[Fraction]:
    """Extend a Katetov map on a subspace to all of X by g(y) = min d(y,s) + f(s).

    The result restricts back to f on the subspace and is Katetov over X; it
    is the distance function of the path-metric amalgam of X and sub-plus-f.
    """
    sub = list(sub)
    f = [as_fraction(v) for v in values]
    if len(f) != len(sub):
        raise InvalidSpace("one value per subspace point required")
    ok, witness = is_katetov(x.submetric(sub), f)
    if not ok:
        raise InvalidSpace(f"not Katetov over the subspace, witness {witness}")
    return [min(x.d[y][s] + f[k] for k, s in enumerate(sub)) for y in range(x.n)]


def realizers(x: FiniteMetricSpace, sub, values) -> list[int]:
    """Points of X at distance exactly f(s) from every s in the subspace.

    With an empty subspace every point qualifies.  A point of the subspace
    itself appears exactly when f is its own distance function there.
    """
    sub = list(sub)
    f = [as_fraction(v) for v in values]
    ok, witness = is_katetov(x.submetric(sub), f)
    if not ok:
        raise InvalidSpace(f"not Katetov over the subspace, witness {witness}")
    return [
        y
        for y in range(x.n)
        if all(x.d[y][s] == f[k] for k, s in enumerate(sub))
    ]


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


def _admissible_maps(x: FiniteMetricSpace, subset, s: DistanceSet):
    """All S-valued Katetov maps f over the subspace with F+f distances in S."""
    sub = list(subset)
    space = x.submetric(sub)
    for combo in itertools.product(s.values, repeat=len(sub)):
        ok, _ = is_katetov(space, combo)
        if ok:
            yield combo


def urysohn_approx(
    s: DistanceSet,
    size_cap: int,
    config: Config = DEFAULT_CONFIG,
    seed: int = 0,
) -> tuple[FiniteMetricSpace, BuildLog]:
    """A finite S-space realizing every admissible extension below size_cap.

    Closure strategy: repeatedly scan subspaces F with |F| < size_cap in a
    deterministic order (by |F|, then the canonical form of F+f, then by the
    raw indices) and add a realizing point whenever some S-valued Katetov map
    over F has none.  Cross distances to points outside F come from iterated
    one-point amalgamation; when several values of S are admissible the
    choice is drawn from a seeded generator.  Always taking the least value
    provably diverges (for {1,2} it keeps manufacturing missing non-adjacent
    extensions forever), while the seeded rule saturates quickly; a fixed
    seed keeps the output deterministic.  Growth is capped by
    config.urysohn_max_points; hitting the cap reports progress.
    """
    chk = four_values.check_four_values(s, config.four_values_bound)
    if not chk:
        raise InvalidSpace(f"S fails the 4-values condition, witness {chk.witness}")
    rng = random.Random(seed)
    space = FiniteMetricSpace.single_point()
    log = BuildLog()

    while True:
        # gather unrealized (F, f) pairs over the current space
        pending = []
        for size in range(1, size_cap):
            if size > space.n:
                break
            for subset in itertools.combinations(range(space.n), size):
                for f in _admissible_maps(space, subset, s):
                    if not realizers(space, subset, f):
                        ext = extend_with(space.submetric(subset), f)
                        pending.append((size, canonical_key(ext), subset, f))
        if not pending:
            return space, log
        pending.sort()
        _, _, subset, f = pending[0]
        if space.n + 1 > config.urysohn_max_points:
            raise ResourceLimit(
                f"urysohn closure exceeded {config.urysohn_max_points} points "
                f"with {len(pending)} extensions still unrealized",
                space=space,
                pending=pending,
            )
        space = _adjoin_point(s, space, subset, f, rng)
        log.record(subset, f)


def _adjoin_point(s, space, subset, f, rng):
    """Add one point at distance f over the subset, amalgamating the rest."""
    n = space.n
    new = {}
    for k, p in enumerate(subset):
        new[p] = as_fraction(f[k])
    for y in range(n):
        if y in new:
            continue
        lo = Fraction(0)
        hi = None
        for k, v in new.items():
            dky = space.d[k][y]
            lo = max(lo, abs(v - dky))
            hi = v + dky if hi is None else min(hi, v + dky)
        candidates = [u for u in s.values if lo <= u and (hi is None or u <= hi)]
        if not candidates:
            raise InvalidSpace(
                f"one-point amalgamation stuck at point {y}: no S value in "
                f"[{format_fraction(lo)},{format_fraction(hi)}]"
            )
        new[y] = rng.choice(candidates)
    rows = [list(row) + [new[i]] for i, row in enumerate(space.d)]
    rows.append([new[i] for i in range(n)] + [Fraction(0)])
    return FiniteMetricSpace(rows)


def ultrametric_urysohn_grid(s: DistanceSet, arity: int) -> FiniteMetricSpace:
    """The full arity^|S| ultrametric grid: tuples, distance by first difference.

    Coordinates are indexed by S sorted decreasing, so the first differing
    coordinate carries the largest relevant distance; the result is the
    canonical finite truncation of the ultrametric Urysohn space over S.
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
    return FiniteMetricSpace(rows, check=False)
