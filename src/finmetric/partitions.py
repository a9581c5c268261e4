"""Executable indivisibility machinery: colorings, nets, chains, and searches.

Everything here is a finite, checkable artifact: exhaustive or seeded-sample
coloring scans, the two-color annulus coloring driven by a net of centers,
the annulus-crossing check for chains, and the greedy monochromatic-copy
chase used for Rado-style spaces.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .spaces import (
    Config,
    DEFAULT_CONFIG,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    _check_points,
    as_fraction,
    copies,
)


def epsilon_neighborhood(x: FiniteMetricSpace, subset, eps) -> list[int]:
    """Closed fattening: points within eps of the subset."""
    eps = as_fraction(eps)
    if eps < 0:
        raise InvalidSpace("epsilon must be non-negative")
    sub = set(subset)
    _check_points(x.n, sub)
    return [p for p in range(x.n) if any(x.d[p][q] <= eps for q in sub)]


@dataclass
class ColoringOutcome:
    coloring: tuple
    found: bool
    copy_indices: tuple | None
    color: int | None

    def to_json_dict(self):
        return {
            "coloring": list(self.coloring),
            "found": self.found,
            "copyIndices": None if self.copy_indices is None else list(self.copy_indices),
            "color": self.color,
        }


@dataclass
class IndivisibilityReport:
    outcomes: list
    exhaustive: bool

    @property
    def counterexamples(self):
        return [o for o in self.outcomes if not o.found]

    def all_monochromatic(self) -> bool:
        return not self.counterexamples


def indivisibility_search(
    x: FiniteMetricSpace,
    target: FiniteMetricSpace,
    k: int = 2,
    mode: str = "exhaustive",
    samples: int = 100,
    seed: int = 0,
    budget: int = 2 ** 16,
    config: Config = DEFAULT_CONFIG,
) -> IndivisibilityReport:
    """Scan k-colorings of the points for monochromatic copies of the target.

    Exhaustive mode fixes the first point's color to 0 (color symmetry) and
    requires k**(n-1) <= budget; sampled mode draws seeded random colorings.
    The copies of the target are listed once, as sorted index tuples in
    increasing order.  Each outcome records the first listed copy whose
    points all carry color c, for the least color c that has one, or
    certifies the failure.  Only the colors the coloring uses can hold a
    copy, and color 0 the empty one, so only those are tried: a huge k
    costs nothing where the budget lets it through.
    """
    if k < 1:
        raise InvalidSpace(f"need at least 1 color, got k={k}")
    cfg = dataclasses.replace(config, copies_bound=max(config.copies_bound, x.n))
    outcomes = []
    if mode == "exhaustive":
        total = k ** max(x.n - 1, 0)
        if total > budget:
            raise SearchTooLarge(
                f"exhaustive coloring scan too large: {total} > {budget}"
            )
        head = (0,) if x.n else ()
        iterator = (
            head + tail for tail in itertools.product(range(k), repeat=max(x.n - 1, 0))
        )
        exhaustive = True
    elif mode == "sampled":
        if samples < 1:
            raise InvalidSpace(f"need at least 1 sample, got {samples}")
        rng = random.Random(seed)
        iterator = (
            tuple(rng.randrange(k) for _ in range(x.n)) for _ in range(samples)
        )
        exhaustive = False
    else:
        raise InvalidSpace(f"unknown mode {mode!r}")
    listing = copies(x, target, cfg)
    for coloring in iterator:
        copy, color = next(
            ((t, c) for c in sorted({0, *coloring}) for t in listing if all(coloring[p] == c for p in t)),
            (None, None),
        )
        outcomes.append(ColoringOutcome(coloring, copy is not None, copy, color))
    return IndivisibilityReport(outcomes, exhaustive)


@dataclass
class GreedyResult:
    copy_indices: tuple
    color: int
    complete: bool
    obstruction: tuple | None = None  # orbit set where color 0 ran dry


def greedy_monochromatic(
    x: FiniteMetricSpace,
    coloring,
    target: FiniteMetricSpace,
) -> GreedyResult:
    """Greedy color-0 copy chase with the one-orbit color switch.

    Builds a copy of the target point by point inside color 0, always taking
    the least-index realizer.  On obstruction the blocking orbit set E is
    certified and the chase restarts inside E with color 1, following the
    dichotomy of the classical argument.  Partial copies are valid output.
    """
    coloring = tuple(coloring)
    if len(coloring) != x.n:
        raise InvalidSpace("coloring must assign every point")
    for color in coloring:
        if color not in (0, 1):
            raise InvalidSpace(f"color {color} outside {{0, 1}}")

    def chase(allowed, color):
        chosen: list[int] = []
        for t, row in enumerate(target.d):
            want = list(row[:t])
            # orbit set: points completing the partial copy regardless of color
            orbit = tuple(
                p for p in allowed if p not in chosen and [x.d[p][c] for c in chosen] == want
            )
            candidates = [p for p in orbit if coloring[p] == color]
            if not candidates:
                return chosen, orbit
            chosen.append(candidates[0])
        return chosen, None

    chosen0, orbit = chase(range(x.n), 0)
    if orbit is None:
        return GreedyResult(tuple(chosen0), 0, True)
    chosen1, orbit1 = chase(orbit, 1)
    if orbit1 is None:
        return GreedyResult(tuple(chosen1), 1, True, obstruction=orbit)
    best, color = (
        (chosen0, 0) if len(chosen0) >= len(chosen1) else (chosen1, 1)
    )
    return GreedyResult(tuple(best), color, False, obstruction=orbit)


@dataclass
class NetSystem:
    """Centers with rational radii in (0, 1/2) covering every point once."""

    centers: tuple
    radii: dict  # center -> Fraction

    def validate(self, x: FiniteMetricSpace) -> dict:
        """Check the net invariants; returns point -> center assignment."""
        _check_points(x.n, self.centers)
        for c in self.centers:
            if c not in self.radii:
                raise InvalidSpace(f"center {c} has no radius")
        assignment = {}
        for r in self.radii.values():
            if not (0 < r < Fraction(1, 2)):
                raise InvalidSpace(f"radius {r} outside (0, 1/2)")
        for p in range(x.n):
            owners = [
                y for y in self.centers if x.d[y][p] < self.radii[y]
            ]
            if len(owners) != 1:
                raise InvalidSpace(
                    f"point {p} has {len(owners)} centers within radius, need exactly 1"
                )
            assignment[p] = owners[0]
        # radii must avoid every band endpoint reachable from the distances:
        # d/r = 1 - 1/k for integer k >= 1 would put a point on a boundary
        for p, y in assignment.items():
            d = x.d[y][p]
            if d == 0:
                continue
            gap = 1 - Fraction(d, self.radii[y])
            if gap > 0 and (1 / gap).denominator == 1:
                raise InvalidSpace(
                    f"distance d({y},{p}) sits exactly on a band endpoint; "
                    f"choose a radius with coprime denominator"
                )
        return assignment


def band_color(d, r) -> int:
    """The annulus parity rule alone: 0 on [r(1-1/2n), r(1-1/(2n+1))), else 1.

    The left endpoints are included, the right ones are not, exactly as the
    rule is written; d = 0 (a point at its own center) sits below every band
    and takes the color of the innermost even band.  Every band lies below
    r, so d >= r (r <= 0 included) takes 1.
    """
    d = as_fraction(d)
    r = as_fraction(r)
    if d == 0:
        return 0
    if d >= r:
        return 1
    for n in itertools.count(1):
        lo = r * (1 - Fraction(1, 2 * n))
        hi = r * (1 - Fraction(1, 2 * n + 1))
        if d < lo:
            return 1
        if lo <= d < hi:
            return 0


def divisibility_coloring(x: FiniteMetricSpace, net: NetSystem) -> list[int]:
    """Two-color annulus coloring: parity of the band around each center.

    The net is validated first, so no point distance sits on a band
    boundary and the strict/non-strict comparisons never matter for the
    output's stability.
    """
    assignment = net.validate(x)
    return [band_color(x.d[assignment[p]][p], net.radii[assignment[p]]) for p in range(x.n)]


class PreconditionError(Exception):
    pass


def annulus_lemma_check(
    x: FiniteMetricSpace,
    y: int,
    start: int,
    end: int,
    r,
    n: int,
    chain,
    eps,
) -> int:
    """Scan a chain for an index inside the target annulus around y.

    Preconditions (each failure named): d(y, start) < r(1 - 1/(n+1));
    d(start, end) > r; consecutive chain steps <= eps < 1/((n+1)(n+2)); the
    chain runs from start to end.  Returns the first witness index i with
    r(1 - 1/(n+1)) <= d(y, chain[i]) < r(1 - 1/(n+2)); raises AssertionError
    when the preconditions hold but no index qualifies, which would be a
    reportable finding against the crossing fact, not a flake.
    """
    r = as_fraction(r)
    eps = as_fraction(eps)
    chain = list(chain)
    _check_points(x.n, [y, start, end, *chain])
    if n < 1:
        raise PreconditionError("n must be at least 1")
    lo = r * (1 - Fraction(1, n + 1))
    hi = r * (1 - Fraction(1, n + 2))
    if not x.d[y][start] < lo:
        raise PreconditionError(
            f"start point too far from the center: d={x.d[y][start]} >= {lo}"
        )
    if not x.d[start][end] > r:
        raise PreconditionError("end point is not beyond radius r from the start")
    if not eps < Fraction(1, (n + 1) * (n + 2)):
        raise PreconditionError("eps is not below 1/((n+1)(n+2))")
    if not chain or chain[0] != start or chain[-1] != end:
        raise PreconditionError("chain must run from start to end")
    for a, b in zip(chain, chain[1:]):
        if x.d[a][b] > eps:
            raise PreconditionError(f"chain step ({a},{b}) exceeds eps")
    for i, p in enumerate(chain):
        if lo <= x.d[y][p] < hi:
            return i
    raise AssertionError(
        "no chain point entered the annulus although all preconditions hold"
    )


def lambda_epsilon(x: FiniteMetricSpace, point: int, eps) -> Fraction:
    """min(1, widest span of the eps-step connected component of the point)."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise InvalidSpace("epsilon must be positive")
    _check_points(x.n, [point])
    component = {point}
    frontier = [point]
    while frontier:
        p = frontier.pop()
        for q in range(x.n):
            if q not in component and x.d[p][q] <= eps:
                component.add(q)
                frontier.append(q)
    if len(component) == 1:
        return Fraction(0)
    span = max(x.d[a][b] for a in component for b in component)
    return min(Fraction(1), span)
