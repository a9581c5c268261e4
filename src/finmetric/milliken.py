"""Tree codings of small Urysohn spaces as explicit distance functions.

Each variant places a distance from its four-value set on pairs (or triples)
of strings over a small alphabet, reading equality and edge patterns off the
components.  The case tables live in data files so the transcription stays
auditable; totalizing defaults are documented there.  Metric verdicts come
from an exhaustive integer triangle scan, and the greedy height-increasing
embedding realizes small target spaces inside the admissible subset.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .spaces import (
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
)

VARIANTS = ("134", "2379", "2678", "26712", "1378")


@dataclass(frozen=True)
class Variant:
    name: str
    distance_set: DistanceSet
    alphabet: int
    tuple_size: int
    cases: tuple
    notes: str


def load_variant(name: str) -> Variant:
    if name not in VARIANTS:
        raise InvalidSpace(f"unknown coding variant {name!r}; choose from {VARIANTS}")
    payload = json.loads(
        resources.files("finmetric")
        .joinpath("data", f"milliken_{name}.json")
        .read_text()
    )
    return Variant(
        payload["name"],
        DistanceSet(payload["distance_set"]),
        payload["alphabet"],
        payload["tuple_size"],
        tuple((case["when"], case["distance"]) for case in payload["cases"]),
        payload["notes"],
    )


def nodes_up_to(alphabet: int, depth: int) -> list[tuple[int, ...]]:
    """All strings of length <= depth in length-lex order (the tree order's extension)."""
    if depth < 0:
        raise InvalidSpace(f"depth must be non-negative, got {depth}")
    out = []
    for length in range(depth + 1):
        out.extend(itertools.product(range(alphabet), repeat=length))
    return out


def lenlex_less(a, b) -> bool:
    return (len(a), a) < (len(b), b)


def lex_less(a, b) -> bool:
    """Lexicographic with prefixes first: a < b when a extends to b or differs low."""
    if a == b:
        return False
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) < len(b)


def standard_edge(a, b) -> bool:
    """Standard graph structure: heights differ, taller has digit 1 at |shorter|."""
    if len(a) == len(b):
        return False
    short, tall = (a, b) if len(a) < len(b) else (b, a)
    return tall[len(short)] == 1


def taller_digit(a, b) -> int | None:
    """Digit of the taller string at the shorter one's height; None for equal heights."""
    if len(a) == len(b):
        return None
    short, tall = (a, b) if len(a) < len(b) else (b, a)
    return tall[len(short)]


def _condition_holds(cond: dict, p, q, invert_membership=False) -> bool:
    s_equal = p[0] == q[0]
    if invert_membership:
        s_equal = not s_equal
    for key, want in cond.items():
        if key == "s_equal":
            got = s_equal
        elif key == "t_equal":
            got = p[1] == q[1]
        elif key == "t_edge":
            got = standard_edge(p[1], q[1])
        elif key == "s_edge":
            got = standard_edge(p[0], q[0])
        elif key == "u_edge":
            got = standard_edge(p[2], q[2])
        elif key == "t_digit":
            digit = taller_digit(p[1], q[1])
            got = (0 if digit is None else digit)  # equal heights default to 0
            if got != want:
                return False
            continue
        else:
            raise InvalidSpace(f"unknown condition key {key!r}")
        if got != want:
            return False
    return True


def _case_value(variant: Variant, p, q, invert_membership=False) -> int:
    """The case table's distance for the pair, as the int the table stores."""
    for cond, value in variant.cases:
        if _condition_holds(cond, p, q, invert_membership):
            return value
    raise InvalidSpace(f"case table does not cover the pair {p!r}, {q!r}")


def coding_distance(variant: Variant, p, q, invert_membership=False) -> Fraction:
    """Distance between two coding points, per the variant's case table."""
    return Fraction(_case_value(variant, p, q, invert_membership))


def coding_points(variant: Variant, depth: int) -> list:
    """All tuple_size-subsets of the node tree, components in length-lex order."""
    nodes = nodes_up_to(variant.alphabet, depth)
    return [
        tuple(combo)
        for combo in itertools.combinations(nodes, variant.tuple_size)
    ]


@dataclass
class MillikenSpace:
    variant: Variant
    depth: int
    points: list
    space: FiniteMetricSpace
    metric: bool
    witness: tuple | None  # non-metric triple of point indices, if any


def _triangle_scan_numpy(dmat) -> tuple | None:
    """Exact exhaustive scan on an int matrix; distances are tiny integers."""
    import numpy as np

    d = np.asarray(dmat, dtype=np.int64)
    n = d.shape[0]
    for k in range(n):
        slack = d[:, k, None] + d[None, k, :] - d
        if (slack < 0).any():
            i, j = map(int, divmod(int(slack.argmin()), n))
            return tuple(sorted((i, j, k)))
    return None


def milliken_space(
    name: str,
    depth: int,
    invert_membership: bool = False,
    check: str = "exhaustive",
    samples: int = 200_000,
    seed: int = 0,
    max_points: int = 800,
) -> MillikenSpace:
    """Build the coding space at the given depth and check metricity.

    The exhaustive triangle scan is cubic in the point count, so it is
    capped at max_points (covering pairs over the binary tree to depth 4 and
    over the ternary tree to depth 3, and triples to depth 3); use
    check='sampled' beyond that.  Distances are small integers, so both scan
    paths are exact.
    """
    variant = load_variant(name)
    points = coding_points(variant, depth)
    n = len(points)
    witness = None
    space = None

    def dist(i, j):
        return _case_value(variant, points[i], points[j], invert_membership)

    if check == "exhaustive":
        if n > max_points:
            raise SearchTooLarge(
                f"exhaustive metric check too large: {n} points > {max_points}; "
                "use check='sampled'"
            )
        dmat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dmat[i][j] = dmat[j][i] = dist(i, j)
        witness = _triangle_scan_numpy(dmat)
        if witness is None:
            # one shared Fraction per distance value, not one per entry
            shared = {v: Fraction(v) for v in {0, *(value for _, value in variant.cases)}}
            space = FiniteMetricSpace([[shared[v] for v in row] for row in dmat], check=False)
    elif check == "sampled":
        if samples < 1:
            raise InvalidSpace(f"need at least 1 sample, got {samples}")
        # distances computed lazily: the full matrix would not fit the budget
        rng = random.Random(seed)
        for _ in range(samples):
            i, j, k = rng.sample(range(n), 3)
            a, b, c = dist(i, j), dist(i, k), dist(j, k)
            if a > b + c or b > a + c or c > a + b:
                witness = tuple(sorted((i, j, k)))
                break
    else:
        raise InvalidSpace(f"unknown check mode {check!r}")

    return MillikenSpace(variant, depth, points, space, witness is None, witness)


def admissible_points(variant: Variant, depth: int) -> list:
    """The subset used for embeddings: increasing heights, low digits zeroed.

    Pairs: |s| < |t|, s lex-below t, t(|s|) = 0.  Triples additionally zero
    u at both lower heights.  For '26712' the lex clause is dropped: its
    s-components must carry 1-digits to encode the far distance, which is
    incompatible with the all-zeros trick that guarantees the lex order.
    """
    nodes = nodes_up_to(variant.alphabet, depth)
    out = []
    if variant.tuple_size == 2:
        for s, t in itertools.permutations(nodes, 2):
            if len(s) >= len(t):
                continue
            if t[len(s)] != 0:
                continue
            if variant.name != "26712" and not lex_less(s, t):
                continue
            out.append((s, t))
    else:
        for s, t, u in itertools.permutations(nodes, 3):
            if not (len(s) < len(t) < len(u)):
                continue
            if t[len(s)] != 0 or u[len(s)] != 0 or u[len(t)] != 0:
                continue
            if not (lex_less(s, t) and lex_less(t, u)):
                continue
            out.append((s, t, u))
    return sorted(out, key=lambda p: tuple((len(c), c) for c in p))


def coding_embed(
    name: str,
    depth: int,
    target: FiniteMetricSpace,
    max_candidates: int = 20000,
):
    """Embed a small target space into the coding's admissible subset.

    Complete backtracking in greedy height-increasing order: candidates are
    scanned lowest-components-first, so when the classical greedy assignment
    fits within the depth it is found first; failure means no embedding
    exists at this depth.  Returns the list of chosen coding points or None.
    """
    variant = load_variant(name)
    if target.n > 6:
        raise SearchTooLarge("embedding targets are capped at 6 points")
    for v in target.distances():
        if v not in variant.distance_set:
            raise InvalidSpace(f"target distance {v} outside the variant's set")
    candidates = admissible_points(variant, depth)
    if len(candidates) > max_candidates:
        raise SearchTooLarge(
            f"admissible subset too large: {len(candidates)} > {max_candidates}"
        )

    # place tightly-linked target points consecutively: component reuse is
    # then forced early and the backtracking prunes hard
    order = [0] if target.n else []
    while len(order) < target.n:
        rest = [p for p in range(target.n) if p not in order]
        order.append(min(rest, key=lambda p: min(target.d[p][q] for q in order)))
    reordered = target.submetric(order)

    chosen: list = []
    cache: dict = {}

    def dist(a, b):
        key = (a, b) if a < b else (b, a)
        v = cache.get(key)
        if v is None:
            v = cache[key] = coding_distance(variant, a, b)
        return v

    def extend(i: int) -> bool:
        if i == reordered.n:
            return True
        for cand in candidates:
            if cand in chosen:
                continue
            if all(dist(cand, chosen[j]) == reordered.d[i][j] for j in range(i)):
                chosen.append(cand)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    result = [None] * target.n
    for slot, point in enumerate(order):
        result[point] = chosen[slot]
    return result


def verify_embedding(variant_name: str, points, target: FiniteMetricSpace) -> bool:
    variant = load_variant(variant_name)
    if len(points) != target.n:
        return False
    for i in range(target.n):
        for j in range(i + 1, target.n):
            if coding_distance(variant, points[i], points[j]) != target.d[i][j]:
                return False
    return True
