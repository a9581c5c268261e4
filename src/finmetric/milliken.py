"""Tree codings of small Urysohn spaces as explicit distance functions.

Each variant places a distance from its four-value set on pairs (or triples)
of strings over a small alphabet, reading three relations off corresponding
components: equal, standard edge, and the taller node's digit.  The case
tables live in data files so the transcription stays auditable; totalizing
defaults are documented there.  Each table is read once into a lookup keyed
by the components' relations.  Metric verdicts come from relation types,
once per variant and membership; only builds whose types fail (the
inverted ones) scan their matrix on Python-int bitsets or sample
triangles.  The greedy height-increasing embedding realizes small target
spaces inside the admissible subset.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import NamedTuple, Sequence

from .spaces import (
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    _fraction_rows,
)

VARIANTS = ("134", "2379", "2678", "26712", "1378")
_SAMPLED_MAX_POINTS = 2**22  # a sampled build lists its points: 2,094,081 took 0.16 s and 145 MB (Xeon core)


@dataclass(frozen=True)
class Variant:
    name: str
    distance_set: DistanceSet
    alphabet: int
    tuple_size: int
    cases: tuple
    notes: str


@functools.cache
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


def _strings_shorter_than(alphabet: int, length: int) -> int:
    """How many strings over range(alphabet), alphabet >= 2, are shorter than length."""
    return (alphabet ** max(length, 0) - 1) // (alphabet - 1)


def _point_count(variant: Variant, depth: int) -> int | None:
    """How many coding points lie at depth, or None, with no power taken, when
    the count could have more decimal digits than Python formats (its
    int-to-str limit, 4300 by default).  The count is comb(N, k) <= N**k / k!
    over N < a**(depth + 1) / (a - 1) nodes, which bounds its log10."""
    a, k = variant.alphabet, variant.tuple_size
    log10 = k * ((depth + 1) * math.log10(a) - math.log10(a - 1)) - math.log10(math.factorial(k))
    if log10 > (sys.get_int_max_str_digits() or 4300):
        return None
    return math.comb(_strings_shorter_than(a, depth + 1), k)


def _relation(a, b) -> int:
    """How two nodes relate, as the case tables read them.

    0 for equal nodes; otherwise 1 + the taller node's digit at the shorter
    one's height, equal heights counting as digit 0.  So 2 is a standard edge.
    """
    if a == b:
        return 0
    if len(a) == len(b):
        return 1
    short, tall = (a, b) if len(a) < len(b) else (b, a)
    return 1 + tall[len(short)]


def _fact(key: str, relations: tuple, invert_membership: bool):
    """One condition key ('s_equal', 't_edge', 't_digit', ...) read off the relations."""
    component, _, fact = key.partition("_")
    c = {"s": 0, "t": 1, "u": 2}.get(component, len(relations))
    if c >= len(relations) or fact not in ("equal", "edge", "digit"):
        raise InvalidSpace(f"unknown condition key {key!r}")
    if fact == "digit":
        return max(relations[c] - 1, 0)
    got = relations[c] == (0 if fact == "equal" else 2)
    return not got if invert_membership and key == "s_equal" else got


@functools.cache
def _case_lookup(name: str, invert_membership: bool = False) -> dict:
    """The named variant's case table read once: its distance per tuple of component relations."""
    variant = load_variant(name)
    lookup = {}
    for relations in itertools.product(range(variant.alphabet + 1), repeat=variant.tuple_size):
        lookup[relations] = next((value for cond, value in variant.cases if all(
            _fact(key, relations, invert_membership) == want for key, want in cond.items())), None)
        if lookup[relations] is None:
            raise InvalidSpace(f"case table does not cover the component relations {relations}")
    return lookup


def _relation_patterns(alphabet: int, depth: int = 2) -> set:
    """The patterns (rel(a, b), rel(a, c), rel(b, c)) of three nodes of height <= depth.

    Depth 2 already shows every pattern: each relation reads one digit, at
    the shorter node's height, so only the order of the three heights and
    the digits read there matter.
    """
    nodes = nodes_up_to(alphabet, depth)
    return {(_relation(a, b), _relation(a, c), _relation(b, c))
            for a, b, c in itertools.product(nodes, repeat=3)}


@functools.cache
def _type_verdict(name: str, invert_membership: bool = False) -> bool:
    """Whether the named coding over the whole tree is metric, decided on relation types.

    A distance reads only the relations of corresponding components, so
    whether three points form a triangle depends only on their type: per
    component slot, the relation pattern of their three nodes (Milliken
    1979; Sauer 2006).  Every product of patterns whose three points are
    distinct, so no pair has all relations 0, is tested on its three
    looked-up distances.  Each depth's space is a subspace of the whole
    tree's, so True settles every depth; on False the depth's own matrix
    decides.
    """
    variant = load_variant(name)
    lookup = _case_lookup(name, invert_membership)
    equal = (0,) * variant.tuple_size
    for slots in itertools.product(_relation_patterns(variant.alphabet), repeat=variant.tuple_size):
        pairs = tuple(zip(*slots))
        if equal in pairs:
            continue
        a, b, c = map(lookup.__getitem__, pairs)
        if a > b + c or b > a + c or c > a + b:
            return False
    return True


def coding_distance(variant: Variant, p, q, invert_membership=False) -> Fraction:
    """Distance between two coding points, per the case table of the variant's name.

    Only points of the named variant are accepted: a pair whose relations
    the table does not hold, such as a digit outside the alphabet or two
    tuples of another size, raises InvalidSpace.
    """
    try:
        return Fraction(_case_lookup(variant.name, invert_membership)[tuple(map(_relation, p, q))])
    except KeyError:
        raise InvalidSpace(f"{p!r}, {q!r} are not points of coding variant {variant.name}") from None


def coding_points(variant: Variant, depth: int) -> list:
    """All tuple_size-subsets of the node tree, components in length-lex order."""
    return list(itertools.combinations(nodes_up_to(variant.alphabet, depth), variant.tuple_size))


@dataclass
class MillikenSpace:
    variant: Variant
    depth: int
    points: list
    space: FiniteMetricSpace
    metric: bool
    witness: tuple | None  # non-metric triple of point indices, if any


def _triangle_witness(d) -> tuple | None:
    """The sorted triple at the first failing pivot of a triangle scan, or None.

    Pivot k fails iff some i at distance a from k and some j at distance b
    from k have d(i, j) > a + b; swapping i and j, a <= b suffices, and only
    a + b below the largest value can fail.  Each test ANDs Python-int
    bitsets, one per (point, value).  At the first failing pivot k the
    witness is the row-major first argmin of d(i, k) + d(k, j) - d(i, j).
    d is symmetric with a zero diagonal.
    """
    n = len(d)
    if n < 3:
        return None
    values = sorted({v for i, row in enumerate(d) for v in row[i + 1:]})
    pairs = [(a, b) for a in values for b in values if a <= b and a + b < values[-1]]
    bits = []  # bits[i][v]: the points at distance v from i
    for row in d:
        bits.append(dict.fromkeys((0, *values), 0))
        for j, v in enumerate(row):
            bits[-1][v] |= 1 << j
    # farther[i][c]: the points farther than c from i
    farther = [{a + b: sum(bits_i[v] for v in values if v > a + b) for a, b in pairs} for bits_i in bits]
    for k, row in enumerate(d):
        if any(farther[i][a + b] & bits[k][b] for a, b in pairs
               for i in itertools.compress(range(n), map(a.__eq__, row))):
            i = min(range(n), key=lambda r: d[r][k] + min(map(operator.sub, row, d[r])))
            gaps = list(map(operator.sub, row, d[i]))
            return tuple(sorted((i, gaps.index(min(gaps)), k)))
    return None


@functools.cache
def _flat_table(name: str, invert_membership: bool = False) -> tuple[int, ...]:
    """The case lookup as a flat int table, for _coding_matrix.

    A relation tuple (r_0, ..., r_{k-1}) sits at index sum r_c * (A+1)^(k-1-c),
    A the alphabet.  Index 0 holds 0: only a point and itself have every
    component equal, so that entry is the diagonal's.
    """
    variant = load_variant(name)
    lookup = _case_lookup(name, invert_membership)
    flat = [lookup[key] for key in itertools.product(range(variant.alphabet + 1), repeat=variant.tuple_size)]
    flat[0] = 0
    return tuple(flat)


def _coding_matrix(variant: Variant, depth: int, flat: Sequence) -> tuple[tuple, ...]:
    """The distance matrix of coding_points(variant, depth), as tuple rows of flat's values.

    flat is a table of _flat_table's layout: the ints themselves, which the
    triangle scan of the inverted builds reads, or one Fraction per int,
    which gives a proved space its rows with no second pass.

    The rows are built for m-subsets of the N nodes, m = 1, ..., k, one
    size from the last.  With B = A+1, row(t, q) of an m-subset t at table
    prefix q < B^(k-m) (the relations of the slots before t's, as one
    index) lists flat[q*B^m + the index of t's relations to u] over the
    m-subsets u in combinations order; a point's matrix row is row(p, 0).
    In that order the m-subsets whose first node is x form one run, x
    followed by the (m-1)-subsets after x: the last C(N-x-1, m-1) of them,
    so the run is cut from index C(N, m-1) - C(N-x-1, m-1) of their list.
    So row((a, *t), q) is the concatenation, over x, of row(t, q*B +
    rel(a, x)) cut there.  A one-node row reads flat directly: row((a,), q)
    is flat[q*B + rel(a, x)] over x.  Each subset's rows at all its
    prefixes lie end to end in one tuple, built once per call; the rows of
    the (m+1)-subsets starting at a are one itemgetter, per a, of the cut
    pieces' positions, applied to the tuples of the m-subsets after a (the
    run that follows a, again).  No entry takes a Python step of its own.
    """
    base, size = variant.alphabet + 1, variant.tuple_size
    nodes = nodes_up_to(variant.alphabet, depth)
    n = len(nodes)
    relations = [[_relation(a, b) for b in nodes] for a in nodes]
    blocks = [flat[q:q + base].__getitem__ for q in range(0, len(flat), base)]
    # per m-subset, in combinations order: its rows at every prefix, end to end
    level = [tuple(itertools.chain.from_iterable(map(block, rel) for block in blocks)) for rel in relations]
    for m in range(1, size):
        width = math.comb(n, m)  # an m-subset row's length
        after = [math.comb(n - x - 1, m) for x in range(n)]  # the m-subsets after x, which end a row
        prefixes = range(0, base ** (size - m), base)
        cuts = after * len(prefixes)
        rows = []
        for a, rel in enumerate(relations):
            tails = level[width - after[a]:]
            if tails:
                ends = [(q + r + 1) * width for q in prefixes for r in rel]
                spots = [*itertools.chain.from_iterable(map(range, map(operator.sub, ends, cuts), ends))]
                # itemgetter gives a bare item, not a 1-tuple, for one position
                gather = operator.itemgetter(*spots) if len(spots) > 1 else lambda t, s=spots[0]: (t[s],)
                rows += map(gather, tails)
        level = rows
    return tuple(level)


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

    A pair's distance is the case table's lookup at the relations of its
    components.  The verdict comes first from relation types
    (_type_verdict): when every type is a triangle, the space is metric at
    every depth, and no matrix is scanned nor triangle drawn.  Otherwise
    (the inverted builds) the check decides, and fixes the witness.  The
    exhaustive check builds the whole matrix, capped at max_points
    (covering pairs over the binary tree to depth 4 and over the ternary
    tree to depth 3, and triples to depth 3): from the Fraction table when
    the types prove it metric, so its rows are the space's; otherwise from
    the int table, which the bitset scan decides, and a space it proves
    metric is built from that int matrix with no further scan.  Use
    check='sampled' beyond that: it lists the points and, when the types
    fail, draws `samples` random triangles from `seed`, computing only
    their distances; samples and seed matter only then.  A space under 3
    points has no triangle and is metric.  The mode and samples are checked
    first, then the point count, reckoned from the node count before any
    node is listed, against max_points or, sampled, _SAMPLED_MAX_POINTS; a
    count too long to format (_point_count) is not reckoned and is refused
    as more than the cap.
    """
    variant = load_variant(name)
    if check not in ("exhaustive", "sampled"):
        raise InvalidSpace(f"unknown check mode {check!r}")
    if check == "sampled" and samples < 1:
        raise InvalidSpace(f"need at least 1 sample, got {samples}")
    cap = max_points if check == "exhaustive" else _SAMPLED_MAX_POINTS
    n = _point_count(variant, depth)
    if n is None or n > cap:
        count = f"more than {cap} points" if n is None else f"{n} points > {cap}"
        hint = "; use check='sampled'" if check == "exhaustive" else ""
        raise SearchTooLarge(f"{check} metric check too large: {count}{hint}")
    points = coding_points(variant, depth)
    n = len(points)
    lookup = _case_lookup(name, invert_membership)
    typed_metric = _type_verdict(name, invert_membership)
    witness = None
    space = None

    def dist(i, j):
        return lookup[tuple(map(_relation, points[i], points[j]))]

    if check == "exhaustive":
        flat = _flat_table(name, invert_membership)
        if typed_metric:
            space = FiniteMetricSpace._from_rows(_coding_matrix(variant, depth, [*map(Fraction, flat)]))
        else:
            dmat = _coding_matrix(variant, depth, flat)
            witness = _triangle_witness(dmat)
            if witness is None:
                space = FiniteMetricSpace._from_rows(_fraction_rows(dmat, 1))
    else:
        rng = random.Random(seed)
        for _ in range(0 if typed_metric or n < 3 else samples):  # no triangle under 3 points
            i, j, k = rng.sample(range(n), 3)
            a, b, c = dist(i, j), dist(i, k), dist(j, k)
            if a > b + c or b > a + c or c > a + b:
                witness = tuple(sorted((i, j, k)))
                break
    return MillikenSpace(variant, depth, points, space, witness is None, witness)


def _admissible(variant: Variant, depth: int):
    """The points of admissible_points, generated lazily in its order."""
    combos = itertools.combinations(nodes_up_to(variant.alphabet, depth), variant.tuple_size)
    if variant.tuple_size == 2:
        lex = variant.name != "26712"
        return ((s, t) for s, t in combos
                if len(s) < len(t) and t[len(s)] == 0 and (s < t or not lex))
    return ((s, t, u) for s, t, u in combos
            if len(s) < len(t) < len(u) and t[len(s)] == u[len(s)] == u[len(t)] == 0 and s < t < u)


def _admissible_floor(variant: Variant, depth: int) -> int:
    """A lower bound on len(admissible_points(variant, depth)): the k-tuples
    (), (0,), ..., (0,) * (k - 2), t with t 0 at every height below k - 1."""
    return _strings_shorter_than(variant.alphabet, depth - variant.tuple_size + 2)


def admissible_points(variant: Variant, depth: int) -> list:
    """The subset used for embeddings: increasing heights, low digits zeroed.

    Pairs: |s| < |t|, s lex-below t, t(|s|) = 0.  Triples additionally zero
    u at both lower heights.  For '26712' the lex clause is dropped: its
    s-components must carry 1-digits to encode the far distance, which is
    incompatible with the all-zeros trick that guarantees the lex order.
    Heights increase, so every such tuple is a combination of the length-lex
    node list; they are filtered from the combinations, in their order.
    """
    return list(_admissible(variant, depth))


class _EmbedIndex(NamedTuple):
    """The admissible points of a (variant, depth), indexed for coding_embed.

    Per component slot, three maps to bitsets of candidates (by list index):
    per node, those carrying it in that slot; per height h, those whose node
    there has height h; per (h, p, a), those whose node there has height h
    and digit a at height p.
    """

    alphabet: int
    candidates: list
    by_value: dict  # per distance value, the component relations the table maps to it
    slots: list  # per component slot, (nodes, heights, digits)


@functools.cache
def _embed_index(name: str, depth: int, max_candidates: int) -> _EmbedIndex:
    """The embedding index of a (variant, depth), built once per cap.

    An oversized subset is refused, and not cached, without being listed
    in full: at once when _admissible_floor already exceeds max_candidates,
    else when listing reaches max_candidates + 1 points.
    """
    variant = load_variant(name)
    # the floor counts at least one string per length below depth - k + 2, so
    # a depth that long is refused before the floor's power is taken
    if (depth - variant.tuple_size + 2 > max_candidates
            or _admissible_floor(variant, depth) > max_candidates):
        raise SearchTooLarge(f"admissible subset too large: more than {max_candidates} points")
    candidates = list(itertools.islice(_admissible(variant, depth), max_candidates + 1))
    if len(candidates) > max_candidates:
        raise SearchTooLarge(f"admissible subset too large: more than {max_candidates} points")
    by_value = {}
    for relations, value in _case_lookup(name).items():
        by_value.setdefault(value, []).append(relations)
    slots = []
    for c in range(variant.tuple_size):
        nodes, heights, digits = {}, [0] * (depth + 1), {}
        for k, cand in enumerate(candidates):
            node, bit = cand[c], 1 << k
            nodes[node] = nodes.get(node, 0) | bit
            heights[len(node)] |= bit
            for p, a in enumerate(node):
                digits[len(node), p, a] = digits.get((len(node), p, a), 0) | bit
        slots.append((nodes, heights, digits))
    return _EmbedIndex(variant.alphabet, candidates, by_value, slots)


def _distance_row(index: _EmbedIndex, k: int) -> dict:
    """Candidate k's distance row: per value, the bitset of the other candidates at it.

    Per slot, the candidates fall into groups by the relation of their node
    to k's node x there (see _relation): x itself; the rest of x's height;
    per lower height h, all of it, at 1 + x's digit at h; per greater height,
    each digit a at x's height, at 1 + a.  A value's bitset is the union,
    over the relation tuples the table maps to it, of the slots' groups
    intersected.  k itself is left out: the table gives an equal tuple a
    nonzero distance.
    """
    groups = []  # groups[c][r]: the candidates whose slot-c node has relation r to k's
    for (nodes, heights, digits), x in zip(index.slots, index.candidates[k]):
        group = [0] * (index.alphabet + 1)
        group[0] = nodes[x]
        group[1] = heights[len(x)] ^ nodes[x]
        for h, a in enumerate(x):
            group[1 + a] |= heights[h]
        for h in range(len(x) + 1, len(heights)):
            for a in range(index.alphabet):
                group[1 + a] |= digits.get((h, len(x), a), 0)
        groups.append(group)
    row = {}
    for value, tuples in index.by_value.items():
        bits = 0
        for relations in tuples:
            common = -1
            for group, r in zip(groups, relations):
                common &= group[r]
            bits |= common
        row[value] = bits & ~(1 << k)
    return row


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

    The search runs on Python-int bitsets over the admissible list, which is
    indexed once per (variant, depth).  Level i's domain is the AND of the
    distance rows of the points placed so far, each taken at its wanted
    distance to target point i.  A row is built only when its candidate is
    tried, and only for this call.  After each placement every later level
    must keep a nonempty domain, or the branch is cut (forward checking, as
    in Haralick & Elliott 1980).  The levels keep their fixed order and each
    domain is scanned by ascending index, so the first embedding found, or
    None, is that of the plain backtracker over the same order.
    """
    variant = load_variant(name)
    if target.n > 6:
        raise SearchTooLarge("embedding targets are capped at 6 points")
    for v in target.distances():
        if v not in variant.distance_set:
            raise InvalidSpace(f"target distance {v} outside the variant's set")
    index = _embed_index(name, depth, max_candidates)
    candidates = index.candidates

    # place tightly-linked target points consecutively: component reuse is
    # then forced early and the backtracking prunes hard
    order = [0] if target.n else []
    while len(order) < target.n:
        rest = [p for p in range(target.n) if p not in order]
        order.append(min(rest, key=lambda p: min(target.d[p][q] for q in order)))
    reordered = target.submetric(order)

    want = [[int(v) for v in row] for row in reordered.d]
    rows: dict = {}
    chosen: list = []

    def extend(domains: list) -> bool:
        """Fill the levels from len(chosen) on; domains[l] holds level len(chosen) + l's candidates."""
        if not domains:
            return True
        i = len(chosen)
        wanted = [(d, w[i]) for d, w in zip(domains[1:], want[i + 1:])]
        domain = domains[0]
        while domain:
            k = (domain & -domain).bit_length() - 1
            domain &= domain - 1
            row = rows.get(k)
            if row is None:
                row = rows[k] = _distance_row(index, k)
            later = []
            for d, v in wanted:
                d &= row.get(v, 0)
                if not d:
                    break
                later.append(d)
            else:
                chosen.append(k)
                if extend(later):
                    return True
                chosen.pop()
        return False

    if not extend([(1 << len(candidates)) - 1] * reordered.n):
        return None
    result = [None] * target.n
    for slot, point in enumerate(order):
        result[point] = candidates[chosen[slot]]
    return result


def verify_embedding(variant_name: str, points, target: FiniteMetricSpace) -> bool:
    variant = load_variant(variant_name)
    if len(points) != target.n:
        return False
    return all(coding_distance(variant, points[i], points[j]) == target.d[i][j]
               for i, j in itertools.combinations(range(target.n), 2))
