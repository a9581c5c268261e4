"""Tree duality for ultrametric spaces, Ramsey degrees, and l_p embeddings.

A finite ultrametric space with distance values a_0 > ... > a_{k-1} is the
leaf set of a rooted tree of uniform leaf depth k: two leaves whose paths
split below a node of depth j lie at distance a_j.  Degree computations and
the exact Fichet weight calculus all run on that tree.
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
    as_fraction,
)


@dataclass
class UltraTree:
    """Rooted leveled tree; leaves all at depth len(level_distances)."""

    level_distances: tuple  # strictly decreasing positive rationals
    parents: list           # parents[i] = parent node index, -1 for the root
    depths: list
    leaf_points: dict       # leaf node index -> point index, leaves only

    def __post_init__(self):
        lv = tuple(as_fraction(v) for v in self.level_distances)
        if any(lv[i] <= lv[i + 1] for i in range(len(lv) - 1)):
            raise InvalidSpace("level distances must be strictly decreasing")
        if any(v <= 0 for v in lv):
            raise InvalidSpace("level distances must be positive")
        self.level_distances = lv
        k = len(lv)
        children = self.children()
        for node, depth in enumerate(self.depths):
            if depth < k and not children[node]:
                raise InvalidSpace(f"internal node {node} at depth {depth} has no child")
            if depth == k and node not in self.leaf_points:
                raise InvalidSpace(f"maximal node {node} is not a leaf")

    @property
    def height(self) -> int:
        return len(self.level_distances)

    def n_nodes(self) -> int:
        return len(self.parents)

    def children(self) -> list:
        out = [[] for _ in self.parents]
        for node, par in enumerate(self.parents):
            if par >= 0:
                out[par].append(node)
        return out

    def leaves(self) -> list:
        return sorted(self.leaf_points)


def tree_of_space(x: FiniteMetricSpace) -> UltraTree:
    """The ball tree of an ultrametric space; leaves carry the points."""
    if not x.is_ultrametric():
        raise InvalidSpace("input space is not ultrametric")
    if x.n == 1:
        # a single point still gets one level so the tree has a leaf layer
        return UltraTree((Fraction(1),), [-1, 0], [0, 1], {1: 0})
    levels = sorted(x.distances(), reverse=True)
    parents, depths, leaf_points = _class_tree(x, levels)
    return UltraTree(tuple(levels), parents, depths, leaf_points)


def _class_tree(x: FiniteMetricSpace, levels) -> tuple[list, list, dict]:
    """Parents, depths and leaf points of the tree of closeness classes.

    levels descend; node 0 holds every point, and the depth-j nodes below it
    are the classes of d <= levels[j], with the threshold past the last
    level treated as 0, i.e. singleton leaves at depth len(levels).
    """
    k = len(levels)
    parents = [-1]
    depths = [0]
    leaf_points = {}

    def rec(node, members, depth):
        if depth == k:
            (p,) = members
            leaf_points[node] = p
            return
        thr = levels[depth + 1] if depth + 1 < k else None
        remaining = list(members)
        classes = []
        while remaining:
            seed = remaining.pop(0)
            cls = [seed]
            for q in list(remaining):
                if thr is not None and x.d[seed][q] <= thr:
                    cls.append(q)
                    remaining.remove(q)
            classes.append(cls)
        for cls in classes:
            child = len(parents)
            parents.append(node)
            depths.append(depth + 1)
            rec(child, cls, depth + 1)

    rec(0, list(range(x.n)), 0)
    return parents, depths, leaf_points


def space_of_tree(t: UltraTree) -> FiniteMetricSpace:
    """Inverse of tree_of_space up to isometry: d(leaf, leaf) = a_(lca depth)."""
    leaves = t.leaves()
    n = len(leaves)
    idx = {leaf: i for i, leaf in enumerate(leaves)}
    ancestors = []
    for leaf in leaves:
        chain = []
        node = leaf
        while node != -1:
            chain.append(node)
            node = t.parents[node]
        ancestors.append(set(chain))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        common = ancestors[a] & ancestors[b]
        lca_depth = max(t.depths[node] for node in common)
        rows[a][b] = rows[b][a] = t.level_distances[lca_depth]
    return FiniteMetricSpace(rows, check=False)


def convex_orderings_count(x: FiniteMetricSpace, brute_force: bool = False) -> int:
    """Number of linear orderings keeping every metric ball an interval.

    Computed as the product of (child count)! over internal tree nodes; with
    brute_force=True the enumeration over all n! orderings runs as well and
    the two must agree.
    """
    if x.n == 1:
        return 1
    t = tree_of_space(x)
    formula = 1
    children = t.children()
    for node in range(t.n_nodes()):
        if children[node]:
            formula *= math.factorial(len(children[node]))
    if brute_force:
        assert formula == _convex_brute(x), "formula and brute force disagree"
    return formula


def _balls(x: FiniteMetricSpace) -> set:
    out = set()
    for c in range(x.n):
        for r in x.distances():
            out.add(frozenset(p for p in range(x.n) if x.d[c][p] <= r))
    return out


def _convex_brute(x: FiniteMetricSpace) -> int:
    balls = _balls(x)
    count = 0
    for perm in itertools.permutations(range(x.n)):
        pos = {p: i for i, p in enumerate(perm)}
        ok = True
        for ball in balls:
            spots = sorted(pos[p] for p in ball)
            if spots[-1] - spots[0] != len(spots) - 1:
                ok = False
                break
        if ok:
            count += 1
    return count


def ultrametric_isometry_order(x: FiniteMetricSpace) -> int:
    """|iso| via tree-automorphism recursion (multiset canonicalization)."""
    t = tree_of_space(x)
    children = t.children()

    def shape_and_aut(node):
        if not children[node]:
            return ("leaf",), 1
        pairs = sorted(
            (shape_and_aut(c) for c in children[node]), key=lambda p: p[0]
        )
        shapes = tuple(p[0] for p in pairs)
        aut = 1
        for _, a in pairs:
            aut *= a
        for _, group in itertools.groupby(shapes):
            aut *= math.factorial(len(list(group)))
        return ("node", shapes), aut

    return shape_and_aut(0)[1]


@dataclass(frozen=True)
class DegreeRecord:
    orderings: int
    iso: int
    degree: int


def ramsey_degree_ultrametric(
    x: FiniteMetricSpace, config: Config = DEFAULT_CONFIG
) -> DegreeRecord:
    """Ramsey degree of an ultrametric space: convex orderings over isometries."""
    clo = convex_orderings_count(x)
    iso = ultrametric_isometry_order(x)
    if clo % iso:
        raise AssertionError(
            f"internal inconsistency: |cLO|={clo} not divisible by |iso|={iso}"
        )
    return DegreeRecord(clo, iso, clo // iso)


def is_uniformly_branching(x: FiniteMetricSpace) -> bool:
    """True when the associated tree branches equally on each level."""
    t = tree_of_space(x)
    children = t.children()
    by_depth: dict[int, set] = {}
    for node in range(t.n_nodes()):
        if children[node]:
            by_depth.setdefault(t.depths[node], set()).add(len(children[node]))
    return all(len(v) == 1 for v in by_depth.values())


def comb_space(n: int, distances=None) -> FiniteMetricSpace:
    """The comb: all branching nodes on one branch; distances a_0 > ... > a_(n-2)."""
    if n < 2:
        return FiniteMetricSpace.single_point()
    if distances is None:
        distances = list(range(n - 1, 0, -1))
    levels = [as_fraction(v) for v in distances]
    if len(levels) != n - 1:
        raise InvalidSpace("a comb with n leaves uses n-1 distances")
    rows = [[Fraction(0)] * n for _ in range(n)]
    # leaf i splits off at depth i: d(i, j) = levels[min(i, j)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = levels[i]
    return FiniteMetricSpace(rows, check=False)


# --- big Ramsey degrees -----------------------------------------------------

def ambient_tree_nodes(x: FiniteMetricSpace, s: DistanceSet):
    """Parent list of the downward closure of x through all |S| levels.

    Nodes at depth j are classes of d <= b_j (b = S descending, b_|S| = 0),
    including pass-through chain nodes at levels where x does not branch.
    Returns (parents, depths); node 0 is the root.
    """
    if any(v not in s for v in x.distances()):
        raise InvalidSpace("space has a distance outside S")
    parents, depths, _ = _class_tree(x, sorted(s.values, reverse=True))
    return parents, depths


def linear_extensions_tree(parents, brute_limit: int = 10) -> int:
    """Linear extensions of a rooted tree via the hook length formula.

    e(T) = n! / prod of subtree sizes; cross-checked by brute-force extension
    enumeration when the tree is small enough.
    """
    n = len(parents)
    size = [1] * n
    for node in range(n - 1, 0, -1):
        size[parents[node]] += size[node]
    denom = 1
    for v in size:
        denom *= v
    count = math.factorial(n) // denom
    if n <= brute_limit:
        assert count == _extensions_brute(parents), "hook formula disagrees with brute force"
    return count


def _extensions_brute(parents) -> int:
    """Count extensions by enumerating placements (memoized on the placed set)."""
    n = len(parents)
    children = [[] for _ in range(n)]
    for v in range(n):
        if parents[v] >= 0:
            children[parents[v]].append(v)
    memo: dict[int, int] = {}

    def rec(placed: int) -> int:
        if placed == (1 << n) - 1:
            return 1
        if placed in memo:
            return memo[placed]
        total = 0
        for v in range(n):
            if placed & (1 << v):
                continue
            if parents[v] < 0 or placed & (1 << parents[v]):
                total += rec(placed | (1 << v))
        memo[placed] = total
        return total

    return rec(0)


def _extensions_permutation_scan(parents) -> int:
    """Raw n! scan; only usable for tiny trees, kept as an oracle for the DP."""
    n = len(parents)
    count = 0
    for perm in itertools.permutations(range(n)):
        pos = {node: i for i, node in enumerate(perm)}
        if all(parents[v] < 0 or pos[parents[v]] < pos[v] for v in range(n)):
            count += 1
    return count


def big_ramsey_degree(x: FiniteMetricSpace, s: DistanceSet) -> int:
    """Big Ramsey degree of an ultrametric space over finite S.

    Equals the number of linear extensions of the downward closure of any
    copy of x in the full |S|-level tree (root included; the root is below
    everything so its inclusion does not change the count).
    """
    if not x.is_ultrametric():
        raise InvalidSpace("big Ramsey degrees computed for ultrametric spaces only")
    parents, _ = ambient_tree_nodes(x, s)
    return linear_extensions_tree(parents)


# --- exact Fichet weights ----------------------------------------------------

@dataclass
class FichetReport:
    p: int
    dimension: int
    node_weights_p: dict   # tree node -> mu(t)^p as an exact Fraction
    pair_checks: list      # ((i, j), lhs, rhs) with lhs == rhs asserted
    dimension_bound: int


def fichet_embedding(x: FiniteMetricSpace, p: int) -> FichetReport:
    """Exact weight assignment embedding an ultrametric space into l_p^n.

    Verification runs entirely on p-th powers in rationals: for every pair,
    the weights of the nodes separating the two leaves sum to d(x,y)^p.  Real
    coordinates (p-th roots) are never materialized.
    """
    if p < 1:
        raise InvalidSpace("p must be a positive integer")
    t = tree_of_space(x)
    k = t.height
    a = t.level_distances
    weights: dict[int, Fraction] = {}
    for node in range(t.n_nodes()):
        depth = t.depths[node]
        if depth == 0:
            continue  # the root separates nothing
        if depth == k:
            w = Fraction(a[k - 1] ** p, 2)
        else:
            w = Fraction(a[depth - 1] ** p - a[depth] ** p, 2)
        assert w > 0, "strict decrease of level distances forces positive weights"
        weights[node] = w

    leaves = t.leaves()
    point_leaf = {t.leaf_points[leaf]: leaf for leaf in leaves}
    chains = {}
    for pt, leaf in point_leaf.items():
        chain = set()
        node = leaf
        while node != -1:
            chain.add(node)
            node = t.parents[node]
        chains[pt] = chain

    checks = []
    for i in range(x.n):
        for j in range(i + 1, x.n):
            sep = (chains[i] ^ chains[j]) - {0}
            lhs = sum(weights[node] for node in sep)
            rhs = x.d[i][j] ** p
            if lhs != rhs:
                raise AssertionError(
                    f"weight identity fails on pair ({i},{j}): {lhs} != {rhs}"
                )
            checks.append(((i, j), lhs, rhs))

    dim = len(weights)
    bound = x.n * (x.n + 1) // 2
    if dim > bound:
        raise AssertionError(f"dimension {dim} exceeds bound {bound}")
    return FichetReport(p, dim, weights, checks, bound)
