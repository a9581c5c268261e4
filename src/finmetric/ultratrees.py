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
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    _check_distances,
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
        lv = self.level_distances = _levels(self.level_distances)
        k = len(lv)
        n_nodes = len(self.parents)
        if not n_nodes or len(self.depths) != n_nodes or self.parents[0] != -1 or self.depths[0]:
            raise InvalidSpace("node 0 must be the root, at depth 0, and every node needs a depth")
        # each node one level below its parent: the parent walk then ends at node 0
        for node in range(1, n_nodes):
            par = self.parents[node]
            if par == -1:
                raise InvalidSpace(f"node {node} is a second root")
            if not 0 <= par < n_nodes or self.depths[node] != self.depths[par] + 1:
                raise InvalidSpace(f"node {node} does not sit one level below its parent")
            if self.depths[node] > k:
                raise InvalidSpace(f"node {node} lies below the leaf depth {k}")
        for leaf in self.leaf_points:
            if not 0 <= leaf < n_nodes or self.depths[leaf] != k:
                raise InvalidSpace(f"leaf {leaf} is not a node at depth {k}")
        children = self.children()
        for node, depth in enumerate(self.depths):
            if depth < k and not children[node]:
                raise InvalidSpace(f"internal node {node} at depth {depth} has no child")
            if depth == k and node not in self.leaf_points:
                raise InvalidSpace(f"maximal node {node} is not a leaf")
        if set(self.leaf_points.values()) != set(range(len(self.leaf_points))):
            raise InvalidSpace("leaf points must number the leaves 0, 1, ..., one point each")

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


def _levels(values) -> tuple:
    """The values as Fractions, which must be strictly decreasing and positive."""
    lv = tuple(as_fraction(v) for v in values)
    if any(lv[i] <= lv[i + 1] for i in range(len(lv) - 1)):
        raise InvalidSpace("level distances must be strictly decreasing")
    if any(v <= 0 for v in lv):
        raise InvalidSpace("level distances must be positive")
    return lv


def tree_of_space(x: FiniteMetricSpace) -> UltraTree:
    """The ball tree of an ultrametric space; leaves carry the points."""
    if x.n == 0:
        raise InvalidSpace("the empty space has no ball tree")
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
    level treated as 0, i.e. singleton leaves at depth len(levels).  A
    class is taken as the points within the threshold of its first member,
    so closeness must be transitive at every level.
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
        classes = []  # each led by its seed, the first member in the order
        for q in members:
            for cls in classes:
                if thr is not None and x.d[cls[0]][q] <= thr:
                    cls.append(q)
                    break
            else:
                classes.append([q])
        for cls in classes:
            child = len(parents)
            parents.append(node)
            depths.append(depth + 1)
            rec(child, cls, depth + 1)

    rec(0, list(range(x.n)), 0)
    return parents, depths, leaf_points


def _ancestor_sets(t: UltraTree) -> list[set]:
    """For each leaf in sorted order, the nodes on its path to the root."""
    out = []
    for node in t.leaves():
        chain = set()
        while node != -1:
            chain.add(node)
            node = t.parents[node]
        out.append(chain)
    return out


def space_of_tree(t: UltraTree) -> FiniteMetricSpace:
    """Inverse of tree_of_space up to isometry: d(leaf, leaf) = a_(lca depth), an
    ultrametric over a validated tree's decreasing positive levels.  A path has one
    node per depth, so the lca depth is the number of common ancestors less one."""
    ancestors = _ancestor_sets(t)
    n = len(ancestors)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for a, b in itertools.combinations(range(n), 2):
        lca_depth = len(ancestors[a] & ancestors[b]) - 1
        rows[a][b] = rows[b][a] = t.level_distances[lca_depth]
    return FiniteMetricSpace._from_rows(tuple(map(tuple, rows)))


def convex_orderings_count(x: FiniteMetricSpace) -> int:
    """Number of linear orderings keeping every metric ball an interval.

    The balls are the nodes of the ball tree, so this is the product of
    (child count)! over its nodes.
    """
    return _block_orderings(tree_of_space(x).parents)


def _block_orderings(parents) -> int:
    """Orderings keeping every node of a class tree an interval.

    Such an ordering orders the children of every node as blocks, so the
    count is the product of (number of children)! over the nodes.
    """
    children = [0] * len(parents)
    for par in parents[1:]:
        children[par] += 1
    return math.prod(map(math.factorial, children))


def _tree_automorphisms(t: UltraTree) -> int:
    """Automorphisms of a ball tree, which are the isometries of its space."""
    children = t.children()

    def shape_and_aut(node):
        if not children[node]:
            return ("leaf",), 1
        pairs = sorted((shape_and_aut(c) for c in children[node]), key=lambda p: p[0])
        shapes = tuple(p[0] for p in pairs)
        aut = math.prod(a for _, a in pairs)
        for _, group in itertools.groupby(shapes):
            aut *= math.factorial(len(list(group)))
        return ("node", shapes), aut

    return shape_and_aut(0)[1]


@dataclass(frozen=True)
class DegreeRecord:
    orderings: int
    iso: int
    degree: int


def _degree_record(name: str, orderings: int, iso: int) -> DegreeRecord:
    """The Ramsey degree of the ordering class `name`: its orderings over |iso|.

    iso divides the count: the isometry group acts freely on any class of
    orderings that it preserves, for only the identity fixes an ordering."""
    if orderings % iso:
        raise AssertionError(f"|iso|={iso} does not divide |{name}|={orderings}")
    return DegreeRecord(orderings, iso, orderings // iso)


def ramsey_degree_ultrametric(x: FiniteMetricSpace) -> DegreeRecord:
    """Ramsey degree of an ultrametric space: convex orderings over isometries, on one tree."""
    t = tree_of_space(x)
    return _degree_record("cLO", _block_orderings(t.parents), _tree_automorphisms(t))


def comb_space(n: int, distances=None) -> FiniteMetricSpace:
    """The comb: all branching nodes on one branch; distances a_0 > ... > a_(n-2),
    and d(i, j) = a_min(i, j) is an ultrametric over those decreasing positive levels."""
    if n < 2:
        return FiniteMetricSpace.single_point()
    if distances is None:
        distances = list(range(n - 1, 0, -1))
    levels = _levels(distances)
    if len(levels) != n - 1:
        raise InvalidSpace("a comb with n leaves uses n-1 distances")
    # leaf i splits off at depth i
    return FiniteMetricSpace._from_rows(tuple(
        tuple(levels[min(i, j)] if i != j else Fraction(0) for j in range(n)) for i in range(n)))


# --- big Ramsey degrees -----------------------------------------------------

def ambient_tree_nodes(x: FiniteMetricSpace, s: DistanceSet):
    """Parent list of the downward closure of x through all |S| levels.

    Nodes at depth j are classes of d <= b_j (b = S descending, b_|S| = 0),
    including pass-through chain nodes at levels where x does not branch.
    Returns (parents, depths); node 0 is the root.
    """
    _check_distances(x, s)
    parents, depths, _ = _class_tree(x, sorted(s.values, reverse=True))
    return parents, depths


def linear_extensions_tree(parents) -> int:
    """Linear extensions of a rooted tree via the hook length formula.

    e(T) = n! / prod of subtree sizes.
    """
    n = len(parents)
    size = [1] * n
    for node in range(n - 1, 0, -1):
        size[parents[node]] += size[node]
    return math.factorial(n) // math.prod(size)


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
    coordinates (p-th roots) are never materialized.  The sums run on ints:
    x's int view at scale s turns each weight into an int over 2 s^p, one
    per depth, and d(x,y)^p into one over s^p; Fractions are built only for
    the report, one per depth and one per distance.
    """
    if not isinstance(p, int) or p < 1:
        raise InvalidSpace("p must be a positive integer")
    t = tree_of_space(x)
    k = t.height
    m, scale = x._scaled_rows()
    a = [v.numerator * (scale // v.denominator) for v in t.level_distances]
    # per depth, the weight of its nodes times 2 s^p; the root separates nothing
    by_depth = [0, *(a[j - 1] ** p - a[j] ** p for j in range(1, k)), a[k - 1] ** p]
    unit = 2 * scale ** p
    fracs = {w: Fraction(w, unit) for w in by_depth}
    ints = [by_depth[depth] for depth in t.depths]  # only node 0, the root, has depth 0
    for node in range(1, len(ints)):
        if ints[node] <= 0:  # strictly decreasing level distances forbid it
            raise AssertionError(f"weight {fracs[ints[node]]} of node {node} is not positive")
    weights = {node: fracs[w] for node, w in enumerate(ints) if node}

    chains = {t.leaf_points[leaf]: chain for leaf, chain in zip(t.leaves(), _ancestor_sets(t))}
    powers = {u: (2 * u ** p, Fraction(u, scale) ** p) for u in set().union(*m)}

    checks = []
    for i, j in itertools.combinations(range(x.n), 2):
        lhs = sum(map(ints.__getitem__, chains[i] ^ chains[j]))  # the root is on both chains
        rhs, power = powers[m[i][j]]
        if lhs != rhs:
            raise AssertionError(f"weight identity fails on pair ({i},{j}): "
                                 f"{Fraction(lhs, unit)} != {power}")
        checks.append(((i, j), power, power))

    dim = len(weights)
    bound = x.n * (x.n + 1) // 2
    if dim > bound:
        raise AssertionError(f"dimension {dim} exceeds bound {bound}")
    return FichetReport(p, dim, weights, checks, bound)
