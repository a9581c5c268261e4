"""The tree-of-copies gluing space: coarse prefixes fattened to fine copies.

Starting from a prefix space with rational distances in (0,1], the coarse
space rounds every distance up to the grid {k/m}; the tree part collects the
index sets coding partial self-isometries of the coarse space, each glued to
its top point at distance 1/m and carrying the original fine metric along its
branches.  The capped path completion of that partial labelling is a metric
exactly because every irreducible cycle is metric, which at this finite scale
is checked exhaustively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .spaces import (
    FiniteMetricSpace,
    InvalidSpace,
    _complete_ints,
    _fraction_rows,
    _match,
    _rank_masks,
    _rank_rows,
    _scaled,
    as_fraction,
)


def ceil_to_grid(value: Fraction, m: int) -> Fraction:
    """Least element of {1/m, ..., m/m} at or above the value."""
    v = as_fraction(value)
    if not 0 < v <= 1:
        raise InvalidSpace(f"value {v} outside (0, 1]")
    k = -((-v.numerator * m) // v.denominator)  # ceil(v * m)
    return Fraction(k, m)


@dataclass
class HedgehogSpace:
    m: int
    prefix: FiniteMetricSpace          # original fine metric d
    coarse: FiniteMetricSpace          # ceiled metric on the same points
    tree_nodes: list                   # index subsets as sorted tuples
    labels: dict                       # partial labelling delta on Z
    dz: FiniteMetricSpace              # capped path completion
    base_count: int

    def pi(self, z: int) -> int:
        """Projection: tree node to its top base point; base points fixed."""
        if z < self.base_count:
            return z
        return max(self.tree_nodes[z - self.base_count])

    def branches(self) -> list:
        """Maximal end-extension chains of tree nodes, as Z indices.

        Every proper prefix of a tree node is a tree node, so the chains are
        the prefix chains (t[:1], ..., t) of the nodes that no node extends.
        Sorting those maximal nodes gives the depth-first order of the tree
        with children in increasing order: no maximal node is a prefix of
        another, so two of them first differ at a position where the walk
        takes the smaller entry first.
        """
        node_index = {t: self.base_count + i for i, t in enumerate(self.tree_nodes)}
        extended = {t[:-1] for t in self.tree_nodes}
        return [
            tuple(node_index[t[:k]] for k in range(1, len(t) + 1))
            for t in sorted(self.tree_nodes)
            if t not in extended
        ]


def hedgehog_build(
    m: int, prefix: FiniteMetricSpace, max_tree_size: int | None = None
) -> HedgehogSpace:
    """Glue the tree of coarse self-isometries onto the coarse prefix.

    The labelling: comparable tree nodes carry the fine distance of their top
    indices' positions, coarse points carry the ceiled metric, and each tree
    node sits at 1/m from its projection.  The returned metric is the capped
    (at 1) shortest-path completion, which must agree with every label:
    `spaces._complete_ints` raises InvalidSpace otherwise.  The ceiled metric
    needs no check: c <= a + b <= ceil(a) + ceil(b), on the 1/m grid, so
    ceil(c) <= that sum.

    The completion runs on ints, every label on one grid of 1/L, with L the
    lcm of m and the prefix's scale s: a prefix distance u/s ceils to
    ceil(u*m/s) steps of L/m, a fine distance is u*(L/s), the node-to-top
    label is L/m and the cap is L.  The graph is connected by construction:
    the base points are pairwise labelled and each node is labelled to its
    top point.
    """
    if m < 1:
        raise InvalidSpace("m must be a positive integer")
    if max_tree_size is not None and max_tree_size < 0:
        raise InvalidSpace(f"max tree size must be non-negative, got {max_tree_size}")
    n = prefix.n
    if max_tree_size is None:
        max_tree_size = n
    fine_rows, s = prefix._scaled_rows()
    if n and max(map(max, fine_rows)) > s:  # ceil_to_grid refuses the first distance above 1
        for v in chain.from_iterable(prefix.d):
            if v > 1:
                ceil_to_grid(v, m)
    grid = math.lcm(s, m)
    step, fine = grid // m, grid // s
    coarse_rows = tuple(tuple(-(-u * m // s) * step for u in row) for row in fine_rows)
    coarse = FiniteMetricSpace._from_rows(_fraction_rows(coarse_rows, grid))

    # increasing t with x_i -> x_{t_i} coarse-isometric, in combinations order:
    # each point's masks are cut to the points above it
    table, r = _rank_rows(coarse_rows)
    masks = _rank_masks(r, len(table))
    increasing = [[m & (-1 << (p + 1)) for m in row] for p, row in enumerate(masks)]
    tree_nodes = []
    for size in range(1, min(max_tree_size, n) + 1):
        _match(r[:size], increasing, [], lambda t: tree_nodes.append(tuple(t)))

    # tree nodes follow the base points, shorter nodes first, so every key
    # below is already (smaller index, larger index)
    node_index = {t: n + i for i, t in enumerate(tree_nodes)}
    ints = {(i, j): coarse_rows[i][j] for i, j in combinations(range(n), 2)}
    # comparable under end-extension: fine distance of the positions; every
    # proper prefix of a tree node is itself a tree node
    for t in tree_nodes:
        top, row = node_index[t], fine_rows[len(t) - 1]
        for j in range(1, len(t)):
            ints[node_index[t[:j]], top] = row[j - 1] * fine
    for t in tree_nodes:
        ints[max(t), node_index[t]] = step
    frac = {u: Fraction(u, grid) for u in set(ints.values())}
    labels = {pair: frac[u] for pair, u in ints.items()}

    dz = _complete_ints(n + len(tree_nodes), ints, "sum-cap", grid, grid)
    return HedgehogSpace(m, prefix, coarse, tree_nodes, labels, dz, n)


@dataclass
class HedgehogReport:
    labels_preserved: bool
    label_violations: list
    cycles_checked: int
    unexpected_cycle_shapes: list
    branches_verified: int
    branch_violations: list
    fattening_ok: bool

    def ok(self) -> bool:
        return (
            self.labels_preserved
            and not self.unexpected_cycle_shapes
            and not self.branch_violations
            and self.fattening_ok
        )

    def to_json_dict(self):
        return {
            "cyclesChecked": self.cycles_checked,
            "violations": [list(map(str, v)) for v in self.label_violations],
            "branchesVerified": self.branches_verified,
            "unexpectedShapes": self.unexpected_cycle_shapes,
            "labelsPreserved": self.labels_preserved,
            "fatteningOk": self.fattening_ok,
        }


def _cycle_shape(z: HedgehogSpace, cycle) -> str:
    """Classify an irreducible mixed cycle against the three expected forms."""
    base = [c for c in cycle if c < z.base_count]
    tree = [c for c in cycle if c >= z.base_count]
    if len(cycle) == 4 and len(base) == 2 and len(tree) == 2:
        return "two-base-comparable-pair"       # base, node, node, base
    if len(cycle) == 4 and len(base) == 1 and len(tree) == 3:
        return "one-base-fork"                  # base + incomparable pair over a fork
    if len(cycle) == 5 and len(base) == 2 and len(tree) == 3:
        return "two-base-fork"
    return f"unexpected({len(cycle)} nodes, {len(base)} base)"


def _chordless_cycles(total: int, labels: dict, max_cycle_len: int) -> list[tuple[int, ...]]:
    """The chordless cycles of at most max_cycle_len points of the graph of
    labels on range(total).

    Each chordless cycle is listed once, walked from its least point in the
    direction whose second point is below its last.  A chordless cycle is
    the only cycle on its points, so its two directions are its only
    repeats, and the walk over ascending neighbours meets that direction
    first.  A path stops at its first chord: it grows only by points
    adjacent to none of path[1:-1], and a last point adjacent to path[0]
    closes it.  The walk runs on neighbour bitsets: the next points are
    nbr[tail] less the path and the blocked points, those at or below the
    start and the neighbours of path[1:-1], taken by ascending bit.
    """
    nbr = [0] * total
    for a, b in labels:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    cycles = []

    def extend(path, on_path, blocked):
        tail = path[-1]
        if len(path) > 2 and nbr[tail] >> path[0] & 1:
            if path[1] < tail:
                cycles.append(tuple(path))
            return
        if len(path) >= max_cycle_len:
            return
        cands = nbr[tail] & ~(on_path | blocked)
        if len(path) > 1:  # tail is inside every longer path
            blocked |= nbr[tail]
        while cands:
            low = cands & -cands
            path.append(low.bit_length() - 1)
            extend(path, on_path | low, blocked)
            path.pop()
            cands ^= low

    for start in range(total):
        extend([start], 1 << start, (2 << start) - 1)
    return cycles


def hedgehog_verify(z: HedgehogSpace, max_cycle_len: int = 5) -> HedgehogReport:
    """Check the three finite-scale facts behind the gluing construction.

    (a) the completion preserves every label (the load-bearing equivalent of
    "every irreducible cycle is metric"); (b) irreducible chordless cycles up
    to length 5 that touch both parts match the three expected shapes and are
    metric; (c) every branch is isometric to its prefix of the fine space and
    stays within 1/m of its projections.

    The cycles are those of _chordless_cycles.
    """
    violations = []
    for (a, b), v in sorted(z.labels.items()):
        if z.dz.d[a][b] != v:
            violations.append((a, b, v, z.dz.d[a][b]))

    cycles = _chordless_cycles(z.dz.n, z.labels, max_cycle_len)

    # the cycle sums run on the labels and 1 scaled to ints once; a positive
    # scale keeps every comparison, and Fractions are built only for a violation
    ints, scale = _scaled([*z.labels.values(), Fraction(1)])
    one = ints[-1]
    int_labels = dict(zip(z.labels, ints))
    unexpected = []
    for cycle in cycles:
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        labs = [int_labels[(a, b) if a < b else (b, a)] for a, b in edges]
        # metricity of the cycle: every edge at most the sum of the others
        length = sum(labs)
        for (a, b), lab in zip(edges, labs):
            if lab > one or lab > length - lab:
                violations.append((a, b, Fraction(lab, scale), Fraction(length - lab, scale)))
        if min(cycle) < z.base_count <= max(cycle):
            shape = _cycle_shape(z, cycle)
            if shape.startswith("unexpected"):
                unexpected.append((cycle, shape))

    # element i of a branch is the tree node of length i + 1
    branch_violations = []
    branches = z.branches()
    for branch in branches:
        for i, j in combinations(range(len(branch)), 2):
            a, b = branch[i], branch[j]
            if z.dz.d[a][b] != z.prefix.d[i][j]:
                branch_violations.append((a, b, z.prefix.d[i][j], z.dz.d[a][b]))

    fattening_ok = True
    step = Fraction(1, z.m)
    for branch in branches:
        proj = {z.pi(a) for a in branch}
        for a in branch:
            if not any(z.dz.d[a][p] <= step for p in proj):
                fattening_ok = False

    return HedgehogReport(
        labels_preserved=not violations,
        label_violations=violations,
        cycles_checked=len(cycles),
        unexpected_cycle_shapes=unexpected,
        branches_verified=len(branches),
        branch_violations=branch_violations,
        fattening_ok=fattening_ok,
    )
