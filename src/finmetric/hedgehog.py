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

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .spaces import (
    EdgeLabelledGraph,
    FiniteMetricSpace,
    InvalidSpace,
    as_fraction,
    complete,
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

    def node_name(self, z: int) -> str:
        if z < self.base_count:
            return f"x{z}"
        return "{" + ",".join(map(str, self.tree_nodes[z - self.base_count])) + "}"

    def pi(self, z: int) -> int:
        """Projection: tree node to its top base point; base points fixed."""
        if z < self.base_count:
            return z
        return max(self.tree_nodes[z - self.base_count])

    def branches(self) -> list:
        """Maximal end-extension chains of tree nodes, as Z indices."""
        node_index = {t: self.base_count + i for i, t in enumerate(self.tree_nodes)}
        children = {t: [] for t in self.tree_nodes}
        roots = []
        for t in self.tree_nodes:
            if len(t) == 1:
                roots.append(t)
            else:
                parent = t[:-1]
                if parent in children:
                    children[parent].append(t)
        out = []

        def walk(t, chain):
            chain = chain + [node_index[t]]
            if not children[t]:
                out.append(tuple(chain))
                return
            for c in children[t]:
                walk(c, chain)

        for root in roots:
            walk(root, [])
        return out


def _is_partial_isometry(coarse: FiniteMetricSpace, t) -> bool:
    """Does x_i -> x_{t_i} preserve the coarse metric on the first |t| points?"""
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            if coarse.d[t[i]][t[j]] != coarse.d[i][j]:
                return False
    return True


def hedgehog_build(
    m: int, prefix: FiniteMetricSpace, max_tree_size: int | None = None
) -> HedgehogSpace:
    """Glue the tree of coarse self-isometries onto the coarse prefix.

    The labelling: comparable tree nodes carry the fine distance of their top
    indices' positions, coarse points carry the ceiled metric, and each tree
    node sits at 1/m from its projection.  The returned metric is the capped
    (at 1) shortest-path completion, which must agree with every label:
    `complete` raises InvalidSpace otherwise.
    """
    if m < 1:
        raise InvalidSpace("m must be a positive integer")
    n = prefix.n
    if max_tree_size is None:
        max_tree_size = n
    coarse_rows = [
        [ceil_to_grid(prefix.d[i][j], m) if i != j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    coarse = FiniteMetricSpace(coarse_rows)

    tree_nodes = []
    for size in range(1, min(max_tree_size, n) + 1):
        for t in itertools.combinations(range(n), size):
            if _is_partial_isometry(coarse, t):
                tree_nodes.append(t)

    base = n
    total = base + len(tree_nodes)
    node_index = {t: base + i for i, t in enumerate(tree_nodes)}

    labels: dict[tuple[int, int], Fraction] = {}

    def put(a, b, v):
        labels[(min(a, b), max(a, b))] = v

    for i in range(n):
        for j in range(i + 1, n):
            put(i, j, coarse.d[i][j])
    for s, t in itertools.combinations(tree_nodes, 2):
        small, big = (s, t) if len(s) <= len(t) else (t, s)
        if len(small) != len(big) and big[: len(small)] == small:
            # comparable under end-extension: fine distance of the positions
            put(
                node_index[small],
                node_index[big],
                prefix.d[len(small) - 1][len(big) - 1],
            )
    for t in tree_nodes:
        put(node_index[t], max(t), Fraction(1, m))

    dz = complete(EdgeLabelledGraph(total, labels), "sum-cap", 1)
    return HedgehogSpace(m, prefix, coarse, tree_nodes, labels, dz, base)


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


def hedgehog_verify(z: HedgehogSpace, max_cycle_len: int = 5) -> HedgehogReport:
    """Check the three finite-scale facts behind the gluing construction.

    (a) the completion preserves every label (the load-bearing equivalent of
    "every irreducible cycle is metric"); (b) irreducible chordless cycles up
    to length 5 that touch both parts match the three expected shapes and are
    metric; (c) every branch is isometric to its prefix of the fine space and
    stays within 1/m of its projections.
    """
    violations = []
    for (a, b), v in sorted(z.labels.items()):
        if z.dz.d[a][b] != v:
            violations.append((a, b, v, z.dz.d[a][b]))

    total = z.dz.n
    adj = {a: set() for a in range(total)}
    for (a, b) in z.labels:
        adj[a].add(b)
        adj[b].add(a)

    def chordless(path) -> bool:
        length = len(path)
        for i in range(length):
            for j in range(i + 1, length):
                if (j - i) % length in (1, length - 1):
                    continue
                if path[j] in adj[path[i]]:
                    return False
        return True

    cycles = []
    seen = set()

    def extend(path):
        if len(path) > max_cycle_len:
            return
        tail = path[-1]
        for nxt in sorted(adj[tail]):
            if nxt == path[0] and len(path) >= 3:
                key = frozenset(path)
                if key not in seen and chordless(path):
                    seen.add(key)
                    cycles.append(tuple(path))
            elif nxt > path[0] and nxt not in path:
                extend(path + [nxt])

    for start in range(total):
        extend([start])

    unexpected = []
    checked = 0
    for cycle in cycles:
        has_base = any(c < z.base_count for c in cycle)
        has_tree = any(c >= z.base_count for c in cycle)
        # metricity of the cycle: every edge at most the sum of the others
        length = sum(
            z.labels[(min(a, b), max(a, b))]
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        )
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            lab = z.labels[(min(a, b), max(a, b))]
            if lab > min(Fraction(1), length - lab):
                violations.append((a, b, lab, length - lab))
        checked += 1
        if has_base and has_tree:
            shape = _cycle_shape(z, cycle)
            if shape.startswith("unexpected"):
                unexpected.append((cycle, shape))

    branch_violations = []
    branches = z.branches()
    for branch in branches:
        for ai, a in enumerate(branch):
            for b in branch[ai + 1 :]:
                ta = z.tree_nodes[a - z.base_count]
                tb = z.tree_nodes[b - z.base_count]
                want = z.prefix.d[len(ta) - 1][len(tb) - 1]
                if z.dz.d[a][b] != want:
                    branch_violations.append((a, b, want, z.dz.d[a][b]))

    fattening_ok = True
    for branch in branches:
        proj = {z.pi(a) for a in branch}
        for a in branch:
            if not any(z.dz.d[a][p] <= Fraction(1, z.m) for p in proj):
                fattening_ok = False

    return HedgehogReport(
        labels_preserved=not violations,
        label_violations=violations,
        cycles_checked=checked,
        unexpected_cycle_shapes=unexpected,
        branches_verified=len(branches),
        branch_violations=branch_violations,
        fattening_ok=fattening_ok,
    )
