"""Seeded corpora for the four benchmark workloads.

A corpus is a list of passes; each pass is a list of `Op`s built from
`random.Random(f"{workload}:{seed}:{pass}")`, so the same seed always gives
the same inputs and every pass draws fresh ones (distinct inputs keep a
cross-call cache honest: only the repeats that a pass itself contains can
hit).  Ops call the library through module attributes looked up at call
time, so the tracer's rebinding reaches them.  The closure workload builds
spaces first and derives its queries from those builds; `Pass.follow`
produces them once the builds are done.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Callable

import checks

WORKLOADS = ("amalgamation", "closure", "symmetry", "codings")
MAX_PASSES = 12


@dataclass
class Op:
    name: str                      # op kind, or the baseline row it times
    top: str                       # trace tag of the top-level op family
    call: Callable[[], Any]
    check: Callable[[Any, Any], str | None] = checks.no_exception


@dataclass
class Pass:
    ops: list
    follow: Callable[[list], list] | None = None  # closure queries from builds


class Lib:
    """The finmetric modules, resolved from the checkout's own `src`."""

    def __init__(self, fm):
        import finmetric.cli

        self.fm = fm
        self.spaces = fm.spaces
        self.four_values = fm.four_values
        self.katetov = fm.katetov
        self.ultratrees = fm.ultratrees
        self.ramsey = fm.ramsey
        self.partitions = fm.partitions
        self.hedgehog = fm.hedgehog
        self.milliken = fm.milliken
        self.cli = finmetric.cli


# --- small input generators (benchmark code, no library calls) --------------

def _half(rng, lo, hi):
    """A multiple of 1/2 in [lo, hi]."""
    return F(rng.randint(2 * lo, 2 * hi), 2)


def narrow_set(rng, k):
    """k values in [m, 2m]: every quadruple is good, so the scan runs in full."""
    m = max(k // 2 + 1, rng.choice((3, 4, 5, 6)))
    return sorted(rng.sample([F(j, 2) for j in range(2 * m, 4 * m + 1)], k))


def progression_set(rng, k):
    a = rng.choice((F(1), F(2), F(1, 2), F(3, 2), F(1, 3)))
    return [a * i for i in range(1, k + 1)]


def random_set(rng, k):
    vals = [F(v) for v in rng.sample(range(1, 3 * k + 1), k)]
    if rng.random() < 0.4:
        vals = [v / 2 for v in vals]
    return sorted(vals)


def random_space_rows(rng, n, window):
    """Symmetric matrix with entries drawn from a window with max <= 2 min (always metric)."""
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(window)
    return rows


def ultrametric_rows(rng, n, levels):
    """Random ultrametric on n points: split classes top-down over decreasing levels."""
    rows = [[F(0)] * n for _ in range(n)]

    def split(members, depth):
        if len(members) < 2:
            return
        if depth == len(levels) - 1:
            for a, b in itertools.combinations(members, 2):
                rows[a][b] = rows[b][a] = levels[depth]
            return
        parts = [[] for _ in range(rng.choice((2, 2, 3)))]
        for p in members:
            parts[rng.randrange(len(parts))].append(p)
        parts = [p for p in parts if p]
        for pa, pb in itertools.combinations(parts, 2):
            for a in pa:
                for b in pb:
                    rows[a][b] = rows[b][a] = levels[depth]
        for p in parts:
            split(p, depth + 1)

    split(list(range(n)), 0)
    return rows


def grid_rows(levels, arity):
    pts = list(itertools.product(range(arity), repeat=len(levels)))
    n = len(pts)
    rows = [[F(0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            delta = next(i for i in range(len(levels)) if pts[a][i] != pts[b][i])
            rows[a][b] = rows[b][a] = levels[delta]
    return rows


def comb_rows(n, levels):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = levels[i]
    return rows


def rows_text(rows):
    return f"points: {len(rows)}\n" + "".join(" ".join(checks.frac_text(v) for v in r) + "\n" for r in rows)


def graph_text(n, labels):
    out = [f"points: {n}"]
    for i in range(n):
        out.append(" ".join(
            "0" if i == j else (checks.frac_text(labels[(min(i, j), max(i, j))]) if (min(i, j), max(i, j)) in labels else "?")
            for j in range(n)
        ))
    return "\n".join(out) + "\n"


class Files:
    """CLI input files of one corpus, written under the run's work directory."""

    def __init__(self, root):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def write(self, text):
        path = os.path.join(self.root, f"in{self.count}.txt")
        self.count += 1
        with open(path, "w") as fh:
            fh.write(text)
        return path


def cli_op(lib, name, top, argv, check=checks.cli_exit_ok):
    return Op(name, top, lambda: checks.run_cli(lib.cli.main, argv), check)


# --- amalgamation ------------------------------------------------------------

AMALG_SIZES = [3] * 7 + [4] * 7 + [5] * 6 + [6] * 5 + [7] * 4 + [8] * 3 + [9, 10]
KINDS = ("narrow", "random", "progression", "random")


def _amalgam_inputs(rng, lib, svals):
    """Two S-spaces sharing 1-3 points, drawn from a window of S (always metric)."""
    lo = rng.choice(svals)
    window = [v for v in svals if lo <= v <= 2 * lo]
    c, a, b = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    n = c + a + b
    rows = random_space_rows(rng, n, window)
    common, ex0, ex1 = list(range(c)), list(range(c, c + a)), list(range(c + a, n))
    pts0 = common + ex0
    pts1 = ex1 + common
    rng.shuffle(pts1)
    y0 = lib.spaces.FiniteMetricSpace([[rows[i][j] for j in pts0] for i in pts0])
    y1 = lib.spaces.FiniteMetricSpace([[rows[i][j] for j in pts1] for i in pts1])
    x0 = [pts0.index(p) for p in common]
    x1 = [pts1.index(p) for p in common]
    return y0, y1, x0, x1


def amalgamation_pass(rng, lib, files):
    fv, sp, ra = lib.four_values, lib.spaces, lib.ramsey
    ops = []
    full = sp.DistanceSet(range(1, 13))
    ops.append(Op("check4v/1..12", "check", lambda: fv.check_four_values(full),
                  checks.four_values(full)))
    ops.append(Op("badquads/1..12", "badquads", lambda: fv.bad_quadruples(full),
                  checks.bad_quadruples(full)))
    for idx, k in enumerate(AMALG_SIZES):
        kind = KINDS[idx % len(KINDS)]
        vals = {"narrow": narrow_set, "progression": progression_set,
                "random": random_set}[kind](rng, k)
        s = sp.DistanceSet(vals)
        ops.append(Op("four_values.check_four_values", "check",
                      lambda s=s: fv.check_four_values(s), checks.four_values(s)))
        if k <= 8:
            ops.append(Op("four_values.bad_quadruples", "badquads",
                          lambda s=s: fv.bad_quadruples(s), checks.bad_quadruples(s)))
        ops.append(Op("ramsey.critical_distances", "criticals",
                      lambda s=s: ra.critical_distances(s), checks.criticals(s)))
        scale = rng.choice((F(2), F(1, 2), F(3)))
        other = [v * scale for v in vals]
        if rng.random() < 0.5:
            other[rng.randrange(k)] += F(1, 3)
        t = sp.DistanceSet(other)
        ops.append(Op("four_values.similar", "similar",
                      lambda s=s, t=t: fv.similar(s, t), checks.similar(s, t)))
        # holding-by-construction sets are reused across several amalgamations
        for _ in range(2 if kind != "random" else 1):
            y0, y1, x0, x1 = _amalgam_inputs(rng, lib, vals)
            ops.append(Op("four_values.amalgamate", "amalgamate",
                          lambda s=s, y0=y0, y1=y1, x0=x0, x1=x1: fv.amalgamate(s, y0, y1, x0, x1),
                          checks.amalgamate(s, y0, y1, x0, x1)))
        # every set also goes through `criticals` on the CLI: these calls cost
        # alike (mostly argument parsing) and sit across the median of a pass
        toks = [checks.frac_text(v) for v in vals]
        ops.append(cli_op(lib, "cli.criticals", "cli", ["--json", "criticals", *toks]))
        if idx % 4 == 0 and k <= 7:
            ops.append(cli_op(lib, "cli.check4v", "cli", ["--json", "check4v", *toks],
                              checks.cli_four_values(s)))
            ops.append(cli_op(lib, "cli.similar", "cli",
                              ["--json", "similar", *toks, "--", *[checks.frac_text(v) for v in other]]))
            if k <= 6:
                ops.append(cli_op(lib, "cli.badquads", "cli", ["--json", "badquads", *toks]))
            y0, y1, x0, x1 = _amalgam_inputs(rng, lib, vals)
            argv = ["--json", "amalgamate", *toks,
                    "--y0", files.write(rows_text(y0.d)), "--y1", files.write(rows_text(y1.d)),
                    "--x0", ",".join(map(str, x0)), "--x1", ",".join(map(str, x1))]
            ops.append(cli_op(lib, "cli.amalgamate", "cli", argv, checks.cli_amalgamate(s)))
    return Pass(ops)


# --- closure -----------------------------------------------------------------

CLOSURE_BASES = (
    (F(1), F(2)), (F(1), F(2), F(3)), (F(2), F(3)), (F(1), F(3, 2), F(2)),
    (F(2), F(3), F(4)), (F(1),),
)


def _closure_builds(rng):
    """(name, S values, size_cap, max_points, rng seed) for one pass."""
    builds = [
        ("urysohn/{1,2,3}/cap3", (F(1), F(2), F(3)), 3, 16, 0),
        ("urysohn/{1,2}/cap4", (F(1), F(2)), 4, 9, 0),
    ]
    # the fourteen |S| = 3 builds cost alike and straddle the 95th percentile
    schedule = [(3, 11)] * 14 + [(2, 11)] * 4 + [(1, 11)] * 2 + [(2, 7, 4)] * 2
    for slot, entry in enumerate(schedule):
        size, max_points = entry[0], entry[1]
        cap = entry[2] if len(entry) > 2 else 3
        bases = [b for b in CLOSURE_BASES if len(b) == size]
        base = bases[slot % len(bases)]  # fixed per slot; scale and closure seed vary
        scale = rng.choice((F(1), F(2), F(1, 2), F(3)))
        builds.append(("katetov.urysohn_approx", tuple(v * scale for v in base), cap,
                       max_points, rng.randrange(1000)))
    return builds


def closure_pass(rng, lib, files):
    ka, sp = lib.katetov, lib.spaces
    ops = []
    for name, vals, cap, max_points, seed in _closure_builds(rng):
        s = sp.DistanceSet(vals)
        cfg = sp.Config(urysohn_max_points=max_points)
        ops.append(Op(name, "build",
                      lambda s=s, cap=cap, cfg=cfg, seed=seed: ka.urysohn_approx(s, cap, cfg, seed=seed),
                      checks.urysohn(s, max_points)))
    # CLI slice on benchmark-made S-spaces
    for _ in range(6):
        svals = list(rng.choice(CLOSURE_BASES))
        n = rng.randint(5, 9)
        lo = svals[0]
        window = [v for v in svals if v <= 2 * lo]
        rows = random_space_rows(rng, n, window)
        path = files.write(rows_text(rows))
        p = rng.randrange(n)
        f = [rows[p][j] if j != p else lo for j in range(n)]
        ops.append(cli_op(lib, "cli.katetov", "cli",
                          ["--json", "katetov", "--space", path, "--values", ",".join(map(checks.frac_text, f))]))
        ops.append(cli_op(lib, "cli.extend", "cli",
                          ["--json", "extend", "--space", path, "--values", ",".join(map(checks.frac_text, f))]))
    a = rng.choice((1, 2, 3))
    ops.append(cli_op(lib, "cli.urysohn", "cli", ["--json", "urysohn", str(a), str(2 * a), "--cap", "3",
                                                   "--seed", str(rng.randrange(100))]))
    qrng = random.Random(rng.random())
    return Pass(ops, follow=lambda outcomes: closure_queries(qrng, lib, outcomes))


def _realized(x, sub, f):
    return any(all(x.d[y][s] == f[k] for k, s in enumerate(sub)) for y in range(x.n))


def closure_queries(rng, lib, outcomes):
    """Queries on each built space: realized, unrealized and non-Katetov maps.

    Per build: a `realizers` call and an `is_katetov` or `shortest_extension`
    call (their maps cycle through realized, unrealized and non-Katetov by
    slot), `extend_with` with valid maps over fresh subsets (eight on the 11-point
    spaces, one on the others) and, on every fourth slot, with a non-Katetov map.  The
    extensions of the 11-point spaces cost alike and outnumber the cheaper
    and the dearer ops, so p50 falls inside them, away from the edge between
    two kinds of query.
    """
    ka, sp = lib.katetov, lib.spaces
    ops = []
    builds = [(op, outcome) for op, outcome in outcomes if op.top == "build"]
    for slot, (op, (status, value)) in enumerate(builds):
        if status == "ok":
            x = value[0]
        elif getattr(value, "space", None) is not None:
            x = value.space
        else:
            continue
        if x.n < 2:
            continue
        svals = sorted({x.d[i][j] for i in range(x.n) for j in range(i + 1, x.n)})
        size = min(1 + slot % 3, x.n - 1)
        sub = sorted(rng.sample(range(x.n), size))
        p = rng.choice([y for y in range(x.n) if y not in sub])
        f_real = [x.d[p][s] for s in sub]
        f_un = f_real
        for _try in range(40):
            f = [rng.choice(svals) for _ in sub]
            if checks.katetov_oracle(x.d, sub, f) and not _realized(x, sub, f):
                f_un = f
                break
        f_bad = list(f_real)
        if size == 1:
            f_bad[0] = -f_bad[0]
        else:
            f_bad[0] = f_bad[1] + x.d[sub[0]][sub[1]] + svals[0]
        subx = sp.FiniteMetricSpace([[x.d[i][j] for j in sub] for i in sub], check=False)
        f_check = (f_real, f_bad)[slot // 2 % 2]
        f_find = (f_real, f_un, f_bad)[slot % 3]
        f_short = (f_un, f_bad)[slot // 2 % 2]
        ops.append(Op("katetov.realizers", "query", lambda x=x, f=f_find, sub=sub: ka.realizers(x, sub, f),
                      checks.realizers(x, sub, f_find)))
        if slot % 2:
            ops.append(Op("katetov.is_katetov", "query", lambda a=subx, f=f_check: ka.is_katetov(a, f),
                          checks.is_katetov(subx, f_check)))
        else:
            ops.append(Op("katetov.shortest_extension", "query",
                          lambda x=x, f=f_short, sub=sub: ka.shortest_extension(x, sub, f),
                          checks.shortest_extension(x, sub, f_short)))
        for e in range(8 if x.n == 11 else 1):
            esub = sorted(rng.sample(range(x.n), min(1 + (slot + e) % 3, x.n - 1)))
            f = [x.d[rng.choice([y for y in range(x.n) if y not in esub])][s] for s in esub]
            for _try in range(20):
                trial = [rng.choice(svals) for _ in esub]
                if checks.katetov_oracle(x.d, esub, trial):
                    f = trial
                    break
            g = [min(x.d[y][s] + f[k] for k, s in enumerate(esub)) for y in range(x.n)]
            ops.append(Op("katetov.extend_with", "query", lambda x=x, g=g: ka.extend_with(x, g),
                          checks.extend_with(x, g)))
        if slot % 4 == 0:
            g_bad = [min(x.d[y][s] + f_real[k] for k, s in enumerate(sub)) for y in range(x.n)]
            g_bad[0] += 2 * max(max(r) for r in x.d) + 1
            ops.append(Op("katetov.extend_with", "query", lambda x=x, g=g_bad: ka.extend_with(x, g),
                          checks.extend_with(x, g_bad)))
    return ops


# --- symmetry ----------------------------------------------------------------

def symmetry_pass(rng, lib, files):
    sp, ra, ut, pa = lib.spaces, lib.ramsey, lib.ultratrees, lib.partitions
    FMS = sp.FiniteMetricSpace
    ops = []
    eq8 = FMS.equilateral(8, 1)
    ops.append(Op("iso/equilateral-8", "iso", lambda: sp.isometries(eq8), checks.isometries(eq8)))
    ops.append(Op("canon/equilateral-8", "canon", lambda: sp.canonicalize(eq8), checks.canonicalize(eq8)))

    spaces = []  # (family, rows, ultrametric levels or None)
    for n in (5, 6, 7, 8, 9, 10, 6, 8):
        a = rng.choice((2, 3, 4))
        window = [F(a), F(a + 1)] if rng.random() < 0.5 else [F(a), F(a + 1), F(2 * a)]
        spaces.append(("random", random_space_rows(rng, n, window), None))
    for n in (5, 6, 7, 5, 6, 7):
        a = _half(rng, 1, 4)
        spaces.append(("equilateral", [[F(0) if i == j else a for j in range(n)] for i in range(n)], None))
    for levels_n, arity in ((2, 2), (3, 2), (2, 3), (3, 2)):
        top = rng.randint(4, 8)
        levels = sorted(rng.sample(range(1, top + 1), levels_n), reverse=True)
        levels = [F(v) for v in levels]
        spaces.append(("grid", grid_rows(levels, arity), levels))
    for n in (5, 6, 7, 8):
        levels = [F(v) for v in sorted(rng.sample(range(1, 12), n - 1), reverse=True)]
        spaces.append(("comb", comb_rows(n, levels), levels))
    for n in (6, 7):
        levels = [F(v) for v in sorted(rng.sample(range(1, 9), 3), reverse=True)]
        spaces.append(("ultrametric", ultrametric_rows(rng, n, levels), levels))

    for family, rows, levels in spaces:
        x = FMS(rows)
        n = x.n
        dvals = sorted({rows[i][j] for i in range(n) for j in range(i + 1, n)})
        s = sp.DistanceSet(dvals)
        ops.append(Op("spaces.isometries", "iso", lambda x=x: sp.isometries(x), checks.isometries(x)))
        ops.append(Op("spaces.canonicalize", "canon", lambda x=x: sp.canonicalize(x), checks.canonicalize(x)))
        ops.append(Op("spaces.canonical_key", "canon", lambda x=x: sp.canonical_key(x), checks.no_exception))
        sub = sorted(rng.sample(range(n), 3))
        present = x.submetric(sub)
        absent = FMS.equilateral(3, dvals[-1] + 1)
        ops.append(Op("spaces.copies", "copies", lambda x=x, t=present: sp.copies(x, t),
                      checks.copies(x, present)))
        ops.append(Op("spaces.copies", "copies", lambda x=x, t=absent: sp.copies(x, t),
                      checks.copies(x, absent)))
        ops.append(Op("ramsey.ramsey_degree_general", "degree",
                      lambda x=x: ra.ramsey_degree_general(x), checks.degree_general(x)))
        if n <= 8 and family != "equilateral" or n <= 6:
            ops.append(Op("ramsey.ramsey_degree_metric_ordered", "degree",
                          lambda x=x, s=s: ra.ramsey_degree_metric_ordered(x, s), checks.no_exception))
        if n <= 6 and family != "equilateral" or n <= 5:
            ops.append(Op("ramsey.order_types", "orders", lambda x=x: ra.order_types(x),
                          checks.order_types(x)))
        if levels is not None:
            big = sp.DistanceSet(list(levels) + [levels[0] + 1])
            ops.append(Op("ultratrees.ramsey_degree_ultrametric", "degree",
                          lambda x=x: ut.ramsey_degree_ultrametric(x), checks.degree_ultrametric(x)))
            ops.append(Op("ultratrees.big_ramsey_degree", "degree",
                          lambda x=x, big=big: ut.big_ramsey_degree(x, big), checks.no_exception))
            p = rng.choice((1, 2, 3))
            ops.append(Op("ultratrees.fichet_embedding", "fichet",
                          lambda x=x, p=p: ut.fichet_embedding(x, p), checks.no_exception))
            if n <= 7:
                small = x.submetric(sorted(rng.sample(range(n), 2)))
                ops.append(Op("ramsey.verify_ordering_property_witness", "orderprop",
                              lambda x=x, small=small: ra.verify_ordering_property_witness(x, small, (0, 1), "convex"),
                              checks.no_exception))
        if n <= 6:
            tri = x.submetric(sorted(rng.sample(range(n), 3)))
            order = rng.sample(range(3), 3)
            for cls in ("all", "metric"):
                ops.append(Op("ramsey.verify_ordering_property_witness", "orderprop",
                              lambda x=x, tri=tri, order=order, cls=cls, s=s:
                              ra.verify_ordering_property_witness(x, tri, order, cls, s),
                              checks.no_exception))
        if family == "random" and n <= 8:
            target = x.submetric(sorted(rng.sample(range(n), 2)))
            ops.append(Op("partitions.indivisibility_search", "indiv",
                          lambda x=x, t=target: pa.indivisibility_search(x, t), checks.no_exception))
        coloring = [rng.randrange(2) for _ in range(n)]
        target = x.submetric(sorted(rng.sample(range(n), 3)))
        ops.append(Op("partitions.greedy_monochromatic", "greedy",
                      lambda x=x, c=coloring, t=target: pa.greedy_monochromatic(x, c, t),
                      checks.greedy(x, coloring, target)))

    # arrows: the R(3,3) pair at seeded scales, then seeded two-distance hosts.
    # The sixteen holding K6 checks cost alike and straddle the 95th percentile.
    eq = FMS.equilateral
    for zn in [5] * 4 + [6] * 16:
        a = _half(rng, 1, 6)
        z, y, xx = eq(zn, a), eq(3, a), eq(2, a)
        ops.append(Op("ramsey.verify_arrow", "arrow", lambda z=z, y=y, xx=xx: ra.verify_arrow(z, y, xx),
                      checks.arrow(z, y, xx, 2, 1)))
    for _ in range(6):
        zn = rng.choice((5, 6))
        rows = random_space_rows(rng, zn, [F(2), F(3)])
        z = FMS(rows)
        xx = eq(2, rows[0][1])
        y = z.submetric([0, 1, 2])
        ops.append(Op("ramsey.verify_arrow", "arrow", lambda z=z, y=y, xx=xx: ra.verify_arrow(z, y, xx),
                      checks.arrow(z, y, xx, 2, 1)))

    # CLI slice
    for family, rows, levels in spaces[::3]:
        path = files.write(rows_text(rows))
        ops.append(cli_op(lib, "cli.iso", "cli", ["--json", "iso", "--space", path]))
        ops.append(cli_op(lib, "cli.degree", "cli", ["--json", "degree", "--space", path]))
        sub = rows[:3]
        tpath = files.write(rows_text([r[:3] for r in sub]))
        ops.append(cli_op(lib, "cli.copies", "cli", ["--json", "copies", "--y", path, "--x", tpath]))
        if levels is not None:
            ops.append(cli_op(lib, "cli.ultra", "cli", ["--json", "ultra", "degree", "--space", path]))
            ops.append(cli_op(lib, "cli.ultra", "cli", ["--json", "ultra", "fichet", "--space", path, "-p", "2"]))
        coloring = ",".join(str(rng.randrange(2)) for _ in rows)
        ops.append(cli_op(lib, "cli.color", "cli", ["--json", "color", "greedy", "--space", path,
                                                    "--target", tpath, "--coloring", coloring]))
    z5 = files.write(rows_text(eq(5, 1).d))
    tri = files.write(rows_text(eq(3, 1).d))
    edge = files.write(rows_text(eq(2, 1).d))
    ops.append(cli_op(lib, "cli.arrow", "cli", ["--json", "arrow", "--z", z5, "--y", tri, "--x", edge]))
    return Pass(ops)


# --- codings -----------------------------------------------------------------

MILLIKEN_EXHAUSTIVE = (("134", 3), ("2379", 3), ("2678", 2), ("26712", 3), ("1378", 3))


def _embed_targets(rng, lib, name, count):
    """Targets known to embed: distances of random admissible points of low depth.

    2678 and 26712 draw from depth 2: some of their depth-3 targets send the
    depth-5 search through seconds of backtracking, which would make passes
    differ by far more than the program's speed does.
    """
    mi = lib.milliken
    variant = mi.load_variant(name)
    pool = mi.admissible_points(variant, 2 if name in ("2678", "26712") else 3)
    out = []
    for i in range(count):
        k = 3 + i % 3  # a fixed size mix keeps the cost of a pass steady
        pts = rng.sample(pool, k)
        rows = [[F(0) if i == j else mi.coding_distance(variant, pts[i], pts[j]) for j in range(k)]
                for i in range(k)]
        out.append(rows)
    return out


def _labelled_graph(rng, n, ultra):
    """Partial labelling read off a metric (or ultrametric) space: always consistent."""
    if ultra:
        rows = ultrametric_rows(rng, n, [F(v) for v in (9, 6, 4, 3)])
    else:
        rows = random_space_rows(rng, n, [F(3), F(4), F(5)])
    labels = {}
    for i in range(n - 1):
        labels[(i, i + 1)] = rows[i][i + 1]
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < 0.25:
                labels[(i, j)] = rows[i][j]
    return labels


def codings_pass(rng, lib, files):
    sp, mi, hh = lib.spaces, lib.milliken, lib.hedgehog
    FMS = sp.FiniteMetricSpace
    ops = []
    ops.append(Op("milliken/2678/d3", "milliken", lambda: mi.milliken_space("2678", 3),
                  checks.milliken(780, True)))
    sseed = rng.randrange(10_000)
    ops.append(Op("milliken/2678/d4/sampled20k", "milliken",
                  lambda: mi.milliken_space("2678", 4, check="sampled", samples=20_000, seed=sseed),
                  checks.milliken(None, True)))
    for name, depth in MILLIKEN_EXHAUSTIVE:
        ops.append(Op("milliken.milliken_space", "milliken",
                      lambda name=name, depth=depth: mi.milliken_space(name, depth),
                      checks.milliken(None, True)))
    for name in mi.VARIANTS:
        ops.append(Op("milliken.milliken_space", "milliken",
                      lambda name=name: mi.milliken_space(name, 2, invert_membership=True),
                      checks.milliken(None, None)))
    # the 1378 targets cost alike and sit in the middle of a pass, so p50 falls among them
    for name, count in (("134", 16), ("2379", 16), ("26712", 16), ("1378", 60), ("2678", 30)):
        for rows in _embed_targets(rng, lib, name, count):
            target = FMS(rows)
            ops.append(Op("milliken.coding_embed", "embed",
                          lambda name=name, t=target: mi.coding_embed(name, 5, t),
                          checks.embed(lib, name, target)))
    for n, m in [(4, 2), (4, 3), (4, 4), (5, 3), (5, 4)] * 3 + [(6, 4), (7, 4)]:
        prefix = FMS(random_space_rows(rng, n, [F(1, 2), F(3, 4), F(1)]))
        ops.append(Op("hedgehog.hedgehog_build", "hedgehog",
                      lambda m=m, p=prefix: hh.hedgehog_build(m, p), checks.hedgehog_build))
        ops.append(Op("hedgehog.hedgehog_build+verify", "hedgehog",
                      lambda m=m, p=prefix: hh.hedgehog_verify(hh.hedgehog_build(m, p)),
                      checks.hedgehog_verify))
    # ten equal sum-cap completions straddle the 95th percentile of a pass
    for n, mode, consistent in [(36, "sum-cap", True)] * 10 + [(36, "max", True)] * 3 + [
            (30, "sum-cap", False), (30, "max", False)]:
        labels = _labelled_graph(rng, n, mode == "max")
        if not consistent:
            # raise one label above a two-step path through its middle point
            i = rng.randrange(n - 2)
            labels[(i, i + 2)] = labels[(i, i + 1)] + labels[(i + 1, i + 2)] + 1
        g = sp.EdgeLabelledGraph(n, labels)
        cap = F(20) if mode == "sum-cap" else None
        ops.append(Op("spaces.complete", "complete", lambda g=g, mode=mode, cap=cap: sp.complete(g, mode, cap),
                      checks.complete(labels, n, mode, cap, consistent)))
    rows = random_space_rows(rng, 60, [F(3), F(4), F(5), F(7, 2)])
    text, js = rows_text(rows), checks.rows_json(rows)
    ops.append(Op("spaces.space_from_text", "parse", lambda: sp.space_from_text(text), checks.parsed(rows)))
    ops.append(Op("spaces.space_from_json", "parse", lambda: sp.space_from_json(js), checks.parsed(rows)))
    # CLI slice
    for n, mode in ((24, "sum-cap"), (24, "max")):
        labels = _labelled_graph(rng, n, mode == "max")
        path = files.write(graph_text(n, labels))
        argv = ["--json", "complete", "--graph", path, "--mode", mode] + (["--cap", "20"] if mode == "sum-cap" else [])
        ops.append(cli_op(lib, "cli.complete", "cli", argv))
        ops.append(cli_op(lib, "cli.validate", "cli", ["--json", "validate", "--graph", path, "--mode", "l-metric", "--l", "2"]))
    for name, depth in (("134", 2), ("2379", 2), ("26712", 2)):
        ops.append(cli_op(lib, "cli.milliken", "cli", ["--json", "milliken", "build", name, "--depth", str(depth)]))
    for rows in _embed_targets(rng, lib, "134", 4):
        path = files.write(rows_text(rows))
        ops.append(cli_op(lib, "cli.milliken", "cli", ["--json", "milliken", "embed", "134", "--depth", "4",
                                                       "--target", path]))
    for n in (4, 5):
        path = files.write(rows_text(random_space_rows(rng, n, [F(1, 2), F(3, 4), F(1)])))
        ops.append(cli_op(lib, "cli.hedgehog", "cli", ["--json", "hedgehog", "verify", "-m", "3", "--prefix", path]))
    return Pass(ops)


BUILDERS = {
    "amalgamation": amalgamation_pass,
    "closure": closure_pass,
    "symmetry": symmetry_pass,
    "codings": codings_pass,
}


def build_pass(workload, seed, p, lib, files):
    """Pass p of a workload; its CLI input files go through `files`."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}:{p}"), lib, files)


# The aim-3 inputs whose documented outcome is exit 2 (usage error).
def contract_probes(lib, files):
    ragged = files.write("points: 3\n0 1 1\n1 0\n1 1 0\n")
    three = files.write(rows_text([[F(0), F(1), F(1)], [F(1), F(0), F(1)], [F(1), F(1), F(0)]]))
    return [
        ("validate ragged graph row", ["--json", "validate", "--graph", ragged]),
        ("color indiv without --target", ["--json", "color", "indiv", "--space", three]),
        ("color lambda --point 7 on 3 points", ["--json", "color", "lambda", "--space", three, "--point", "7"]),
    ]
