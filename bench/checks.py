"""Outcome normalization, digests and independent oracles.

An outcome is `("ok", value)` or `("raised", exception)`.  `normalize` turns
either into plain JSON data (fractions as "p/q", spaces as row lists, the
exception type with its message and, for a `ResourceLimit`, its partial
space and pending count), and `digest` hashes that.  Each check factory
returns a function `(status, value) -> error or None` built on benchmark-side
oracles that share no code with the library.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
from bisect import bisect_left
from fractions import Fraction as F


# --- normalization -------------------------------------------------------------

def frac_text(v):
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def normalize(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, F):
        return frac_text(obj)
    if isinstance(obj, (list, tuple)):
        if all(type(v) is int for v in obj):
            return list(obj)
        return [normalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json.dumps(normalize(v), sort_keys=True) for v in obj)
    if isinstance(obj, dict):
        return {json.dumps(normalize(k)) if not isinstance(k, str) else k: normalize(v)
                for k, v in obj.items()}
    if isinstance(obj, BaseException):
        out = {"raised": type(obj).__name__, "message": str(obj)}
        if hasattr(obj, "pending"):
            out["space"] = normalize(getattr(obj, "space", None))
            pending = obj.pending
            out["pending"] = None if pending is None else len(pending)
        return out
    if type(obj).__name__ == "FiniteMetricSpace":
        return {"space": [" ".join(frac_text(v) for v in row) for row in obj.d]}
    if dataclasses.is_dataclass(obj):
        return {"type": type(obj).__name__,
                **{f.name: normalize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}}
    if type(obj).__name__ == "DistanceSet":
        return {"set": [frac_text(v) for v in obj.values]}
    raise TypeError(f"cannot normalize {type(obj).__name__}")


def digest(status, value) -> str:
    text = json.dumps(normalize(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((status + ":" + text).encode()).hexdigest()[:16]


def run_cli(main, argv):
    """finmetric.cli.main in-process, with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def rows_json(rows):
    return json.dumps({"points": len(rows), "rows": [[frac_text(v) for v in r] for r in rows]})


# --- oracles -------------------------------------------------------------------

def metric_errors(d, svals=None):
    """Metric axioms (and membership in S) of a square matrix of Fractions."""
    n = len(d)
    if any(len(r) != n for r in d):
        return "not square"
    for i in range(n):
        if d[i][i] != 0:
            return f"d({i},{i}) != 0"
        for j in range(i + 1, n):
            if d[i][j] != d[j][i] or d[i][j] <= 0:
                return f"bad pair ({i},{j})"
            if svals is not None and d[i][j] not in svals:
                return f"d({i},{j}) = {d[i][j]} outside S"
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = d[i][j], d[i][k], d[j][k]
        if a > b + c or b > a + c or c > a + b:
            return f"triangle ({i},{j},{k}) fails"
    return None


def _scaled(vals):
    """Integers proportional to the values (all checks here are scale-invariant)."""
    den = math.lcm(*(F(v).denominator for v in vals))
    return [int(F(v) * den) for v in vals], den


def four_values_oracle(vals):
    """(holds, lex-least q with good(q) != good(q*), scan rank) by the interval definition."""
    ints, den = _scaled(vals)
    srt = sorted(ints)

    def good(u0, u1, u2, u3):
        lo = max(abs(u0 - u1), abs(u2 - u3))
        hi = min(u0 + u1, u2 + u3)
        k = bisect_left(srt, lo)
        return k < len(srt) and srt[k] <= hi

    for rank, q in enumerate(itertools.product(srt, repeat=4), 1):
        u0, u1, u2, u3 = q
        if good(u0, u1, u2, u3) != good(u0, u2, u1, u3):
            return False, tuple(F(v, den) for v in q), rank
    return True, None, len(srt) ** 4


@functools.lru_cache(maxsize=64)
def _iso_order(d):
    n = len(d)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sum(1 for p in itertools.permutations(range(n))
               if all(d[i][j] == d[p[i]][p[j]] for i, j in pairs))


def iso_order_bruteforce(d):
    """|iso| by a plain scan over all n! permutations (n! outright when equilateral)."""
    if _is_equilateral(d):
        return math.factorial(len(d))
    return _iso_order(tuple(tuple(row) for row in d))


def copies_bruteforce(y, x):
    out = set()
    for combo in itertools.combinations(range(len(y)), len(x)):
        for p in itertools.permutations(combo):
            if all(x[i][j] == y[p[i]][p[j]] for i in range(len(x)) for j in range(i + 1, len(x))):
                out.add(combo)
                break
    return sorted(out)


def katetov_oracle(d, sub, f):
    f = [F(v) for v in f]
    if any(v < 0 for v in f):
        return False
    return all(abs(f[a] - f[b]) <= d[sub[a]][sub[b]] <= f[a] + f[b]
               for a in range(len(sub)) for b in range(a + 1, len(sub)))


# --- check factories -----------------------------------------------------------

def no_exception(status, value):
    if status == "raised":
        return f"unexpected {type(value).__name__}: {value}"
    return None


def _expect_raised(status, value, name):
    if status != "raised":
        return f"expected {name}, got a result"
    if type(value).__name__ != name:
        return f"expected {name}, got {type(value).__name__}: {value}"
    return None


def four_values(s):
    def check(status, value):
        holds, witness, _ = four_values_oracle(s.values)
        if status == "raised":
            return no_exception(status, value)
        if value.holds != holds:
            return f"verdict {value.holds}, oracle {holds}"
        if not holds:
            if tuple(value.witness) != witness:
                return f"witness {value.witness}, oracle {witness}"
            w = value.witness
            if tuple(value.witness_swap) != (w[0], w[2], w[1], w[3]):
                return "witness_swap is not the inner swap"
            if sorted(value.witness_bad) != sorted(w):
                return "witness_bad is not a rearrangement of the witness"
            u0, u1, u2, u3 = value.witness_bad
            lo, hi = max(abs(u0 - u1), abs(u2 - u3)), min(u0 + u1, u2 + u3)
            if any(lo <= v <= hi for v in s.values):
                return "witness_bad is a good quadruple"
        return None
    return check


def bad_quadruples(s):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        holds, _, _ = four_values_oracle(s.values)
        vals = sorted(s.values)
        for row in value:
            u0, u1, u2, u3 = row.quadruple
            lo, hi = max(abs(u0 - u1), abs(u2 - u3)), min(u0 + u1, u2 + u3)
            if any(lo <= v <= hi for v in vals):
                return f"row {row.quadruple} is good"
        if holds and any(r.unresolved for r in value):
            return "unresolved row on a 4-values set"
        return None
    return check


def criticals(s):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        want = [v for v in s.values if all(not (v < w <= 2 * v) for w in s.values)]
        return None if list(value) == want else f"criticals {value}, oracle {want}"
    return check


def similar(s, t):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        a, b = list(s.values), list(t.values)
        want = len(a) == len(b) and all(
            (a[i] <= a[j] + a[k]) == (b[i] <= b[j] + b[k])
            for i in range(len(a)) for j in range(len(a)) for k in range(len(a)))
        return None if value == want else f"similar {value}, oracle {want}"
    return check


def amalgamate(s, y0, y1, x0, x1):
    def check(status, value):
        holds, _, _ = four_values_oracle(s.values)
        if not holds:
            return _expect_raised(status, value, "AmalgamationError")
        if status == "raised":
            return no_exception(status, value)
        d = value.d
        err = metric_errors(d, set(s.values))
        if err:
            return "amalgam: " + err
        to_global = dict(zip(x1, x0))
        extra = [j for j in range(y1.n) if j not in to_global]
        for pos, j in enumerate(extra):
            to_global[j] = y0.n + pos
        if value.n != y0.n + len(extra):
            return "amalgam has the wrong size"
        for i in range(y0.n):
            for j in range(y0.n):
                if d[i][j] != y0.d[i][j]:
                    return "amalgam does not extend y0"
        for i in range(y1.n):
            for j in range(y1.n):
                if d[to_global[i]][to_global[j]] != y1.d[i][j]:
                    return "amalgam does not extend y1"
        return None
    return check


def urysohn(s, max_points):
    def check(status, value):
        svals = set(s.values)
        if status == "raised":
            if type(value).__name__ != "ResourceLimit":
                return no_exception(status, value)
            if value.space is None or value.space.n != max_points or not value.pending:
                return "ResourceLimit without its progress"
            err = metric_errors(value.space.d, svals)
            return "partial space: " + err if err else None
        space, log = value
        if space.n > max_points or len(log.entries) != space.n - 1:
            return "closure size and log disagree"
        err = metric_errors(space.d, svals)
        return "closure: " + err if err else None
    return check


def is_katetov(subx, f):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        want = katetov_oracle(subx.d, list(range(subx.n)), f)
        return None if value[0] == want else f"is_katetov {value[0]}, oracle {want}"
    return check


def realizers(x, sub, f):
    def check(status, value):
        if not katetov_oracle(x.d, sub, f):
            return _expect_raised(status, value, "InvalidSpace")
        if status == "raised":
            return no_exception(status, value)
        want = [y for y in range(x.n) if all(x.d[y][s] == f[k] for k, s in enumerate(sub))]
        return None if list(value) == want else f"realizers {value}, oracle {want}"
    return check


def shortest_extension(x, sub, f):
    def check(status, value):
        if not katetov_oracle(x.d, sub, f):
            return _expect_raised(status, value, "InvalidSpace")
        if status == "raised":
            return no_exception(status, value)
        want = [min(x.d[y][s] + f[k] for k, s in enumerate(sub)) for y in range(x.n)]
        return None if list(value) == want else "shortest extension differs from the oracle"
    return check


def extend_with(x, g):
    def check(status, value):
        if not katetov_oracle(x.d, list(range(x.n)), g) or any(v == 0 for v in g):
            return _expect_raised(status, value, "InvalidSpace")
        if status == "raised":
            return no_exception(status, value)
        if value.n != x.n + 1 or list(value.d[-1][:-1]) != list(g):
            return "extension does not carry the map"
        err = metric_errors(value.d)
        return "extension: " + err if err else None
    return check


def _is_equilateral(d):
    vals = {d[i][j] for i in range(len(d)) for j in range(i + 1, len(d))}
    return len(vals) <= 1


def isometries(x):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        d, n = x.d, x.n
        group = set(value)
        if len(group) != len(value) or tuple(range(n)) not in group:
            return "group has repeats or lacks the identity"
        if _is_equilateral(d):
            # every permutation is an isometry: distinct permutations, n! of them
            full = len(value) == math.factorial(n) and all(len(set(p)) == n == len(p) for p in value)
            return None if full else "equilateral group is not the full symmetric group"
        for p in value:
            if sorted(p) != list(range(n)) or any(
                    d[i][j] != d[p[i]][p[j]] for i in range(n) for j in range(i + 1, n)):
                return f"{p} is not an isometry"
        if n <= 7 and len(value) != iso_order_bruteforce(d):
            return f"|iso| {len(value)}, permutation scan {iso_order_bruteforce(d)}"
        return None
    return check


def canonicalize(x):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        canon, order = value
        n, d = x.n, x.d
        if sorted(order) != list(range(n)):
            return "order is not a permutation"
        if any(canon.d[a][b] != d[order[a]][order[b]] for a in range(n) for b in range(n)):
            return "canonical form is not the relabelled space"
        if n <= 6:
            best = min(tuple(d[p[b]][p[a]] for a in range(n) for b in range(a))
                       for p in itertools.permutations(range(n)))
            got = tuple(canon.d[b][a] for a in range(n) for b in range(a))
            if got != best:
                return "canonical form is not lex-least"
        return None
    return check


def copies(y, x):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        want = copies_bruteforce(y.d, x.d)
        return None if [tuple(c) for c in value] == want else "copies differ from the brute-force scan"
    return check


def degree_general(x):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        lo = math.factorial(x.n)
        if value.orderings != lo or value.iso * value.degree != lo:
            return "degree record inconsistent"
        if x.n <= 7 and value.iso != iso_order_bruteforce(x.d):
            return "|iso| differs from the permutation scan"
        return None
    return check


def degree_ultrametric(x):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        if value.iso * value.degree != value.orderings:
            return "degree record inconsistent"
        if x.n <= 7 and value.iso != iso_order_bruteforce(x.d):
            return "|iso| differs from the permutation scan"
        return None
    return check


def order_types(x):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        want = math.factorial(x.n) // iso_order_bruteforce(x.d)
        return None if len(set(value)) == len(value) == want else "order type count is not n!/|iso|"
    return check


def greedy(x, coloring, target):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        c = list(value.copy_indices)
        if len(set(c)) != len(c) or any(coloring[p] != value.color for p in c):
            return "greedy copy is not monochromatic"
        if any(x.d[c[i]][c[j]] != target.d[i][j] for i in range(len(c)) for j in range(i)):
            return "greedy copy is not isometric to the target prefix"
        if value.complete and len(c) != target.n:
            return "complete copy is short"
        return None
    return check


def arrow(z, y, x, k, l):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        if value.holds:
            return None
        cx = copies_bruteforce(z.d, x.d)
        cy = copies_bruteforce(z.d, y.d)
        col = value.witness_coloring
        if len(col) != len(cx) or any(c >= k for c in col):
            return "witness coloring has the wrong shape"
        for yc in cy:
            members = set(yc)
            used = {col[i] for i, c in enumerate(cx) if set(c) <= members}
            if len(used) <= l:
                return f"witness coloring leaves copy {yc} with {len(used)} colors"
        return None
    return check


def milliken(points, metric):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        if points is not None and len(value.points) != points:
            return "wrong point count"
        if metric is not None and value.metric != metric:
            return f"metric verdict {value.metric}, expected {metric}"
        if value.metric != (value.witness is None):
            return "verdict and witness disagree"
        return None
    return check


def _coding_distance(cases, p, q):
    """Independent reading of a coding case table (non-inverted membership)."""
    def edge(a, b):
        if len(a) == len(b):
            return False
        short, tall = (a, b) if len(a) < len(b) else (b, a)
        return tall[len(short)] == 1

    def digit(a, b):
        if len(a) == len(b):
            return 0
        short, tall = (a, b) if len(a) < len(b) else (b, a)
        return tall[len(short)]

    for cond, dist in cases:
        got = {"s_equal": p[0] == q[0], "t_equal": p[1] == q[1],
               "t_edge": edge(p[1], q[1]), "s_edge": edge(p[0], q[0]),
               "u_edge": edge(p[2], q[2]) if len(p) > 2 else False,
               "t_digit": digit(p[1], q[1])}
        if all(got[key] == want for key, want in cond.items()):
            return F(dist)
    raise ValueError("case table does not cover the pair")


def embed(lib, name, target):
    from importlib import resources

    table = json.loads(resources.files(lib.fm).joinpath("data", f"milliken_{name}.json").read_text())
    cases = [(c["when"], c["distance"]) for c in table["cases"]]

    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        if value is None or len(value) != target.n:
            return "no embedding for an embeddable target"
        pts = [tuple(tuple(c) for c in p) for p in value]
        for i in range(target.n):
            for j in range(i + 1, target.n):
                if _coding_distance(cases, pts[i], pts[j]) != target.d[i][j]:
                    return "embedding does not realize the target"
        return None
    return check


def hedgehog_build(status, value):
    if status == "raised":
        return no_exception(status, value)
    err = metric_errors(value.dz.d)
    if err:
        return "hedgehog space: " + err
    for (a, b), v in value.labels.items():
        if value.dz.d[a][b] != v:
            return "completion moved a label"
    return None


def hedgehog_verify(status, value):
    if status == "raised":
        return no_exception(status, value)
    return None if value.ok() else "hedgehog verification failed"


def complete(labels, n, mode, cap, consistent):
    def check(status, value):
        if not consistent:
            return _expect_raised(status, value, "InvalidSpace")
        if status == "raised":
            return no_exception(status, value)
        if value.n != n:
            return "completion has the wrong size"
        err = metric_errors(value.d)
        if err:
            return "completion: " + err
        if any(value.d[i][j] != v for (i, j), v in labels.items()):
            return "completion moved a label"
        if cap is not None and any(v > cap for r in value.d for v in r):
            return "completion exceeds the cap"
        return None
    return check


def parsed(rows):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        return None if [list(r) for r in value.d] == rows else "parsed matrix differs"
    return check


def cli_exit_ok(status, value):
    if status == "raised":
        return no_exception(status, value)
    if value["exit"] not in (0, 1):
        return f"exit {value['exit']}: {value['stderr'].strip()}"
    try:
        json.loads(value["stdout"])
    except ValueError:
        return "stdout is not JSON"
    return None


def cli_four_values(s):
    def check(status, value):
        err = cli_exit_ok(status, value)
        if err:
            return err
        holds, _, _ = four_values_oracle(s.values)
        if value["exit"] != (0 if holds else 1) or json.loads(value["stdout"])["holds"] != holds:
            return "check4v verdict differs from the oracle"
        return None
    return check


def cli_amalgamate(s):
    def check(status, value):
        if status == "raised":
            return no_exception(status, value)
        holds, _, _ = four_values_oracle(s.values)
        if not holds:
            return None if value["exit"] == 2 else "amalgamate on a failing set did not exit 2"
        err = cli_exit_ok(status, value)
        if err:
            return err
        rows = [[F(v) for v in r] for r in json.loads(value["stdout"])["space"]["rows"]]
        err = metric_errors(rows, set(s.values))
        return "amalgam: " + err if err else None
    return check
