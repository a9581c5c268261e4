"""Hypothesis property suites for the structural invariants."""

import ast
import functools
import math
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import finmetric
from finmetric import spaces
from finmetric.four_values import amalgamate, check_four_values, interval, swap
from finmetric.katetov import extend_with, is_katetov, urysohn_approx
from finmetric.milliken import milliken_space
from finmetric.spaces import (
    DistanceSet,
    EdgeLabelledGraph,
    FiniteMetricSpace,
    canonical_key,
    complete,
    copies,
    isometries,
)

from test_four_values import _reference_is_good
from test_proved_spaces import _capped_closure_space


@st.composite
def metric_spaces(draw, max_n=5, max_value=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = Fraction(draw(st.integers(1, max_value)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if w[i][k] + w[k][j] < w[i][j]:
                    w[i][j] = w[i][k] + w[k][j]
    return FiniteMetricSpace(w)


@st.composite
def distance_sets(draw, max_size=4, max_value=12):
    vals = draw(
        st.sets(st.integers(1, max_value), min_size=1, max_size=max_size)
    )
    return DistanceSet(vals)


@given(metric_spaces())
@settings(max_examples=60, deadline=None)
def test_isometry_order_divides_factorial(x):
    assert math.factorial(x.n) % len(isometries(x)) == 0


@given(metric_spaces(max_n=4), st.permutations(list(range(4))))
@settings(max_examples=60, deadline=None)
def test_canonical_form_invariant_under_relabelling(x, perm):
    perm = perm[: x.n]
    if sorted(perm) != list(range(x.n)):
        perm = list(range(x.n))
    y = FiniteMetricSpace(
        [[x.d[perm[i]][perm[j]] for j in range(x.n)] for i in range(x.n)]
    )
    assert canonical_key(y) == canonical_key(x)


@given(distance_sets())
@settings(max_examples=100, deadline=None)
def test_interval_invariant_under_trivial_permutations(s):
    vals = list(s.values)
    quads = [(a, b, c, d) for a in vals for b in vals for c in vals for d in vals]
    for q in quads[:40]:
        u0, u1, u2, u3 = q
        assert interval(q) == interval((u1, u0, u2, u3))
        assert interval(q) == interval((u0, u1, u3, u2))
        assert interval(q) == interval((u2, u3, u0, u1))


@given(distance_sets())
@settings(max_examples=100, deadline=None)
def test_swap_is_an_involution_preserving_failure(s):
    res = check_four_values(s)
    if not res.holds:
        q = res.witness
        assert swap(swap(q)) == q
        assert _reference_is_good(q, s) != _reference_is_good(swap(q), s)


@given(metric_spaces(max_n=4), st.data())
@settings(max_examples=60, deadline=None)
def test_random_katetov_maps_yield_metric_extensions(x, data):
    # rejection-sample a Katetov map, then the one-point extension must be metric
    for _ in range(20):
        f = [
            Fraction(data.draw(st.integers(1, 8), label="f"))
            for _ in range(x.n)
        ]
        ok, _ = is_katetov(x, f)
        if ok:
            extend_with(x, f)  # constructor validates the triangle inequality
            return


@given(st.integers(1, 8))
@settings(max_examples=8, deadline=None)
def test_initial_segments_satisfy_four_values(m):
    assert check_four_values(DistanceSet(range(1, m + 1)))


ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def _trees(folder=Path(finmetric.__file__).parent):
    """Every module in folder, the finmetric package by default, parsed, with
    its folder and file name; each folder is parsed once per session."""
    sources = sorted(folder.glob("*.py"))
    assert sources
    return [(f"{folder.name}/{path.name}", ast.parse(path.read_text(), filename=str(path))) for path in sources]


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so internal checks must raise
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_never_passes_check_false():
    # a space is built checked or by a door that states its proof, in the
    # library, its tests and its demos alike; the constructor ignores check
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees() + _trees(ROOT / "tests") + _trees(ROOT / "demos")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "check" and isinstance(kw.value, ast.Constant) and kw.value.value is False
    ]
    assert found == []


def test_only_spaces_touches_the_int_view():
    # the int view has one owner: every other module, test, demo and bench
    # file reads it through _scaled_rows(), so only spaces.py names _ints
    found = {
        name
        for name, tree in _trees() + _trees(ROOT / "tests") + _trees(ROOT / "demos") + _trees(ROOT / "bench")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_ints"
    }
    assert found == {"finmetric/spaces.py"}


def test_only_distance_sets_scale_their_values():
    # a distance set's int view has one producer too: DistanceSet builds it
    # and every kernel reads it through _scaled_values(), so no library code
    # outside the class passes a .values to _scaled
    inside = {
        id(node)
        for name, tree in _trees() if name == "finmetric/spaces.py"
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "DistanceSet"
        for node in ast.walk(cls)
    }
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_scaled"
        and any(isinstance(arg, ast.Attribute) and arg.attr == "values" for arg in node.args)
    ]
    assert found == []


def test_only_the_pair_table_builds_pair_intervals():
    # a distance set's pair-interval table has one producer too:
    # four_values._pair_table builds it once and keeps it on the set, and the
    # 4-values scan and the bad-quadruple table read it there
    inside = {
        id(node)
        for name, tree in _trees() if name == "finmetric/four_values.py"
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_pair_table"
        for node in ast.walk(fn)
    }
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_pair_intervals"
    ]
    assert inside and found == []


def test_katetov_queries_read_the_host_view():
    # the Katetov queries read the host's int view: katetov.py builds no
    # submetric space, and only _scaled_map brings a map and the view to one
    # scale, the one lcm in the module
    tree = dict(_trees())["finmetric/katetov.py"]
    inside = {
        id(node)
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_scaled_map"
        for node in ast.walk(fn)
    }
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    submetric = [node.lineno for node in calls if getattr(node.func, "attr", None) == "submetric"]
    lcm = [
        node.lineno for node in calls
        if id(node) not in inside and getattr(node.func, "attr", getattr(node.func, "id", None)) == "lcm"
    ]
    assert inside
    assert (submetric, lcm) == ([], [])


def test_kernels_build_the_int_view_once(monkeypatch):
    # repeated kernel calls on one space read the view it carries: a checked
    # build makes it, every unchecked one (the builders that prove their
    # result, int-built ones included) on first use, and no kernel again
    built = []
    int_rows = spaces._int_rows
    host = FiniteMetricSpace([[0, 1, "3/2"], [1, 0, 1], ["3/2", 1, 0]])
    pair = FiniteMetricSpace([[0, 1], [1, 0]])
    monkeypatch.setattr(spaces, "_int_rows", lambda d: built.append(d) or int_rows(d))
    builders = [  # each with the number of views its build makes
        (lambda: FiniteMetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), 1),
        (lambda: FiniteMetricSpace.equilateral(4, Fraction(1, 2)), 0),
        (lambda: host.submetric([2, 0, 1]), 0),
        (lambda: complete(EdgeLabelledGraph(3, {(0, 1): 1, (1, 2): 1}), "sum-cap", Fraction(5, 2)), 0),
        (lambda: amalgamate(DistanceSet([1, 2]), pair, pair, [0], [0]), 0),
        (lambda: urysohn_approx(DistanceSet([1, Fraction(3, 2)]), 2)[0], 0),
        (_capped_closure_space, 0),
        (lambda: milliken_space("1378", 1, invert_membership=True).space, 0),
    ]
    for build, at_build in builders:
        built.clear()
        x = build()
        assert len(built) == at_build
        for _ in range(3):
            is_katetov(x, [Fraction(1, 3)] * x.n)
            is_katetov(x, [1] * x.n)
            copies(x, x)
            isometries(x)
            x.is_ultrametric()
        assert len(built) == 1


def test_one_unchecked_constructor():
    # _int_rows alone builds a view, so the least scale holds: no library,
    # test, demo or bench file names _from_ints, an int handover that set
    # a view of its own, and only _from_rows calls __new__, so every space
    # passes the checked constructor or _from_rows
    trees = _trees() + _trees(ROOT / "tests") + _trees(ROOT / "demos") + _trees(ROOT / "bench")
    named = [
        f"{name}:{node.lineno}"
        for name, tree in trees
        for node in ast.walk(tree)
        if "_from_ints" in {getattr(node, field, None) for field in ("id", "attr", "name")}
    ]
    assert named == []
    new_calls = []

    def visit(name, node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "__new__":
                new_calls.append((name, func))
            visit(name, child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    for name, tree in trees:
        visit(name, tree, None)
    assert new_calls == [("finmetric/spaces.py", "_from_rows")]


def test_demos_import_no_private_names():
    # the demos show the public API: no underscore name from finmetric
    found = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _trees(ROOT / "demos")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "finmetric"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_library_imports_only_the_standard_library():
    # no runtime dependency: every import is in the standard library or relative
    found = [
        f"{name}:{node.lineno} {module}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        for module in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


# every functools.cache in the library, by module and function, with the
# reason its key domain is finite
UNBOUNDED_CACHES = {
    "finmetric/cli.py:build_parser": "no arguments",
    "finmetric/milliken.py:load_variant": "a variant name",
    "finmetric/milliken.py:_case_lookup": "a variant name and a bool",
    "finmetric/milliken.py:_type_verdict": "a variant name and a bool",
    "finmetric/milliken.py:_flat_table": "a variant name and a bool",
    "finmetric/milliken.py:_embed_index": "the 37 (variant, depth) pairs under the candidate cap",
}


def test_every_lru_cache_in_the_library_is_bounded():
    # a table kept for the life of the process needs a bound: each
    # functools.lru_cache in the library names a positive int maxsize, as a
    # literal or as a module constant, and none is bare (its bound unstated);
    # each functools.cache decorates a function named in UNBOUNDED_CACHES
    found = []
    for name, tree in _trees():
        decorated = {id(deco): f"{name}:{node.name}" for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) for deco in node.decorator_list}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{name}:{node.lineno}" for alias in node.names if alias.name == "cache"]
            elif isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", None) == "functools":
                found.append(decorated.get(id(node), f"{name}:{node.lineno}"))
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if "lru_cache" not in (getattr(node, "id", None), getattr(node, "attr", None)):
                continue
            call = called.get(id(node))
            sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1] if call else []
            size = sizes[0] if sizes else None
            if isinstance(size, ast.Name):
                size = ast.Constant(constants.get(size.id))
            if not (isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0):
                found.append(f"{name}:{node.lineno}")
    assert sorted(found) == sorted(UNBOUNDED_CACHES)
