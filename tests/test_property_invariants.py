"""Hypothesis property suites for the structural invariants."""

import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import finmetric
from finmetric.four_values import check_four_values, interval, is_good, swap
from finmetric.katetov import extend_with, is_katetov
from finmetric.spaces import (
    DistanceSet,
    FiniteMetricSpace,
    canonical_key,
    isometries,
)


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
        assert is_good(q, s) != is_good(swap(q), s)


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


def _trees(folder=Path(finmetric.__file__).parent):
    """Every module in folder, the finmetric package by default, parsed, with
    its folder and file name."""
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
