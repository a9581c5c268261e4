"""Command-line surface: every library operation behind a verb, stable output.

The verbs live in one table, `_VERBS`.  Each subverb of a family verb
(`ultra`, `color`, `hedgehog`, `milliken`) has its own subparser holding only
the options it reads, so options follow the subverb.  `build_parser` builds
the parser once per process, on first use.

Exit codes: 0 = verdict true / success, 1 = verdict false (witness printed),
2 = usage or resource error.  --json mirrors the text payload bit-exactly for
golden-file testing.  FINMETRIC_BUDGET overrides every Config bound at once:
iso, copies and canon point bounds, the arrow copy budget, the Urysohn point
cap, the |S| bound of the 4-values scans and the point bound of the
ordering-property scan.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import four_values, hedgehog, katetov, milliken, partitions, ramsey, ultratrees
from .spaces import (
    Config,
    DistanceSet,
    FiniteMetricSpace,
    InvalidSpace,
    SearchTooLarge,
    _space_dict,
    as_fraction,
    complete,
    copies,
    format_fraction,
    graph_from_text,
    isometries,
    space_from_text,
    space_to_text,
    validate,
)

USAGE_ERROR = 2


def _config() -> Config:
    budget = os.environ.get("FINMETRIC_BUDGET")
    if budget is None:
        return Config()
    try:
        b = int(budget)
    except ValueError:
        raise InvalidSpace(f"FINMETRIC_BUDGET must be an integer, got {budget!r}")
    return Config(**{f.name: b for f in dataclasses.fields(Config)})


def _load_space(path: str) -> FiniteMetricSpace:
    with open(path) as fh:
        return space_from_text(fh.read())


def _load_graph(path: str):
    with open(path) as fh:
        return graph_from_text(fh.read())


def _fracs(text: str):
    return [as_fraction(tok) for tok in text.split(",") if tok != ""]


def _ints(text: str):
    return [int(tok) for tok in text.split(",") if tok != ""]


def _emit(args, payload, lines) -> None:
    """Print payload() as JSON under --json, else each line of lines().

    Both are zero-argument callables, so only the rendering printed is built.
    """
    if args.json:
        print(json.dumps(payload(), sort_keys=True))
    else:
        for line in lines():
            print(line)


def _emit_space(args, x: FiniteMetricSpace) -> None:
    _emit(args, lambda: {"space": _space_dict(x)}, lambda: [space_to_text(x).rstrip()])


def _quad(q) -> str:
    return "(" + ",".join(format_fraction(v) for v in q) + ")"


# --- verb implementations ----------------------------------------------------

def cmd_check4v(args) -> int:
    s = DistanceSet(args.distances)
    res = four_values.check_four_values(s, _config().four_values_bound)
    if res.holds:
        _emit(args, lambda: {"holds": True, "set": [format_fraction(v) for v in s]},
              lambda: [f"4-values condition holds for {s}"])
        return 0
    _emit(args, lambda: {
        "holds": False,
        "set": [format_fraction(v) for v in s],
        "witness": [format_fraction(v) for v in res.witness],
        "witnessSwap": [format_fraction(v) for v in res.witness_swap],
        "witnessBad": [format_fraction(v) for v in res.witness_bad],
    }, lambda: [
        f"bad quadruple {_quad(res.witness)}",
        f"swap {_quad(res.witness_swap)} disagrees; bad member in table form "
        f"{_quad(res.witness_bad)}",
    ])
    return 1


def cmd_badquads(args) -> int:
    s = DistanceSet(args.distances)
    rows = four_values.bad_quadruples(s, _config().four_values_bound)
    _emit(args, lambda: {
        "set": [format_fraction(v) for v in s],
        "rows": [
            {
                "interval": [format_fraction(r.interval.lo), format_fraction(r.interval.hi)],
                "quadruple": [format_fraction(v) for v in r.quadruple],
                "resolutions": [
                    {"op": op, "target": [format_fraction(v) for v in t]}
                    for op, t in r.resolutions
                ],
                "unresolved": r.unresolved,
            }
            for r in rows
        ],
    }, lambda: [four_values.format_bad_quadruple_table(rows) if rows else "(no bad quadruples)"])
    return 0 if not any(r.unresolved for r in rows) else 1


def cmd_similar(args) -> int:
    # main rewrites this verb's "--" separator to "::" before parsing,
    # because argparse consumes the first bare "--" itself
    if "::" not in args.distances:
        raise InvalidSpace("usage: similar S... -- T...")
    split = args.distances.index("::")
    s = DistanceSet(args.distances[:split])
    t = DistanceSet(args.distances[split + 1 :])
    verdict = four_values.similar(s, t)
    _emit(args, lambda: {"similar": verdict}, lambda: [f"similar: {str(verdict).lower()}"])
    return 0 if verdict else 1


def cmd_amalgamate(args) -> int:
    s = DistanceSet(args.distances)
    y0 = _load_space(args.y0)
    y1 = _load_space(args.y1)
    x0 = _ints(args.x0) if args.x0 else []
    x1 = _ints(args.x1) if args.x1 else []
    result = four_values.amalgamate(s, y0, y1, x0, x1, _config())
    _emit_space(args, result)
    return 0


def cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    ok, witness = validate(g, args.mode, l=args.l)
    _emit(args, lambda: {"valid": ok, "witness": list(witness) if witness else None},
          lambda: ["valid" if ok else f"invalid, witness {tuple(witness)}"])
    return 0 if ok else 1


def cmd_complete(args) -> int:
    g = _load_graph(args.graph)
    space = complete(g, args.mode, r=as_fraction(args.cap) if args.cap else None)
    _emit_space(args, space)
    return 0


def cmd_iso(args) -> int:
    x = _load_space(args.space)
    group = isometries(x, _config())
    _emit(args, lambda: {"order": len(group), "permutations": [list(g) for g in group]},
          lambda: [f"order: {len(group)}"] + [" ".join(map(str, g)) for g in group])
    return 0


def cmd_copies(args) -> int:
    y = _load_space(args.y)
    x = _load_space(args.x)
    found = copies(y, x, _config())
    _emit(args, lambda: {"count": len(found), "copies": [list(c) for c in found]},
          lambda: [f"count: {len(found)}"] + [" ".join(map(str, c)) for c in found])
    return 0 if found else 1


def cmd_katetov(args) -> int:
    x, f = _load_space(args.space), _fracs(args.values)
    ok, witness = katetov.is_katetov(x, f)
    _emit(args, lambda: {"katetov": ok, "witness": list(witness) if witness else None},
          lambda: ["katetov" if ok else f"not katetov, {katetov._refusal(f, witness)}"])
    return 0 if ok else 1


def cmd_extend(args) -> int:
    x = _load_space(args.space)
    result = katetov.extend_with(x, _fracs(args.values))
    _emit_space(args, result)
    return 0


def cmd_urysohn(args) -> int:
    s = DistanceSet(args.distances)
    try:
        space, log = katetov.urysohn_approx(s, args.cap, _config(), seed=args.seed)
    except katetov.ResourceLimit as exc:
        # the partial space goes to stdout; main reports the error and exits 2
        _emit_closure(args, exc.space, exc.log, {"pending": len(exc.pending)})
        raise
    _emit_closure(args, space, log, {})
    return 0


def _emit_closure(args, space, log, extra: dict) -> None:
    def lines():
        out = [space_to_text(space).rstrip()]
        if log.entries:
            out += ["# provenance", log.format()]
        return out

    _emit(args, lambda: {
        "space": _space_dict(space),
        "log": [
            {"subset": list(sub), "values": [format_fraction(v) for v in vals]}
            for sub, vals in log.entries
        ],
        **extra,
    }, lines)


def _tree_text(t: ultratrees.UltraTree) -> str:
    children = t.children()
    lines = ["levels: " + " ".join(format_fraction(v) for v in t.level_distances)]

    def walk(node, indent):
        label = f"point {t.leaf_points[node]}" if node in t.leaf_points else f"node {node}"
        lines.append("  " * indent + f"({label}")
        for c in children[node]:
            walk(c, indent + 1)
        lines[-1] += ")" if not children[node] else ""
        if children[node]:
            lines.append("  " * indent + ")")

    walk(0, 0)
    return "\n".join(lines)


def _ultra_tree(args) -> int:
    t = ultratrees.tree_of_space(_load_space(args.space))
    _emit(args, lambda: {
        "levels": [format_fraction(v) for v in t.level_distances],
        "parents": list(t.parents),
        "leafPoints": {str(k): v for k, v in t.leaf_points.items()},
    }, lambda: [_tree_text(t)])
    return 0


def _emit_degree(args, name: str, rec: ultratrees.DegreeRecord) -> int:
    _emit(args, lambda: {name: rec.orderings, "iso": rec.iso, "degree": rec.degree},
          lambda: [f"{name}: {rec.orderings}  iso: {rec.iso}  degree: {rec.degree}"])
    return 0


def _ultra_degree(args) -> int:
    return _emit_degree(args, "cLO", ultratrees.ramsey_degree_ultrametric(_load_space(args.space)))


def _ultra_bigdegree(args) -> int:
    x = _load_space(args.space)
    deg = ultratrees.big_ramsey_degree(x, DistanceSet(args.distances))
    _emit(args, lambda: {"bigDegree": deg}, lambda: [f"big degree: {deg}"])
    return 0


def _ultra_fichet(args) -> int:
    rep = ultratrees.fichet_embedding(_load_space(args.space), args.p)
    # only the JSON shows the weights; a large p's can pass Python's int-to-str limit
    _emit(args, lambda: {
        "p": rep.p, "dimension": rep.dimension, "dimensionBound": rep.dimension_bound,
        "weightsP": {str(k): format_fraction(v) for k, v in rep.node_weights_p.items()},
    }, lambda: [
        f"p: {rep.p}  dimension: {rep.dimension} <= {rep.dimension_bound}",
        f"pairs verified: {len(rep.pair_checks)}",
    ])
    return 0


def cmd_degree(args) -> int:
    x = _load_space(args.space)
    if args.metric_orderings is not None:  # given no values: x's own distance set
        s = DistanceSet(args.metric_orderings) if args.metric_orderings else x.distance_set()
        return _emit_degree(args, "mLO", ramsey.ramsey_degree_metric_ordered(x, s, _config()))
    return _emit_degree(args, "LO", ramsey.ramsey_degree_general(x, _config()))


def cmd_criticals(args) -> int:
    s = DistanceSet(args.distances)
    crits = ramsey.critical_distances(s)
    _emit(args, lambda: {"critical": [format_fraction(v) for v in crits]},
          lambda: ["critical: " + " ".join(format_fraction(v) for v in crits)])
    return 0


def cmd_arrow(args) -> int:
    z = _load_space(args.z)
    y = _load_space(args.y)
    x = _load_space(args.x)
    res = ramsey.verify_arrow(z, y, x, k=args.k, l=args.l, config=_config())
    def lines():
        if res.holds:
            return [f"arrow holds ({res.colorings_checked} colorings over {res.copies_of_x} copies)"]
        witness = "".join(map(str, res.witness_coloring))  # empty exactly when z has no copy of y
        return ["arrow fails, " + ("witness coloring " + witness if witness else "z has no copy of y")]

    _emit(args, lambda: {
        "holds": res.holds,
        "copies": res.copies_of_x,
        "colorings": res.colorings_checked,
        "witness": list(res.witness_coloring) if res.witness_coloring else None,
    }, lines)
    return 0 if res.holds else 1


def cmd_orderprop(args) -> int:
    y = _load_space(args.y)
    x = _load_space(args.x)
    order = _ints(args.order)
    s = DistanceSet(args.s) if args.s else None
    verdict = ramsey.verify_ordering_property_witness(
        y, x, order, ordering_class=args.ordering_class, s=s, config=_config()
    )
    _emit(args, lambda: {"holds": verdict}, lambda: [f"ordering property witness: {str(verdict).lower()}"])
    return 0 if verdict else 1


def _load_target(args) -> FiniteMetricSpace:
    if args.target is None:
        raise InvalidSpace(f"{args.verb} {args.subverb} needs --target")
    return _load_space(args.target)


def _color_indiv(args) -> int:
    target = _load_target(args)
    x = _load_space(args.space)
    report = partitions.indivisibility_search(
        x, target, k=args.k, mode="exhaustive" if args.sampled is None else "sampled",
        samples=100 if args.sampled is None else args.sampled, seed=args.seed, config=_config(),
    )
    _emit(args, lambda: {
        "exhaustive": report.exhaustive,
        "colorings": len(report.outcomes),
        "monochromatic": report.all_monochromatic(),
        "outcomes": [o.to_json_dict() for o in report.outcomes],
    }, lambda: [
        f"{len(report.outcomes)} colorings, "
        f"{len(report.counterexamples)} without a monochromatic copy"
    ])
    return 0 if report.all_monochromatic() else 1


def _color_greedy(args) -> int:
    target = _load_target(args)
    x = _load_space(args.space)
    res = partitions.greedy_monochromatic(x, _ints(args.coloring), target)
    _emit(args, lambda: {
        "copy": list(res.copy_indices),
        "color": res.color,
        "complete": res.complete,
        "obstruction": list(res.obstruction) if res.obstruction else None,
    }, lambda: [
        f"copy {' '.join(map(str, res.copy_indices))} in color {res.color}"
        + ("" if res.complete else " (partial)")
    ])
    return 0 if res.complete else 1


def _color_divide(args) -> int:
    x = _load_space(args.space)
    centers, radii = tuple(_ints(args.centers)), _fracs(args.radii)
    if len(radii) > len(centers):
        raise InvalidSpace(f"{len(radii)} radii for {len(centers)} centers")
    colors = partitions.divisibility_coloring(x, partitions.NetSystem(centers, dict(zip(centers, radii))))
    _emit(args, lambda: {"coloring": colors}, lambda: ["coloring: " + "".join(map(str, colors))])
    return 0


def _color_annulus(args) -> int:
    x = _load_space(args.space)
    idx = partitions.annulus_lemma_check(
        x, args.y, args.start, args.end, as_fraction(args.r), args.n,
        _ints(args.chain), as_fraction(args.eps),
    )
    _emit(args, lambda: {"witnessIndex": idx}, lambda: [f"witness index: {idx}"])
    return 0


def _color_lambda(args) -> int:
    x = _load_space(args.space)
    val = partitions.lambda_epsilon(x, args.point, as_fraction(args.eps))
    _emit(args, lambda: {"lambda": format_fraction(val)}, lambda: [f"lambda: {format_fraction(val)}"])
    return 0


def _hedgehog(args) -> hedgehog.HedgehogSpace:
    return hedgehog.hedgehog_build(args.m, _load_space(args.prefix), args.max_tree_size)


def _hedgehog_build(args) -> int:
    z = _hedgehog(args)
    _emit(args, lambda: {
        "m": z.m,
        "baseCount": z.base_count,
        "treeNodes": [list(t) for t in z.tree_nodes],
        "space": _space_dict(z.dz),
    }, lambda: [
        f"m: {z.m}  base points: {z.base_count}  tree nodes: {len(z.tree_nodes)}",
        space_to_text(z.dz).rstrip(),
    ])
    return 0


def _hedgehog_verify(args) -> int:
    report = hedgehog.hedgehog_verify(_hedgehog(args))
    _emit(args, report.to_json_dict, lambda: [
        f"cycles checked: {report.cycles_checked}",
        f"labels preserved: {str(report.labels_preserved).lower()}",
        f"branches verified: {report.branches_verified}",
        f"fattening ok: {str(report.fattening_ok).lower()}",
    ])
    return 0 if report.ok() else 1


def _milliken_build(args) -> int:
    ms = milliken.milliken_space(
        args.variant, args.depth, invert_membership=args.inverted,
        check="exhaustive" if args.sampled is None else "sampled",
        samples=200000 if args.sampled is None else args.sampled, seed=args.seed,
    )
    _emit(args, lambda: {
        "variant": args.variant,
        "depth": args.depth,
        "points": len(ms.points),
        "metric": ms.metric,
        "witness": list(ms.witness) if ms.witness else None,
    }, lambda: [
        f"variant {args.variant} depth {args.depth}: {len(ms.points)} points, "
        f"metric: {str(ms.metric).lower()}"
        + ("" if ms.metric else f", witness {ms.witness}")
    ])
    return 0 if ms.metric else 1


def _milliken_embed(args) -> int:
    target = _load_target(args)
    emb = milliken.coding_embed(args.variant, args.depth, target)
    if emb is None:
        _emit(args, lambda: {"found": False}, lambda: ["no embedding at this depth"])
        return 1
    ok = milliken.verify_embedding(args.variant, emb, target)
    _emit(args, lambda: {
        "found": True,
        "verified": ok,
        "points": [[list(c) for c in p] for p in emb],
    }, lambda: ["embedding: " + "; ".join(
        "{" + ",".join("".join(map(str, c)) or "()" for c in p) + "}" for p in emb
    ), f"verified: {str(ok).lower()}"])
    return 0 if ok else 1


# --- the verb table ------------------------------------------------------------

def _arg(flag: str, **kwargs) -> tuple:
    return flag, kwargs


_DISTANCES = _arg("distances", nargs="+")
_SPACE = _arg("--space", required=True)
_GRAPH = _arg("--graph", required=True)
_VALUES = _arg("--values", required=True)
_Y = _arg("--y", required=True)
_X = _arg("--x", required=True)
_TARGET = _arg("--target")
_SAMPLED = _arg("--sampled", type=int, default=None)
_SEED = _arg("--seed", type=int, default=0)
_EPS = _arg("--eps", default="1/100")

# verb -> (help, handler, arguments).  A family verb holds a table of
# subverbs of the same shape in place of the handler, and its arguments go
# on every subverb's parser ahead of the subverb's own.
_VERBS = {
    "check4v": ("decide the 4-values condition", cmd_check4v, [_DISTANCES]),
    "badquads": ("table of bad quadruples", cmd_badquads, [_DISTANCES]),
    "similar": ("compare triple-inequality patterns: S... -- T...", cmd_similar, [_DISTANCES]),
    "amalgamate": ("strong amalgam over a shared subspace", cmd_amalgamate, [
        _DISTANCES, _arg("--y0", required=True), _arg("--y1", required=True),
        _arg("--x0", default=""), _arg("--x1", default="")]),
    "validate": ("check an edge-labelled graph", cmd_validate, [
        _GRAPH, _arg("--mode", choices=("metric", "ultrametric", "l-metric"), default="metric"),
        _arg("--l", type=int, default=None)]),
    "complete": ("path-metric completion", cmd_complete, [
        _GRAPH, _arg("--mode", choices=("sum-cap", "max"), default="sum-cap"),
        _arg("--cap", default=None)]),
    "iso": ("isometry group", cmd_iso, [_SPACE]),
    "copies": ("isometric copies of x inside y", cmd_copies, [_Y, _X]),
    "katetov": ("check the one-point extension inequality", cmd_katetov, [_SPACE, _VALUES]),
    "extend": ("adjoin a one-point extension", cmd_extend, [_SPACE, _VALUES]),
    "urysohn": ("closure with the bounded extension property", cmd_urysohn, [
        _DISTANCES, _arg("--cap", type=int, required=True), _SEED]),
    "ultra": ("ultrametric tree calculus", {
        "tree": ("ball tree of the space", _ultra_tree, []),
        "degree": ("Ramsey degree: convex orderings over isometries", _ultra_degree, []),
        "bigdegree": ("big Ramsey degree over the distance set --s", _ultra_bigdegree, [
            _arg("--s", dest="distances", nargs="*", default=[])]),
        "fichet": ("exact weights of an embedding into l_p", _ultra_fichet, [
            _arg("-p", type=int, default=1)]),
    }, [_SPACE]),
    "degree": ("Ramsey degree of a space", cmd_degree, [
        _SPACE, _arg("--metric-orderings", nargs="*", default=None)]),
    "criticals": ("critical distances of a set", cmd_criticals, [_DISTANCES]),
    "arrow": ("exhaustive arrow verification", cmd_arrow, [
        _arg("--z", required=True), _Y, _X,
        _arg("-k", type=int, default=2), _arg("-l", type=int, default=1)]),
    "orderprop": ("ordering-property witness check", cmd_orderprop, [
        _Y, _X, _arg("--order", required=True),
        _arg("--ordering-class", choices=("all", "convex", "metric"), default="all"),
        _arg("--s", nargs="*", default=None)]),
    "color": ("indivisibility experiments", {
        "indiv": ("search the colorings for a monochromatic copy of --target", _color_indiv, [
            _TARGET, _arg("-k", type=int, default=2), _SAMPLED, _SEED]),
        "greedy": ("chase a monochromatic copy of --target under --coloring", _color_greedy, [
            _TARGET, _arg("--coloring", default="")]),
        "divide": ("two-color annulus coloring driven by a net", _color_divide, [
            _arg("--centers", default=""), _arg("--radii", default="")]),
        "annulus": ("first chain point inside the annulus around --y", _color_annulus, [
            _arg("--y", type=int, default=0), _arg("--start", type=int, default=0),
            _arg("--end", type=int, default=0), _arg("--r", default="1/2"),
            _arg("-n", type=int, default=1), _arg("--chain", default=""), _EPS]),
        "lambda": ("span of the eps-step component of --point", _color_lambda, [
            _arg("--point", type=int, default=0), _EPS]),
    }, [_SPACE]),
    "hedgehog": ("tree-of-copies gluing space", {
        "build": ("build the space", _hedgehog_build, []),
        "verify": ("check its cycles, labels, branches and fattening", _hedgehog_verify, []),
    }, [_arg("-m", type=int, required=True), _arg("--prefix", required=True),
        _arg("--max-tree-size", type=int, default=None)]),
    "milliken": ("tree codings of small Urysohn spaces", {
        "build": ("build the coding space and decide whether it is metric", _milliken_build, [
            _arg("--inverted", action="store_true"), _SAMPLED, _SEED]),
        "embed": ("embed --target into the coding space", _milliken_embed, [_TARGET]),
    }, [_arg("variant", choices=milliken.VARIANTS), _arg("--depth", type=int, required=True)]),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built from `_VERBS` once per process."""
    parser = argparse.ArgumentParser(
        prog="finmetric",
        description="exact combinatorics of finite metric spaces",
    )
    parser.add_argument("--json", action="store_true", help="machine output")
    _add_verbs(parser, "verb", _VERBS, [])
    return parser


def _add_verbs(parser, dest: str, table: dict, shared: list) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, handler, arguments) in table.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(handler, dict):
            _add_verbs(p, "subverb", handler, arguments)
            continue
        for flag, kwargs in shared + arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if next((tok for tok in argv if not tok.startswith("-")), None) == "similar":
        argv = ["::" if tok == "--" else tok for tok in argv]
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (InvalidSpace, SearchTooLarge, four_values.AmalgamationError,
            katetov.ResourceLimit, partitions.PreconditionError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
