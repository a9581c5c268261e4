"""Command-line surface: every library operation behind a verb, stable output.

Exit codes: 0 = verdict true / success, 1 = verdict false (witness printed),
2 = usage or resource error.  --json mirrors the text payload bit-exactly for
golden-file testing.  FINMETRIC_BUDGET overrides the Config bounds at once:
iso, copies and canon point bounds, the arrow copy budget, the Urysohn point
cap and the |S| bound of the 4-values scans.
"""

from __future__ import annotations

import argparse
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
    as_fraction,
    canonicalize,
    complete,
    copies,
    format_fraction,
    graph_from_text,
    isometries,
    space_from_text,
    space_to_json,
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
    return Config(
        iso_bound=b,
        copies_bound=b,
        canon_bound=b,
        arrow_copy_budget=b,
        urysohn_max_points=b,
        four_values_bound=b,
        ordering_bound=b,
    )


def _distances(tokens) -> DistanceSet:
    return DistanceSet(as_fraction(t) for t in tokens)


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


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _quad(q) -> str:
    return "(" + ",".join(format_fraction(v) for v in q) + ")"


# --- verb implementations ----------------------------------------------------

def cmd_check4v(args) -> int:
    s = _distances(args.distances)
    res = four_values.check_four_values(s, _config().four_values_bound)
    if res.holds:
        _emit(args, {"holds": True, "set": [format_fraction(v) for v in s]},
              [f"4-values condition holds for {s}"])
        return 0
    payload = {
        "holds": False,
        "set": [format_fraction(v) for v in s],
        "witness": [format_fraction(v) for v in res.witness],
        "witnessSwap": [format_fraction(v) for v in res.witness_swap],
        "witnessBad": [format_fraction(v) for v in res.witness_bad],
    }
    _emit(args, payload, [
        f"bad quadruple {_quad(res.witness)}",
        f"swap {_quad(res.witness_swap)} disagrees; bad member in table form "
        f"{_quad(res.witness_bad)}",
    ])
    return 1


def cmd_badquads(args) -> int:
    s = _distances(args.distances)
    rows = four_values.bad_quadruples(s, _config().four_values_bound)
    payload = {
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
    }
    _emit(args, payload, [four_values.format_bad_quadruple_table(rows)] if rows else ["(no bad quadruples)"])
    return 0 if not any(r.unresolved for r in rows) else 1


def cmd_similar(args) -> int:
    # the shell-level "--" separator is rewritten to "::" before parsing,
    # because argparse consumes the first bare "--" itself
    sep = next((tok for tok in ("::", "--") if tok in args.distances), None)
    if sep is None:
        raise InvalidSpace("usage: similar S... -- T...")
    split = args.distances.index(sep)
    s = _distances(args.distances[:split])
    t = _distances(args.distances[split + 1 :])
    verdict = four_values.similar(s, t)
    _emit(args, {"similar": verdict}, [f"similar: {str(verdict).lower()}"])
    return 0 if verdict else 1


def cmd_amalgamate(args) -> int:
    s = _distances(args.distances)
    y0 = _load_space(args.y0)
    y1 = _load_space(args.y1)
    x0 = _ints(args.x0) if args.x0 else []
    x1 = _ints(args.x1) if args.x1 else []
    result = four_values.amalgamate(s, y0, y1, x0, x1, _config())
    _emit(args, {"space": json.loads(space_to_json(result))},
          [space_to_text(result).rstrip()])
    return 0


def cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    ok, witness = validate(g, args.mode, l=args.l)
    payload = {"valid": ok, "witness": list(witness) if witness else None}
    if ok:
        _emit(args, payload, ["valid"])
        return 0
    _emit(args, payload, [f"invalid, witness {tuple(witness)}"])
    return 1


def cmd_complete(args) -> int:
    g = _load_graph(args.graph)
    space = complete(g, args.mode, r=as_fraction(args.cap) if args.cap else None)
    _emit(args, {"space": json.loads(space_to_json(space))},
          [space_to_text(space).rstrip()])
    return 0


def cmd_iso(args) -> int:
    x = _load_space(args.space)
    group = isometries(x, _config())
    payload = {"order": len(group), "permutations": [list(g) for g in group]}
    _emit(args, payload, [f"order: {len(group)}"] + [" ".join(map(str, g)) for g in group])
    return 0


def cmd_copies(args) -> int:
    y = _load_space(args.y)
    x = _load_space(args.x)
    found = copies(y, x, _config())
    payload = {"count": len(found), "copies": [list(c) for c in found]}
    _emit(args, payload, [f"count: {len(found)}"] + [" ".join(map(str, c)) for c in found])
    return 0 if found else 1


def cmd_katetov(args) -> int:
    x = _load_space(args.space)
    ok, witness = katetov.is_katetov(x, _fracs(args.values))
    payload = {"katetov": ok, "witness": list(witness) if witness else None}
    if ok:
        _emit(args, payload, ["katetov"])
        return 0
    _emit(args, payload, [f"not katetov, witness pair {witness}"])
    return 1


def cmd_extend(args) -> int:
    x = _load_space(args.space)
    result = katetov.extend_with(x, _fracs(args.values))
    _emit(args, {"space": json.loads(space_to_json(result))},
          [space_to_text(result).rstrip()])
    return 0


def cmd_urysohn(args) -> int:
    s = _distances(args.distances)
    try:
        space, log = katetov.urysohn_approx(s, args.cap, _config(), seed=args.seed)
    except katetov.ResourceLimit as exc:
        # the partial space goes to stdout; main reports the error and exits 2
        _emit_closure(args, exc.space, exc.log, {"pending": len(exc.pending)})
        raise
    _emit_closure(args, space, log, {})
    return 0


def _emit_closure(args, space, log, extra: dict) -> None:
    payload = {
        "space": json.loads(space_to_json(space)),
        "log": [
            {"subset": list(sub), "values": [format_fraction(v) for v in vals]}
            for sub, vals in log.entries
        ],
        **extra,
    }
    lines = [space_to_text(space).rstrip()]
    if log.entries:
        lines += ["# provenance", log.format()]
    _emit(args, payload, lines)


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


def cmd_ultra(args) -> int:
    x = _load_space(args.space)
    if args.what == "tree":
        t = ultratrees.tree_of_space(x)
        payload = {
            "levels": [format_fraction(v) for v in t.level_distances],
            "parents": list(t.parents),
            "leafPoints": {str(k): v for k, v in t.leaf_points.items()},
        }
        _emit(args, payload, [_tree_text(t)])
        return 0
    if args.what == "degree":
        rec = ultratrees.ramsey_degree_ultrametric(x, _config())
        payload = {"cLO": rec.orderings, "iso": rec.iso, "degree": rec.degree}
        _emit(args, payload, [f"cLO: {rec.orderings}  iso: {rec.iso}  degree: {rec.degree}"])
        return 0
    if args.what == "bigdegree":
        s = _distances(args.distances)
        deg = ultratrees.big_ramsey_degree(x, s)
        _emit(args, {"bigDegree": deg}, [f"big degree: {deg}"])
        return 0
    if args.what == "fichet":
        rep = ultratrees.fichet_embedding(x, args.p)
        payload = {
            "p": rep.p,
            "dimension": rep.dimension,
            "dimensionBound": rep.dimension_bound,
            "weightsP": {str(k): format_fraction(v) for k, v in rep.node_weights_p.items()},
        }
        _emit(args, payload, [
            f"p: {rep.p}  dimension: {rep.dimension} <= {rep.dimension_bound}",
            f"pairs verified: {len(rep.pair_checks)}",
        ])
        return 0
    raise InvalidSpace(f"unknown ultra subverb {args.what!r}")


def cmd_degree(args) -> int:
    x = _load_space(args.space)
    if args.metric_orderings:
        s = _distances(args.metric_orderings)
        rec = ramsey.ramsey_degree_metric_ordered(x, s, _config())
        payload = {"mLO": rec.orderings, "iso": rec.iso, "degree": rec.degree}
        _emit(args, payload, [f"mLO: {rec.orderings}  iso: {rec.iso}  degree: {rec.degree}"])
        return 0
    rec = ramsey.ramsey_degree_general(x, _config())
    payload = {"LO": rec.orderings, "iso": rec.iso, "degree": rec.degree}
    _emit(args, payload, [f"LO: {rec.orderings}  iso: {rec.iso}  degree: {rec.degree}"])
    return 0


def cmd_criticals(args) -> int:
    s = _distances(args.distances)
    crits = ramsey.critical_distances(s)
    _emit(args, {"critical": [format_fraction(v) for v in crits]},
          ["critical: " + " ".join(format_fraction(v) for v in crits)])
    return 0


def cmd_arrow(args) -> int:
    z = _load_space(args.z)
    y = _load_space(args.y)
    x = _load_space(args.x)
    res = ramsey.verify_arrow(z, y, x, k=args.k, l=args.l, config=_config())
    payload = {
        "holds": res.holds,
        "copies": res.copies_of_x,
        "colorings": res.colorings_checked,
        "witness": list(res.witness_coloring) if res.witness_coloring else None,
    }
    if res.holds:
        _emit(args, payload, [f"arrow holds ({res.colorings_checked} colorings over {res.copies_of_x} copies)"])
        return 0
    _emit(args, payload, ["arrow fails, witness coloring " + "".join(map(str, res.witness_coloring))])
    return 1


def cmd_orderprop(args) -> int:
    y = _load_space(args.y)
    x = _load_space(args.x)
    order = _ints(args.order)
    s = _distances(args.s) if args.s else None
    verdict = ramsey.verify_ordering_property_witness(
        y, x, order, ordering_class=args.ordering_class, s=s, config=_config()
    )
    _emit(args, {"holds": verdict}, [f"ordering property witness: {str(verdict).lower()}"])
    return 0 if verdict else 1


def cmd_color(args) -> int:
    if args.what in ("indiv", "greedy") and args.target is None:
        raise InvalidSpace(f"color {args.what} needs --target")
    if args.what == "indiv":
        x = _load_space(args.space)
        target = _load_space(args.target)
        mode = "sampled" if args.sampled else "exhaustive"
        report = partitions.indivisibility_search(
            x, target, k=args.k, mode=mode, samples=args.sampled or 100,
            seed=args.seed, config=_config(),
        )
        payload = {
            "exhaustive": report.exhaustive,
            "colorings": len(report.outcomes),
            "monochromatic": report.all_monochromatic(),
            "outcomes": [o.to_json_dict() for o in report.outcomes],
        }
        ok = report.all_monochromatic()
        _emit(args, payload, [
            f"{len(report.outcomes)} colorings, "
            f"{len(report.counterexamples)} without a monochromatic copy"
        ])
        return 0 if ok else 1
    if args.what == "greedy":
        x = _load_space(args.space)
        target = _load_space(args.target)
        res = partitions.greedy_monochromatic(x, _ints(args.coloring), target, _config())
        payload = {
            "copy": list(res.copy_indices),
            "color": res.color,
            "complete": res.complete,
            "obstruction": list(res.obstruction) if res.obstruction else None,
        }
        _emit(args, payload, [
            f"copy {' '.join(map(str, res.copy_indices))} in color {res.color}"
            + ("" if res.complete else " (partial)")
        ])
        return 0 if res.complete else 1
    if args.what == "divide":
        x = _load_space(args.space)
        centers = tuple(_ints(args.centers))
        radii = {c: r for c, r in zip(centers, _fracs(args.radii))}
        net = partitions.NetSystem(centers, radii)
        colors = partitions.divisibility_coloring(x, net)
        _emit(args, {"coloring": colors}, ["coloring: " + "".join(map(str, colors))])
        return 0
    if args.what == "annulus":
        x = _load_space(args.space)
        idx = partitions.annulus_lemma_check(
            x, args.y, args.start, args.end, as_fraction(args.r), args.n,
            _ints(args.chain), as_fraction(args.eps),
        )
        _emit(args, {"witnessIndex": idx}, [f"witness index: {idx}"])
        return 0
    if args.what == "lambda":
        x = _load_space(args.space)
        val = partitions.lambda_epsilon(x, args.point, as_fraction(args.eps))
        _emit(args, {"lambda": format_fraction(val)}, [f"lambda: {format_fraction(val)}"])
        return 0
    raise InvalidSpace(f"unknown color subverb {args.what!r}")


def cmd_hedgehog(args) -> int:
    prefix = _load_space(args.prefix)
    z = hedgehog.hedgehog_build(args.m, prefix, args.max_tree_size)
    if args.what == "build":
        payload = {
            "m": z.m,
            "baseCount": z.base_count,
            "treeNodes": [list(t) for t in z.tree_nodes],
            "space": json.loads(space_to_json(z.dz)),
        }
        _emit(args, payload, [
            f"m: {z.m}  base points: {z.base_count}  tree nodes: {len(z.tree_nodes)}",
            space_to_text(z.dz).rstrip(),
        ])
        return 0
    report = hedgehog.hedgehog_verify(z)
    payload = report.to_json_dict()
    _emit(args, payload, [
        f"cycles checked: {report.cycles_checked}",
        f"labels preserved: {str(report.labels_preserved).lower()}",
        f"branches verified: {report.branches_verified}",
        f"fattening ok: {str(report.fattening_ok).lower()}",
    ])
    return 0 if report.ok() else 1


def cmd_milliken(args) -> int:
    if args.what == "build":
        check = "sampled" if args.sampled else "exhaustive"
        ms = milliken.milliken_space(
            args.variant, args.depth, invert_membership=args.inverted,
            check=check, samples=args.sampled or 200000, seed=args.seed,
        )
        payload = {
            "variant": args.variant,
            "depth": args.depth,
            "points": len(ms.points),
            "metric": ms.metric,
            "witness": list(ms.witness) if ms.witness else None,
        }
        _emit(args, payload, [
            f"variant {args.variant} depth {args.depth}: {len(ms.points)} points, "
            f"metric: {str(ms.metric).lower()}"
            + ("" if ms.metric else f", witness {ms.witness}")
        ])
        return 0 if ms.metric else 1
    target = _load_space(args.target)
    emb = milliken.coding_embed(args.variant, args.depth, target)
    if emb is None:
        _emit(args, {"found": False}, ["no embedding at this depth"])
        return 1
    ok = milliken.verify_embedding(args.variant, emb, target)
    payload = {
        "found": True,
        "verified": ok,
        "points": [[list(c) for c in p] for p in emb],
    }
    _emit(args, payload, ["embedding: " + "; ".join(
        "{" + ",".join("".join(map(str, c)) or "()" for c in p) + "}" for p in emb
    ), f"verified: {str(ok).lower()}"])
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finmetric",
        description="exact combinatorics of finite metric spaces",
    )
    parser.add_argument("--json", action="store_true", help="machine output")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check4v", help="decide the 4-values condition")
    p.add_argument("distances", nargs="+")
    p.set_defaults(func=cmd_check4v)

    p = sub.add_parser("badquads", help="table of bad quadruples")
    p.add_argument("distances", nargs="+")
    p.set_defaults(func=cmd_badquads)

    p = sub.add_parser("similar", help="compare triple-inequality patterns: S... -- T...")
    p.add_argument("distances", nargs="+")
    p.set_defaults(func=cmd_similar)

    p = sub.add_parser("amalgamate", help="strong amalgam over a shared subspace")
    p.add_argument("distances", nargs="+")
    p.add_argument("--y0", required=True)
    p.add_argument("--y1", required=True)
    p.add_argument("--x0", default="")
    p.add_argument("--x1", default="")
    p.set_defaults(func=cmd_amalgamate)

    p = sub.add_parser("validate", help="check an edge-labelled graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=("metric", "ultrametric", "l-metric"), default="metric")
    p.add_argument("--l", type=int, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("complete", help="path-metric completion")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", choices=("sum-cap", "max"), default="sum-cap")
    p.add_argument("--cap", default=None)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("iso", help="isometry group")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("copies", help="isometric copies of x inside y")
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    p.set_defaults(func=cmd_copies)

    p = sub.add_parser("katetov", help="check the one-point extension inequality")
    p.add_argument("--space", required=True)
    p.add_argument("--values", required=True)
    p.set_defaults(func=cmd_katetov)

    p = sub.add_parser("extend", help="adjoin a one-point extension")
    p.add_argument("--space", required=True)
    p.add_argument("--values", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("urysohn", help="closure with the bounded extension property")
    p.add_argument("distances", nargs="+")
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_urysohn)

    p = sub.add_parser("ultra", help="ultrametric tree calculus")
    p.add_argument("what", choices=("tree", "degree", "bigdegree", "fichet"))
    p.add_argument("--space", required=True)
    p.add_argument("--s", dest="distances", nargs="*", default=[])
    p.add_argument("-p", type=int, default=1)
    p.set_defaults(func=cmd_ultra)

    p = sub.add_parser("degree", help="Ramsey degree of a space")
    p.add_argument("--space", required=True)
    p.add_argument("--metric-orderings", nargs="*", default=None)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("criticals", help="critical distances of a set")
    p.add_argument("distances", nargs="+")
    p.set_defaults(func=cmd_criticals)

    p = sub.add_parser("arrow", help="exhaustive arrow verification")
    p.add_argument("--z", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("-k", type=int, default=2)
    p.add_argument("-l", type=int, default=1)
    p.set_defaults(func=cmd_arrow)

    p = sub.add_parser("orderprop", help="ordering-property witness check")
    p.add_argument("--y", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--order", required=True)
    p.add_argument("--ordering-class", choices=("all", "convex", "metric"), default="all")
    p.add_argument("--s", nargs="*", default=None)
    p.set_defaults(func=cmd_orderprop)

    p = sub.add_parser("color", help="indivisibility experiments")
    p.add_argument("what", choices=("indiv", "greedy", "divide", "annulus", "lambda"))
    p.add_argument("--space", required=True)
    p.add_argument("--target")
    p.add_argument("-k", type=int, default=2)
    p.add_argument("--sampled", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coloring", default="")
    p.add_argument("--centers", default="")
    p.add_argument("--radii", default="")
    p.add_argument("--y", type=int, default=0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--end", type=int, default=0)
    p.add_argument("--r", default="1/2")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--chain", default="")
    p.add_argument("--eps", default="1/100")
    p.add_argument("--point", type=int, default=0)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("hedgehog", help="tree-of-copies gluing space")
    p.add_argument("what", choices=("build", "verify"))
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--prefix", required=True)
    p.add_argument("--max-tree-size", type=int, default=None)
    p.set_defaults(func=cmd_hedgehog)

    p = sub.add_parser("milliken", help="tree codings of small Urysohn spaces")
    p.add_argument("what", choices=("build", "embed"))
    p.add_argument("variant", choices=milliken.VARIANTS)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--inverted", action="store_true")
    p.add_argument("--sampled", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target")
    p.set_defaults(func=cmd_milliken)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = ["::" if tok == "--" else tok for tok in argv]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (InvalidSpace, SearchTooLarge, four_values.AmalgamationError,
            katetov.ResourceLimit, partitions.PreconditionError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
