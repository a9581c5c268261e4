"""Span tracing of the finmetric layers from outside the library.

`Tracer.install` wraps the public functions the benchmark reaches (and
`FiniteMetricSpace.__init__`) and rebinds each wrapper in its defining
module and wherever another finmetric module imported it by name.  Calls
are aggregated by (function, via, top): `via` is the layer that entered the
function's layer, `top` the family of the top-level op.  Self time is a
span's duration minus its wrapped children.  Hooks add computed work counts
(marked "computed" in the notes); their own time is kept out of every span.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter

LAYERS = ("spaces", "four_values", "katetov", "ultratrees", "ramsey",
          "partitions", "hedgehog", "milliken", "cli")

# Per-quadruple helper: wrapping it would make the trace measure itself.
UNWRAPPED = {"interval"}
EXTRA = {"spaces": ("space_from_text", "space_from_json", "graph_from_text"), "cli": ("main",)}


def _on_result(counters):
    """A hook adding counter(args, result) under each key when the call returned."""
    def hook(counts, args, kwargs, result, exc):
        if exc is None:
            for key, counter in counters.items():
                counts[key] += counter(args, result)
    return hook


def _urysohn_counts(counts, args, kwargs, result, exc):
    s, cap = args[0], args[1]
    if exc is not None:
        space = getattr(exc, "space", None)
        if space is None:
            return
        final = space.n
    else:
        final = result[0].n
    subsets = maps = 0
    for m in range(1, final + 1):
        for k in range(1, min(cap - 1, m) + 1):
            c = math.comb(m, k)
            subsets += c
            maps += c * len(s) ** k
    counts["katetov.build.points_added"] += final - 1
    counts["katetov.build.subsets_scanned"] += subsets
    counts["katetov.build.maps_tested"] += maps


def _check4v_counts(counts, args, kwargs, result, exc, seen):
    if exc is not None:
        return
    vals = args[0].values
    m = len(vals)
    if result.holds:
        counts["four_values.quads_scanned"] += m ** 4
    else:
        rank = 0
        for u in result.witness:
            rank = rank * m + vals.index(u)
        counts["four_values.quads_scanned"] += rank + 1
    if vals in seen:
        counts["four_values.check.repeats"] += 1
    seen.add(vals)


def _construct_counts(counts, args, kwargs, result, exc):
    check = args[2] if len(args) > 2 else kwargs.get("check", True)
    if exc is None and check:
        counts["spaces.triangles_checked"] += math.comb(len(args[1]), 3)


def _complete_counts(counts, args, kwargs, result, exc):
    if exc is None or "consistent" in str(exc):
        counts["spaces.complete.relaxations"] += args[0].n ** 3


def _milliken_counts(counts, args, kwargs, result, exc):
    if exc is not None:
        return
    n = len(result.points)
    counts["milliken.points"] += n
    if kwargs.get("check", "exhaustive") == "exhaustive":
        counts["milliken.distance_evals"] += n * (n - 1) // 2
        pivots = n if result.metric else max(result.witness) + 1
        counts["milliken.scan_entries"] += n * n * pivots
    else:
        counts["milliken.distance_evals"] += 3 * kwargs.get("samples", 200_000)


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.agg = {}            # (qualname, via, top) -> [calls, incl_s, self_s, raised]
        self.counts = Counter()
        self.stack = []          # frames: [layer, via, child_s]
        self.top = "op"
        self.hook_s = 0.0
        self._saved = []
        self._seen_sets = set()
        self._candidates = {}

    # -- hooks ------------------------------------------------------------------
    def _embed_counts(self, counts, args, kwargs, result, exc):
        key = (args[0], args[1])
        if key not in self._candidates:  # neither helper is wrapped
            mi = self.lib.milliken
            self._candidates[key] = len(mi.admissible_points(mi.load_variant(args[0]), args[1]))
        counts["milliken.embed.candidates"] += self._candidates[key]

    def _hooks(self):
        factorial_n = {"ramsey.orderings_scanned": lambda a, r: math.factorial(a[0].n)}
        return {
            "spaces.isometries": _on_result({"spaces.iso.group_order_sum": lambda a, r: len(r)}),
            "spaces.copies": _on_result({"spaces.copies.found": lambda a, r: len(r)}),
            "ramsey.metric_orderings_count": _on_result(factorial_n),
            "ramsey.order_types": _on_result(factorial_n),
            "ramsey.verify_arrow": _on_result(
                {"ramsey.arrow.colorings_checked": lambda a, r: r.colorings_checked}),
            "partitions.indivisibility_search": _on_result(
                {"partitions.colorings_scanned": lambda a, r: len(r.outcomes)}),
            "hedgehog.hedgehog_build": _on_result({"hedgehog.points": lambda a, r: r.dz.n,
                                                   "hedgehog.relaxations": lambda a, r: r.dz.n ** 3}),
            "hedgehog.hedgehog_verify": _on_result(
                {"hedgehog.cycles_checked": lambda a, r: r.cycles_checked}),
            "four_values.check_four_values": functools.partial(_check4v_counts, seen=self._seen_sets),
            "spaces.FiniteMetricSpace.__init__": _construct_counts,
            "spaces.complete": _complete_counts,
            "katetov.urysohn_approx": _urysohn_counts,
            "milliken.milliken_space": _milliken_counts,
            "milliken.coding_embed": self._embed_counts,
        }

    # -- wrapping -----------------------------------------------------------------
    def _wrap(self, fn, layer, qual, hook):
        tr = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1] if stack else None
            if parent is None:
                via = "op"
            elif parent[0] != layer:
                via = parent[0]
            else:
                via = parent[1]
            frame = [layer, via, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr._close(qual, layer, frame, parent, perf() - t0, True)
                if hook is not None:
                    tr._run_hook(hook, args, kwargs, None, exc, parent)
                raise
            tr._close(qual, layer, frame, parent, perf() - t0, False)
            if hook is not None:
                tr._run_hook(hook, args, kwargs, result, None, parent)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _close(self, qual, layer, frame, parent, dt, raised):
        self.stack.pop()
        key = (qual, frame[1], self.top)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[2]
        if raised and (parent is None or parent[0] != layer):
            rec[3] += 1
        if parent is not None:
            parent[2] += dt

    def _run_hook(self, hook, args, kwargs, result, exc, parent):
        t0 = time.perf_counter()
        hook(self.counts, args, kwargs, result, exc)
        dt = time.perf_counter() - t0
        self.hook_s += dt
        if parent is not None:
            parent[2] += dt

    def targets(self):
        """(layer, qualname, owner, attribute, original) for every wrapped callable."""
        fm = self.lib.fm
        out = []
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            names = [n for n, v in vars(fm).items()
                     if callable(v) and not isinstance(v, type)
                     and getattr(v, "__module__", None) == mod.__name__ and n not in UNWRAPPED]
            names += [n for n in EXTRA.get(layer, ()) if n not in names]
            for n in sorted(names):
                out.append((layer, f"{layer}.{n}", mod, n, getattr(mod, n)))
        fms = self.lib.spaces.FiniteMetricSpace
        out.append(("spaces", "spaces.FiniteMetricSpace.__init__", fms, "__init__", fms.__init__))
        return out

    def install(self):
        hooks = self._hooks()
        wrapped = {}
        for layer, qual, owner, attr, fn in self.targets():
            w = self._wrap(fn, layer, qual, hooks.get(qual))
            wrapped[id(fn)] = w
            if isinstance(owner, type):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, w)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "finmetric" or name.startswith("finmetric.")):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrapped.get(id(val))
                if w is not None:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved = []

    # -- metrics ------------------------------------------------------------------
    def _sum(self, field, quals, via=None, top=None):
        return sum(rec[field] for (q, v, t), rec in self.agg.items()
                   if q in quals and (via is None or v == via) and (top is None or t == top))

    def metrics(self, wall_s, overhead_ratio, calib_ms):
        """Every per-layer metric; wall_s is the traced ops' time without hooks."""
        out = {}
        for layer in LAYERS:
            quals = {q for (q, _, _) in self.agg if q.split(".", 1)[0] == layer}
            self_s = self._sum(2, quals)
            out[f"{layer}.calls"] = (self._sum(0, quals), "count")
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.share"] = (self_s / wall_s if wall_s > 0 else 0.0, "ratio")
            out[f"{layer}.raised"] = (self._sum(3, quals), "count")

        def fn(*quals, via=None, top=None):
            return self._sum(0, set(quals), via, top), self._sum(2, set(quals), via, top)

        c = self.counts
        calls, self_s = fn("four_values.check_four_values")
        out["four_values.check.calls"] = (calls, "count")
        out["four_values.check.self_s"] = (self_s, "s")
        out["four_values.check.repeat_ratio"] = (c["four_values.check.repeats"] / calls if calls else 0.0, "ratio")
        out["four_values.quads_scanned"] = (c["four_values.quads_scanned"], "count")
        out["four_values.badquads.self_s"] = (fn("four_values.bad_quadruples")[1], "s")
        out["four_values.amalgamate.self_s"] = (fn("four_values.amalgamate")[1], "s")
        calls, self_s = fn("spaces.FiniteMetricSpace.__init__")
        out["spaces.construct.calls"] = (calls, "count")
        out["spaces.construct.self_s"] = (self_s, "s")
        out["spaces.triangles_checked"] = (c["spaces.triangles_checked"], "count")
        out["spaces.iso.self_s"] = (fn("spaces.isometries")[1], "s")
        out["spaces.iso.group_order_sum"] = (c["spaces.iso.group_order_sum"], "count")
        out["spaces.canon.calls"] = (fn("spaces.canonicalize")[0], "count")
        out["spaces.canon.self_s"] = (fn("spaces.canonicalize", "spaces.canonical_key")[1], "s")
        out["spaces.copies.self_s"] = (fn("spaces.copies")[1], "s")
        out["spaces.copies.found"] = (c["spaces.copies.found"], "count")
        out["spaces.complete.self_s"] = (fn("spaces.complete")[1], "s")
        out["spaces.complete.relaxations"] = (c["spaces.complete.relaxations"], "count")
        katetov = {q for (q, _, _) in self.agg if q.startswith("katetov.")}
        out["katetov.build.self_s"] = (self._sum(2, katetov, top="build"), "s")
        for key in ("points_added", "subsets_scanned", "maps_tested"):
            out[f"katetov.build.{key}"] = (c[f"katetov.build.{key}"], "count")
        for short, qual in (("realizers", "katetov.realizers"), ("is_katetov", "katetov.is_katetov")):
            calls, self_s = fn(qual)
            out[f"katetov.{short}.calls"] = (calls, "count")
            out[f"katetov.{short}.self_s"] = (self_s, "s")
        out["katetov.canon_key.calls"] = (fn("spaces.canonical_key", via="katetov")[0], "count")
        out["katetov.canon_key.self_s"] = (
            fn("spaces.canonical_key", "spaces.canonicalize", via="katetov")[1], "s")
        out["katetov.query.self_s"] = (self._sum(2, katetov, top="query"), "s")
        out["ramsey.orderings_scanned"] = (c["ramsey.orderings_scanned"], "count")
        out["ramsey.arrow.self_s"] = (fn("ramsey.verify_arrow")[1], "s")
        out["ramsey.arrow.colorings_checked"] = (c["ramsey.arrow.colorings_checked"], "count")
        out["partitions.colorings_scanned"] = (c["partitions.colorings_scanned"], "count")
        out["partitions.copy_searches"] = (fn("spaces.copies", via="partitions")[0], "count")
        out["hedgehog.build.self_s"] = (fn("hedgehog.hedgehog_build")[1], "s")
        out["hedgehog.verify.self_s"] = (fn("hedgehog.hedgehog_verify")[1], "s")
        for key in ("points", "relaxations", "cycles_checked"):
            out[f"hedgehog.{key}"] = (c[f"hedgehog.{key}"], "count")
        out["milliken.build.self_s"] = (fn("milliken.milliken_space")[1], "s")
        for key in ("points", "distance_evals", "scan_entries"):
            out[f"milliken.{key}"] = (c[f"milliken.{key}"], "count")
        out["milliken.embed.self_s"] = (fn("milliken.coding_embed")[1], "s")
        out["milliken.embed.candidates"] = (c["milliken.embed.candidates"], "count")
        out["cli.inclusive_s"] = (self._sum(1, {"cli.main"}), "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        out["machine.calib_ms"] = (calib_ms, "ms")
        return out

    def aggregate_rows(self):
        return [{"function": q, "via": v, "top": t, "calls": r[0], "inclusive_s": r[1],
                 "self_s": r[2], "raised": r[3]}
                for (q, v, t), r in sorted(self.agg.items())]
