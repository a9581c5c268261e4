"""finmetric benchmark: one seeded workload, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src`.
With --trace 0 the ops of fresh seeded passes run until S seconds of op
time are measured, and the end-to-end metrics are printed.  With --trace 1
pass 0 runs once untraced and once traced, and the per-layer metrics are
printed.  The last stdout line is the JSON result.  `--record` rewrites the
reference digests of the default seed (see NOTES.md).

Every op time is normalized to a reference machine speed: a fixed stdlib
calibration kernel runs between chunks of ops, and each op's wall time is
scaled by CALIB_REF_MS over the mean of the calibration samples around it.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 0
CALIB_REF_MS = 4.0      # calibration sample time that defines the reference speed
CHUNK_S = 0.1           # op time between calibration samples
SETUP_SAMPLES = 5       # setups per untraced run (one in-process, the rest in fresh processes)
WALL_GUARD_S = 110      # start no new pass after this much wall time


_CALIB_ROWS = [[F(0) if i == j else F((i + j) % 3 + 2, 2) for j in range(9)] for i in range(9)]


def calib_kernel():
    """Fixed interpreter work shaped like the library's: fraction triangle
    checks, Katetov-style comparisons, slicing, tuples and a dict."""
    d = _CALIB_ROWS
    n = len(d)
    hits = 0
    for i, j, k in itertools.combinations(range(n), 3):
        a, b, c = d[i][j], d[i][k], d[j][k]
        if a <= b + c and b <= a + c and c <= a + b:
            hits += 1
    f = [F(k, 3) for k in range(1, n + 1)]
    ok = all(abs(f[a] - f[b]) <= d[a][b] <= f[a] + f[b] + 2 for a in range(n) for b in range(a + 1, n))
    table = {tuple(tuple(row[:5]) for row in d[:5]): hits}
    return hits, ok, len(table)


def calib_sample():
    """Milliseconds for one calibration sample (the kernel six times)."""
    t0 = time.perf_counter()
    for _ in range(6):
        calib_kernel()
    return (time.perf_counter() - t0) * 1000.0


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def import_library():
    """Import finmetric from this checkout's src, never from elsewhere."""
    if not (SRC / "finmetric" / "__init__.py").is_file():
        raise ImportError(f"no finmetric package under {SRC}")
    sys.path.insert(0, str(SRC))
    import finmetric
    import finmetric.cli  # noqa: F401  (part of set-up: the CLI slice needs it)

    if Path(finmetric.__file__).resolve().parent != (SRC / "finmetric").resolve():
        raise ImportError(f"finmetric resolved to {finmetric.__file__}")
    return finmetric


class Session:
    """One run: set-up, passes, checks and the numbers they leave."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed = workload, seed
        t0 = time.perf_counter()
        fm = import_library()
        import workloads

        self.w = workloads
        self.lib = workloads.Lib(fm)
        self.files = workloads.Files(str(workdir))
        self.passes = {0: self.build(0)}
        self.setup_raw_s = time.perf_counter() - t0
        self.setup_calib_ms = statistics.median(calib_sample() for _ in range(5))
        self.reference = self._load_reference()
        self.calib = []           # every calibration sample, ms
        self.failures = []

    def build(self, p):
        return self.w.build_pass(self.workload, self.seed, p, self.lib, self.files)

    def _load_reference(self):
        path = REFERENCE_DIR / f"{self.workload}.json"
        if self.seed != REFERENCE_SEED or not path.is_file():
            return None
        return json.loads(path.read_text())["passes"]

    def run_pass(self, p, tracer=None, spans=None):
        """Run pass p; returns [(op, status, value, raw_s, norm_s)]."""
        the_pass = self.passes.pop(p, None) or self.build(p)
        out = []
        prev = calib_sample()
        self.calib.append(prev)
        chunk, chunk_s = [], 0.0

        def flush():
            nonlocal prev, chunk, chunk_s
            cur = calib_sample()
            self.calib.append(cur)
            factor = CALIB_REF_MS / ((prev + cur) / 2)
            for rec in chunk:
                rec[4] = rec[3] * factor
            out.extend(chunk)
            prev, chunk, chunk_s = cur, [], 0.0

        def run(ops):
            nonlocal chunk_s
            for op in ops:
                if tracer is not None:
                    tracer.top = op.top
                t0 = time.perf_counter()
                try:
                    value, status = op.call(), "ok"
                except Exception as exc:  # an op's exception is its outcome
                    value, status = exc, "raised"
                t1 = time.perf_counter()
                if spans is not None:
                    spans.append({"op": len(spans), "pass": p, "name": op.name,
                                  "start": t0, "end": t1, "parent": f"pass{p}"})
                chunk.append([op, status, value, t1 - t0, None])
                chunk_s += t1 - t0
                if chunk_s >= CHUNK_S:
                    flush()

        # as in timeit, no cyclic collection runs inside the timed ops
        gc.collect()
        gc.disable()
        try:
            run(the_pass.ops)
            if the_pass.follow is not None:
                flush()
                run(the_pass.follow([(r[0], (r[1], r[2])) for r in out]))
            if chunk:
                flush()
        finally:
            gc.enable()
        return out

    def check_pass(self, p, records):
        """Oracle checks plus, on the default seed, the recorded digests."""
        import checks

        digests, failed = [], {}
        for i, (op, status, value, _, _) in enumerate(records):
            digests.append(checks.digest(status, value))
            err = op.check(status, value)
            if err:
                failed[i] = err
        if self.reference is not None and p < len(self.reference):
            want = self.reference[p]["digests"]
            for i, (rec, got) in enumerate(zip(records, digests)):
                if i >= len(want) or got != want[i]:
                    failed.setdefault(i, "digest differs from the reference")
            if len(want) != len(digests):
                failed.setdefault(len(digests) - 1, "op count differs from the reference")
        for i, err in sorted(failed.items()):
            self.failures.append({"pass": p, "index": i, "op": records[i][0].name, "error": err})
        return digests, len(failed)

    def contract_probes(self):
        """The documented exit-2 inputs; returns the ones that break the contract."""
        import checks

        broken = []
        for label, argv in self.w.contract_probes(self.lib, self.files):
            try:
                code = checks.run_cli(self.lib.cli.main, argv)["exit"]
            except Exception as exc:  # a traceback is what the contract forbids
                code = f"{type(exc).__name__}: {exc}"
            if code != 2:
                broken.append({"input": label, "outcome": code})
        return broken


def metadata(calib):
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # metadata only; absence is reported, not fatal
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "calib_ms_median": statistics.median(calib)}


def setup_only(args):
    """Set up in a fresh process and report the normalized set-up time."""
    workdir = WORK / f"setup-{args.workload}-{os.getpid()}"
    try:
        sess = Session(args.workload, args.seed, workdir)
        print(json.dumps({"setup_s": sess.setup_raw_s * CALIB_REF_MS / sess.setup_calib_ms}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def fresh_setups(args, count):
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record", action="store_true",
                    help="run every pass of the default seed and rewrite its reference digests")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    try:
        if args.setup_only:
            return setup_only(args)
        if args.record:
            return record(args)
        return measure(args)
    except ImportError as exc:
        return fail(f"cannot import the library: {exc}")


def measure(args):
    start = time.perf_counter()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        sess = Session(args.workload, args.seed, workdir)
        setups = [sess.setup_raw_s * CALIB_REF_MS / sess.setup_calib_ms]
        if args.trace == 0:
            setups += fresh_setups(args, SETUP_SAMPLES - 1)
            return untraced(args, sess, setups, start)
        return traced(args, sess)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced(args, sess, setups, start):
    records, per_pass, digests = [], [], []
    op_s, p, failed = 0.0, 0, 0
    while p < sess.w.MAX_PASSES and (p == 0 or op_s < args.seconds) \
            and time.perf_counter() - start < WALL_GUARD_S:
        calib_from = len(sess.calib)
        recs = sess.run_pass(p)
        op_s += sum(r[3] for r in recs)
        t_check = time.perf_counter()
        dig, nfail = sess.check_pass(p, recs)
        check_s = time.perf_counter() - t_check
        digests.append(dig)
        failed += nfail
        per_pass.append({"pass": p, "ops": len(recs), "op_s": sum(r[3] for r in recs),
                         "norm_s": sum(r[4] for r in recs),
                         "calib_ms": statistics.median(sess.calib[calib_from:]), "check_s": check_s})
        records.extend((p, r[0].name, r[3], r[4]) for r in recs)
        p += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat_ms = [r[3] * 1000.0 for r in records]
    broken = sess.contract_probes()
    metrics = {
        "ops_per_s": (len(records) / sum(r[3] for r in records), "1/s"),
        "latency_ms.p50": (statistics.median(lat_ms), "ms"),
        "latency_ms.p95": (quantile(lat_ms, 95), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    named, by_op = {}, {}
    for _, name, raw, norm in records:
        if "/" in name:
            named.setdefault(name, []).append(norm * 1000.0)
        tally = by_op.setdefault(name, [0, 0.0])
        tally[0] += 1
        tally[1] += norm
    report = {
        "workload": args.workload, "seed": args.seed, "trace": 0,
        "metadata": metadata(sess.calib), "passes": per_pass, "setups_s": setups,
        "latency_samples": len(records), "failed_ratio": failed / len(records),
        "failures": sess.failures[:50], "contract_violations": broken,
        "baseline_rows_ms": {k: statistics.median(v) for k, v in sorted(named.items())},
        "ops_by_name": by_op, "digests": digests,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    _write(f"run-{args.workload}-seed{args.seed}.json", report)
    _summary(args, len(records), failed, broken, per_pass)
    return _emit(failed, len(records), metrics)


def traced(args, sess):
    import tracing

    base = sess.run_pass(0)
    _, failed = sess.check_pass(0, base)
    tracer = tracing.Tracer(sess.lib)
    spans = []
    tracer.install()
    try:
        recs = sess.run_pass(0, tracer=tracer, spans=spans)
    finally:
        tracer.uninstall()
    failed += sess.check_pass(0, recs)[1]
    wall_s = sum(r[3] for r in recs) - tracer.hook_s
    overhead = sum(r[4] for r in recs) / sum(r[4] for r in base)
    broken = sess.contract_probes()
    records = [(0, r[0].name, r[3], r[4]) for r in base + recs]
    per_layer = tracer.metrics(wall_s, overhead, statistics.median(sess.calib))
    per_layer["failed_ratio"] = (failed / len(records), "ratio")
    per_layer["cli.contract_violations"] = (len(broken), "count")
    named = {r[0].name: {"untraced_ms": r[4] * 1000.0} for r in base if "/" in r[0].name}
    for r in recs:
        if "/" in r[0].name:
            named[r[0].name]["traced_ms"] = r[4] * 1000.0
    t0 = spans[0]["start"] if spans else 0.0
    for s in spans:
        s["start"], s["end"] = s["start"] - t0, s["end"] - t0
    _write(f"trace-{args.workload}-seed{args.seed}.json", {
        "workload": args.workload, "seed": args.seed, "metadata": metadata(sess.calib),
        "traced_wall_s": wall_s, "hook_s": tracer.hook_s, "baseline_rows": named,
        "metrics": {k: v for k, (v, _) in per_layer.items()},
        "aggregates": tracer.aggregate_rows(), "spans": spans,
        "contract_violations": broken, "failures": sess.failures[:50],
    })
    _summary(args, len(records), failed, broken, [])
    return _emit(failed, len(records), per_layer)


def _write(name, payload):
    WORK.mkdir(exist_ok=True)
    (WORK / name).write_text(json.dumps(payload, indent=1, sort_keys=True, default=str))


def _summary(args, attempted, failed, broken, per_pass):
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "latency_samples": attempted, "failed": failed, "passes": len(per_pass),
            "cli_contract_violations": [b["input"] for b in broken]}
    print(json.dumps(info))


def _emit(failed, attempted, metrics):
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def record(args):
    """Run every pass of the default seed under the oracles; store the digests."""
    if args.seed != REFERENCE_SEED:
        return fail(f"references are recorded for seed {REFERENCE_SEED} only")
    workdir = WORK / f"record-{args.workload}-{os.getpid()}"
    try:
        sess = Session(args.workload, args.seed, workdir)
        sess.reference = None
        passes = []
        for p in range(sess.w.MAX_PASSES):
            recs = sess.run_pass(p)
            digests, _ = sess.check_pass(p, recs)
            passes.append({"ops": len(recs), "digests": digests})
            print(f"pass {p}: {len(recs)} ops, {sum(r[3] for r in recs):.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if sess.failures:
        for f in sess.failures[:20]:
            print(f"oracle failure: {f}", file=sys.stderr)
        return fail("oracle checks failed; reference not written")
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seed": REFERENCE_SEED, "passes": passes}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
