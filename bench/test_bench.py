"""Self-checks of the benchmark: corpus determinism, repeatable digests and counts.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

FM = run.import_library()
LIB = workloads.Lib(FM)


def _value_fingerprint(v, workdir):
    if isinstance(v, (types.ModuleType, types.FunctionType, types.MethodType, workloads.Lib)):
        return getattr(v, "__name__", type(v).__name__)
    if isinstance(v, str) and v.startswith(str(workdir)):
        return Path(v).read_text()
    if isinstance(v, (list, tuple)):
        return [_value_fingerprint(x, workdir) for x in v]
    if type(v).__name__ == "EdgeLabelledGraph":
        return [v.n, checks.normalize(dict(v._labels))]
    if type(v).__name__ == "Config":
        return repr(v)
    return checks.normalize(v)


def corpus_fingerprint(workload, seed, workdir, passes=2):
    """Op names plus every input captured by each op's call."""
    files = workloads.Files(str(workdir))
    out = []
    for p in range(passes):
        for op in workloads.build_pass(workload, seed, p, LIB, files).ops:
            captured = list(op.call.__defaults__ or ())
            captured += [c.cell_contents for c in (op.call.__closure__ or ())]
            out.append([op.name, _value_fingerprint(captured, workdir)])
    return checks.digest("ok", json.loads(json.dumps(out, default=str)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corpus_is_identical_for_a_seed(workload, tmp_path):
    a = corpus_fingerprint(workload, 5, tmp_path / "a")
    shutil.rmtree(tmp_path / "a")
    assert corpus_fingerprint(workload, 5, tmp_path / "a") == a


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_corpora(workload, tmp_path):
    assert corpus_fingerprint(workload, 5, tmp_path / "a") != corpus_fingerprint(workload, 6, tmp_path / "b")


def _traced_pass(workload, seed, workdir):
    sess = run.Session(workload, seed, workdir)
    tracer = tracing.Tracer(sess.lib)
    tracer.install()
    try:
        recs = sess.run_pass(0, tracer=tracer)
    finally:
        tracer.uninstall()
    digests, failed = sess.check_pass(0, recs)
    calls = {key: rec[0] for key, rec in tracer.agg.items()}
    return digests, failed, dict(tracer.counts), calls


@pytest.mark.parametrize("workload", ("amalgamation", "closure", "symmetry"))
def test_two_passes_give_identical_digests_and_counts(workload, tmp_path):
    first = _traced_pass(workload, 3, tmp_path / "a")
    second = _traced_pass(workload, 3, tmp_path / "b")
    assert first[1] == 0
    assert first == second
    assert all(v > 0 for v in first[3].values())


def test_tracer_restores_the_library(tmp_path):
    before = (FM.spaces.isometries, FM.katetov.canonical_key, FM.spaces.FiniteMetricSpace.__init__)
    _traced_pass("symmetry", 1, tmp_path)
    assert (FM.spaces.isometries, FM.katetov.canonical_key,
            FM.spaces.FiniteMetricSpace.__init__) == before


def _bench(*args, cwd):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_traced_run_reports_every_per_layer_metric():
    proc = _bench("--workload", "symmetry", "--seed", "4", "--seconds", "1", "--trace", "1",
                  cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert result["correct"] and result["failed"] == 0


def test_without_the_library_the_run_fails(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "closure", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
