"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The slow tests run every workload once untraced and twice traced (about
a minute on a 2-core machine): the counts named below must repeat
exactly, and tracing must not change a single output byte.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import Recorder, covered, layer_metrics, traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".perfbench" / "test"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
EXACT_COUNTS = ("march.cell_steps", "coefficients.points",
                "geometry.contains.points", "kernel.g.points", "weak.pairs",
                "march.stored_mb")


def test_self_time_subtracts_the_union_of_overlapping_children():
    rec = Recorder()
    with rec.root("cli") as root:
        def child():
            with rec.span("march"):
                threading.Event().wait(0.05)

        with ThreadPoolExecutor(max_workers=2) as pool:
            for fut in [pool.submit(child) for _ in range(2)]:
                fut.result()
    kids = [s for s in rec.spans if s.parent == root.id]
    assert [s.name for s in kids] == ["march", "march"]
    union = covered(root, kids)
    assert union < sum(s.end - s.start for s in kids)
    metrics = layer_metrics(rec.spans)
    assert metrics["cli.self_s"] == pytest.approx(
        root.end - root.start - union)
    assert metrics["march.self_s"] > 2 * 0.04


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_tracing_changes_no_output(name):
    from kfplab.solver.coefficients import CoefficientField

    original = CoefficientField.__dict__["diffusion"]
    workload = WORKLOADS[name]
    inputs = workload.inputs(REFERENCE["default_seed"])
    plain = workload.run(inputs, SCRATCH / name / "plain")
    assert plain.problems == []
    assert plain.digests == REFERENCE["digests"][name]

    layers = []
    for i in range(2):
        rec = Recorder()
        with traced(rec), rec.root("cli"):
            outcome = workload.run(inputs, SCRATCH / name / f"traced{i}")
        assert outcome.problems == []
        assert outcome.digests == plain.digests
        layers.append(layer_metrics(rec.spans))
    assert CoefficientField.__dict__["diffusion"] is original

    listed = {m["name"] for m in BENCH["per_layer"]}
    assert set(layers[0]) <= listed
    assert layers[0]["march.cell_steps"] > 0
    for key in EXACT_COUNTS:
        assert layers[0][key] == layers[1][key], key


def test_run_refuses_a_checkout_without_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle_kernel",
         "--seconds", "1"], cwd=bare, capture_output=True, text=True,
        timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
