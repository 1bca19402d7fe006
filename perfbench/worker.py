"""One workload process of the benchmark; started by perfbench/run.py.

    worker.py --workload W --seed N [--threads T] [--trace 0|1]
              [--setup-only] --result PATH

A fresh process sets up as a user's process would (import kfplab, load
the calibration, build and validate the workload's inputs), notes the
time.monotonic() reading at which it was ready, runs the workload once
and applies the workload's own checks to the outputs.  With --trace 1
the run is traced (perfbench/spans.py), the spans are written to
.perfbench/ and the per-layer metrics are added.  Everything measured
goes to PATH as JSON; a run that raises is recorded there as failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"


def setup(name, seed, threads=None):
    """Everything a fresh process does before its first run."""
    import kfplab
    from kfplab.calibration import load_calibration
    from workloads import WORKLOADS

    src = (ROOT / "src").resolve()
    if src not in Path(kfplab.__file__).resolve().parents:
        raise SystemExit(f"kfplab imported from {kfplab.__file__}, "
                         f"not from {src}")
    load_calibration()
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, threads)
    workload.setup(inputs)
    return workload, inputs


def run_once(workload, inputs, rec=None) -> dict:
    """Time one run; with a Recorder, trace it under a root span."""
    from workloads import CliWorkload

    out_dir = OUT / "out" / workload.name
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if rec is None:
            outcome = workload.run(inputs, out_dir)
        else:
            from spans import traced
            root = "cli" if isinstance(workload, CliWorkload) else "experiment"
            with traced(rec), rec.root(root):
                outcome = workload.run(inputs, out_dir)
    except Exception as exc:  # a raising run is a failed run
        wall = time.perf_counter() - t0
        traceback.print_exc()
        return {"wall_s": wall, "cpu_s": time.process_time() - cpu0,
                "problems": [f"raised {type(exc).__name__}: {exc}"],
                "digests": {}}
    wall = time.perf_counter() - t0
    result = {"wall_s": wall, "cpu_s": time.process_time() - cpu0,
              "problems": outcome.problems, "digests": outcome.digests}
    if rec is not None:
        from spans import layer_metrics
        layers = layer_metrics(rec.spans)
        if isinstance(workload, CliWorkload):
            layers["cli.output_bytes"] = sum(p.stat().st_size
                                             for p in out_dir.iterdir())
            layers["cli.cpu_utilization"] = result["cpu_s"] / (
                wall * inputs["threads"])
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workload, inputs = setup(args.workload, args.seed, args.threads)
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        rec = None
        if args.trace:
            from spans import Recorder
            rec = Recorder()
        result.update(run_once(workload, inputs, rec))
        result.update(
            peak_rss_mib=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            description=workload.describe(inputs),
            python=platform.python_version(),
            numpy=sys.modules["numpy"].__version__)
        if rec is not None:
            spans = (OUT / f"spans-{workload.name}-seed{args.seed}"
                     f"-threads{args.threads or 'default'}.json")
            spans.write_text(json.dumps([s.as_dict() for s in rec.spans]))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
