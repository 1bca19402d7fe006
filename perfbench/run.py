"""kfplab benchmark: one workload, one seed, a closed loop of runs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the program is imported from src/.
One client drives the load in a closed loop: each run is a fresh
workload process (perfbench/worker.py), as a user's `kfplab` command
is, and the next run starts only when the previous one has finished.
No run starts after S seconds.  A run uses at most the two threads its
config asks for; BLAS and OpenMP pools are pinned to one thread.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: the median
wall time of one run (set-up excluded), the median set-up time of the
fresh processes, and the median peak resident memory of a run's
process.  --trace 1 runs the same loop, then one traced run (for the
ensemble also a traced threads=1 run) that wraps each layer's entry
points (perfbench/spans.py), and prints the per-layer metrics.

Every run passes the correctness gate: the workload's own checks
(perfbench/workloads.py), and output digests equal across the runs
and, for the default seed, equal to perfbench/reference.json.  Failed
runs over attempted runs is the error rate.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A run record (code version, machine, load, thread
environment) and every run's figures are written to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("KFPLAB_THREADS", "KFPLAB_OUT", "PYTHONPATH")}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(OUT / "tmp")
    return env


class Runner:
    """Starts workload processes and keeps the whole call in its time limit."""

    def __init__(self, args, env):
        self.args = args
        self.env = env
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def process(self, *extra) -> dict:
        """One fresh workload process; set-up seconds go into 'setup_s'."""
        path = OUT / "run.json"
        path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--result", str(path), *extra]
        start = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                              stdout=subprocess.DEVNULL,
                              timeout=self.deadline - start)
        if proc.returncode != 0 or not path.is_file():
            raise RuntimeError(f"workload process exited {proc.returncode}")
        result = json.loads(path.read_text())
        result["setup_s"] = result.pop("ready") - start
        return result


class Gate:
    """Output digests must agree across runs and, for the default seed,
    with the recorded ones."""

    def __init__(self, expected):
        self.expected = expected

    def judge(self, run):
        """Add a digest mismatch to the run's problems."""
        if self.expected is None and not run["problems"]:
            self.expected = run["digests"]
        elif self.expected is not None and run["digests"] != self.expected:
            run["problems"].append(f"output digests {run['digests']} differ "
                                   f"from {self.expected}")


def source_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def high_percentile(values):
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=reference["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kfplab" / "__init__.py").is_file():
        print(f"no kfplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    env = worker_env()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "thread_env": {k: env.get(k) for k in (*THREAD_ENV, "KFPLAB_THREADS")},
    }

    runner = Runner(args, env)
    gate = Gate(reference["digests"][args.workload]
                if args.seed == reference["default_seed"] else None)
    runs, traced = [], []
    try:
        start = time.monotonic()
        while not runs or time.monotonic() - start < args.seconds:
            runs.append(runner.process())
        setups = [r["setup_s"] for r in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.process("--setup-only")["setup_s"])
        if args.trace:
            traced.append(runner.process("--trace", "1"))
            if args.workload == "ensemble_standard":
                traced.append(runner.process("--trace", "1", "--threads", "1"))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark stopped: {exc}", file=sys.stderr)
        return 1
    for run in runs + traced:
        gate.judge(run)

    every_run = runs + traced
    failed = sum(1 for r in every_run if r["problems"])
    walls = [r["wall_s"] for r in runs]
    wall_median = statistics.median(walls)
    if args.trace:
        values = dict(traced[0]["layers"])
        values["trace.overhead_s"] = traced[0]["wall_s"] - wall_median
        if len(traced) > 1:
            values["cli.thread_speedup"] = (traced[1]["wall_s"]
                                            / traced[0]["wall_s"])
        listed = bench["per_layer"]
    else:
        values = {"wall_s": wall_median,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mib"]
                                                   for r in runs)}
        listed = bench["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in listed}

    high = high_percentile(walls)
    print(f"{args.workload} seed {args.seed} ({runs[0]['description']}): "
          f"{len(every_run)} runs, {failed} failed, error_rate "
          f"{failed / len(every_run):.3g}")
    print(f"wall_s median {wall_median:.4f} s, min {min(walls):.4f}, "
          f"max {max(walls):.4f} over {len(walls)} untraced runs; "
          + (f"p{high[0]:.0f} {high[1]:.4f} s" if high else
             "no percentile has ten runs beyond it"))
    print(f"setup_s median {statistics.median(setups):.4f} s over "
          f"{len(setups)} fresh processes")
    for problem in sorted({p for r in every_run for p in r["problems"]}):
        print(f"FAILED: {problem}")
    record.update(python=runs[0]["python"], numpy=runs[0]["numpy"])
    print("record " + json.dumps(record))
    record.update(setup_s=setups, runs=runs, traced_runs=traced,
                  metrics=metrics)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(every_run),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
