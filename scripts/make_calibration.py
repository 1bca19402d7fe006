"""Regenerate the pinned calibration file.

Runs the fixed calibration workloads (rough-coefficient ensemble, weak
Poincare instance, Harnack suite, representation instance), collects the
worst empirical constant per statement id, and writes pass bounds at
twice that worst value to src/kfplab/data/calibration.json.

Checks that carry their own analytic bound (intermediate-value,
measure-to-pointwise, oscillation decay) are not calibrated here; their
pass bound is part of the statement itself.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from kfplab import experiments
from kfplab.calibration import load_calibration, worst_constants

# pass bound = MARGIN * worst observed
MARGIN = 2.0


def collect_constants() -> dict:
    """Worst observed empirical constant per statement id."""
    reports = []
    t0 = time.time()
    for member in experiments.run_standard_ensemble():
        reports.extend(member["reports"])
    print(f"ensemble: {time.time() - t0:.1f} s")

    t0 = time.time()
    reports.extend(experiments.run_poincare()["reports"])
    print(f"poincare: {time.time() - t0:.1f} s")

    t0 = time.time()
    reports.extend(experiments.run_harnack_suite()["reports"])
    print(f"harnack:  {time.time() - t0:.1f} s")

    t0 = time.time()
    reports.append(experiments.run_representation_instance()["report"])
    print(f"duhamel:  {time.time() - t0:.1f} s")

    return worst_constants(reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1]
                    / "src" / "kfplab" / "data" / "calibration.json"),
        help="output path for the calibration JSON")
    args = parser.parse_args(argv)

    worst = collect_constants()
    bounds = {sid: MARGIN * c for sid, c in sorted(worst.items())}

    previous = load_calibration()
    payload = {
        "c_tol": previous.get("c_tol", 1.0),
        "margin": MARGIN,
        "pass_bounds": bounds,
        "worst_observed": {sid: worst[sid] for sid in sorted(worst)},
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    width = max(len(sid) for sid in worst)
    print(f"\n{'statement':<{width}}  {'worst':>12}  {'bound':>12}")
    for sid in sorted(worst):
        print(f"{sid:<{width}}  {worst[sid]:>12.4e}  {bounds[sid]:>12.4e}")
    print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
