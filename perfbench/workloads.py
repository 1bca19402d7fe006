"""The benchmark workloads, their inputs and their correctness gate.

Each workload turns the benchmark seed into the program's inputs: a
CLI config for the two CLI workloads, arguments for the experiment
workload.  Coefficient seeds are drawn from the calibrated seeds 1..20
(the standard ensemble that pinned the pass bounds), so every verdict
the gate requires holds on every benchmark seed.  One run returns an Outcome: the output digests and the problems the
gate found.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import random
import shutil
from pathlib import Path

COEFFICIENT_SEEDS = range(1, 21)
ENSEMBLE_SIZE = 4

STANDARD_CONFIG = {
    "grid": {"nt": 128, "nx": 256, "nv": 128},
    "box": {"t0": -1.2, "t1": 0.0, "x0": -2.5, "x1": 2.5,
            "v0": -3.5, "v1": 3.5},
    "pads": {"x": 1.0, "v": 2.0},
    "coefficients": {"lam": 0.2, "Lam": 1.0, "s_amp": 0.1, "cell_size": 0.1},
    "datum": {"floor": 0.15, "amp": 1.0, "width": 0.25},
}
STANDARD_CHECKS = [
    {"name": "energy_estimate"},
    {"name": "gain_integrability", "p": 2.0},
    {"name": "gain_integrability", "p": 2.4},
    {"name": "sobolev_gain", "sigma": 0.1},
    {"name": "sobolev_gain", "sigma": 0.25},
    {"name": "linfty_bound", "zeta": 0.5},
    {"name": "linfty_bound", "zeta": 2.0},
]
ORACLE_MAX_ERROR = 0.05


@dataclasses.dataclass
class Outcome:
    digests: dict
    problems: list


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _standard_config(kind, seeds, checks, threads):
    config = copy.deepcopy(STANDARD_CONFIG)
    config["coefficients"]["seeds"] = seeds
    config.update(kind=kind, checks=checks, threads=threads)
    return config


class CliWorkload:
    """One `kfplab` CLI run on a generated config."""

    outputs = ("reports.json", "summary.csv")

    def __init__(self, name, kind):
        self.name = name
        self.kind = kind

    def inputs(self, seed, threads=None):
        rng = random.Random(seed)
        if self.kind == "ensemble":
            seeds = sorted(rng.sample(COEFFICIENT_SEEDS, ENSEMBLE_SIZE))
            return _standard_config("ensemble", seeds, STANDARD_CHECKS,
                                    threads or 2)
        return _standard_config("verify", [rng.choice(COEFFICIENT_SEEDS)],
                                [], threads or 1)

    def describe(self, config):
        return (f"{self.kind} on coefficient seeds "
                f"{config['coefficients']['seeds']}, threads {config['threads']}")

    def setup(self, config):
        """Build and validate the config as the CLI does."""
        from kfplab.cli import ExperimentConfig, validate
        violations = validate(ExperimentConfig.from_dict(config))
        if violations:
            raise ValueError(f"{self.name} config is invalid: {violations}")

    def run(self, config, out_dir: Path) -> Outcome:
        import kfplab.cli
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        config_path = out_dir.with_name(out_dir.name + "-config.json")
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True))
        code = kfplab.cli.main([self.kind, "--config", str(config_path),
                                "--out", str(out_dir)])
        return self.gate(config, code, out_dir)

    def gate(self, config, code, out_dir: Path) -> Outcome:
        problems = [] if code == 0 else [f"exit code {code}"]
        digests = {}
        for name in self.outputs:
            path = out_dir / name
            if path.is_file():
                digests[name] = sha256(path.read_bytes())
            else:
                problems.append(f"{name} missing")
        if "reports.json" in digests:
            payload = json.loads((out_dir / "reports.json").read_text())
            check = (self._ensemble_problems if self.kind == "ensemble"
                     else self._verify_problems)
            problems += check(config, payload)
        return Outcome(digests, problems)

    @staticmethod
    def _ensemble_problems(config, payload):
        problems = []
        members = payload.get("members", [])
        if [m.get("seed") for m in members] != config["coefficients"]["seeds"]:
            problems.append("ensemble members do not match the seed list")
        for member in members:
            if member.get("status") != "ok":
                problems.append(f"seed {member.get('seed')}: "
                                f"{member.get('error')}")
                continue
            reports = member["reports"]
            if len(reports) != len(config["checks"]):
                problems.append(f"seed {member['seed']}: {len(reports)} "
                                f"reports for {len(config['checks'])} checks")
            for report in reports:
                if report["passed"] is not True or not report["hypotheses_met"]:
                    problems.append(f"seed {member['seed']}: "
                                    f"{report['statement_id']} failed")
        return problems

    @staticmethod
    def _verify_problems(config, payload):
        residuals = payload.get("residuals", {})
        return [f"residual {d} failed" for d in ("sub", "super")
                if residuals.get(d, {}).get("passed") is not True]


class OracleWorkload:
    """`experiments.run_solver_oracle(refine=1)`; constant coefficients,
    so the seed changes nothing."""

    name = "oracle_kernel"

    def inputs(self, seed, threads=None):
        return 1

    def describe(self, refine):
        return f"solver oracle at refine={refine}, constant coefficients"

    def setup(self, refine):
        import kfplab.experiments  # noqa: F401

    def run(self, refine, out_dir: Path) -> Outcome:
        import kfplab.experiments
        result = kfplab.experiments.run_solver_oracle(refine=refine)
        err = result["sup_rel_error"]
        problems = ([] if err < ORACLE_MAX_ERROR else
                    [f"oracle sup_rel_error {err} >= {ORACLE_MAX_ERROR}"])
        digest = sha256(json.dumps(result, sort_keys=True).encode())
        return Outcome({"result": digest}, problems)


WORKLOADS = {w.name: w for w in (
    CliWorkload("ensemble_standard", "ensemble"),
    CliWorkload("verify_standard", "verify"),
    OracleWorkload(),
)}
