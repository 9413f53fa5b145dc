#!/usr/bin/env python3
"""sea-ensemble benchmark: end-to-end sweep times, or per-layer traced costs.

Run from the repository root:

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 30 --trace 0

``--trace 0`` times untraced sweeps and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced sweeps in one process at one
worker and prints the per-layer metrics. Every sweep's rows are checked
against an independent reference. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Run records and the
spans of the last traced sweep go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_SETUP_SAMPLES = 5
SETUP_SNIPPET = """
import json, sys, time
started = time.perf_counter()
import sea_ensemble.cli
from sea_ensemble import harness
harness.load_dataset(harness.ExperimentConfig.from_dict(json.loads(sys.argv[1])))
print(repr(time.perf_counter() - started))
"""


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("boundary", "minibatch", "cli_bagging"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class SetupTimer:
    """Times a fresh interpreter importing the package and loading the dataset."""

    def __init__(self, w):
        from workloads import child_env

        self.cmd = [sys.executable, "-c", SETUP_SNIPPET, json.dumps(w.cfg.to_dict())]
        self.env = child_env(ROOT, 1)
        self.samples: list[float] = []
        self._launch()  # the first launch also writes bytecode caches

    def _launch(self) -> float:
        done = subprocess.run(self.cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=60, check=True)
        return float(done.stdout)

    def sample(self) -> None:
        self.samples.append(self._launch())


class Tally:
    """Cells attempted and failed over every sweep of the run."""

    def __init__(self, w):
        self.w, self.attempted, self.failed = w, 0, 0

    def __call__(self, sweep):
        bad = self.w.failed_cells(sweep)
        self.attempted += len(self.w.expected)
        self.failed += bad
        if sweep.error:
            print(sweep.error, file=sys.stderr)
        elif bad:
            print(f"{bad} cells differ from the reference", file=sys.stderr)
        return sweep


def end_to_end(w, seconds: float, tally: Tally) -> tuple[dict, dict]:
    setup = SetupTimer(w)
    if w.name == "cli_bagging":
        serial = tally(w.run_cli(1))  # the byte reference for worker invariance
        w.serial_csv = serial.csv or None
    sweeps = []
    started = time.perf_counter()
    # Set-up samples are spread over the run like the sweeps, so both see
    # the same share of any slow phase of the machine.
    while len(setup.samples) < MIN_SETUP_SAMPLES or not sweeps or (
        time.perf_counter() - started + sweeps[-1].wall_s <= seconds
    ):
        sweeps.append(tally(w.run()))
        setup.sample()
    ok = [s for s in sweeps if s.error is None]
    if not ok:
        raise RuntimeError("every timed sweep failed")
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in ok), "s"),
        "learner_epochs_per_s": (statistics.median(s.learner_epochs() / s.wall_s for s in ok), "1/s"),
        "cpu_s": (statistics.median(s.cpu_s for s in ok), "s"),
        "setup_s": (statistics.median(setup.samples), "s"),
        "peak_rss_mb": (max(s.maxrss_kb for s in ok) / 1024.0, "MB"),
    }
    record = {"walls": [s.wall_s for s in sweeps], "cpus": [s.cpu_s for s in sweeps],
              "setups": setup.samples}
    return metrics, record


def _layer_metrics(tracer, sweep) -> dict[str, float]:
    tot = tracer.totals()

    def self_s(name):
        return tot[name]["self_s"] if name in tot else 0.0

    def calls(name):
        return tot[name]["calls"] if name in tot else 0

    def module_self(prefix):
        return sum(v["self_s"] for k, v in tot.items() if k.startswith(prefix + "."))

    mlp_self = module_self("mlp")
    compute_self = mlp_self + module_self("ensemble") + module_self("theory")
    return {
        "mlp.sigmoid.self_s": self_s("mlp._sigmoid"),
        "mlp.forward_batch.self_s": self_s("mlp.forward_batch"),
        "mlp.backward_batch.self_s": self_s("mlp.backward_batch"),
        "mlp.sgd_step.self_s": self_s("mlp.sgd_step"),
        "mlp.forward_batch.calls": calls("mlp.forward_batch"),
        "mlp.computed_gflop_per_s": tracer.flops / mlp_self / 1e9 if mlp_self else 0.0,
        "ensemble.train_epoch.calls": calls("ensemble.train_epoch"),
        "ensemble.train_epoch.self_s": self_s("ensemble.train_epoch"),
        "ensemble.output_gradients.self_s": self_s("ensemble.output_gradients"),
        "ensemble.predictions_batch.self_s": self_s("ensemble.predictions_batch"),
        "ensemble.us_per_learner_epoch": compute_self / max(1, sweep.learner_epochs()) * 1e6,
        "theory.empirical_std.calls": calls("theory.empirical_std"),
        "theory.empirical_std.self_s": self_s("theory.empirical_std"),
        "harness.run_fold.calls": calls("harness.run_fold"),
        "harness.run_fold.self_s": self_s("harness.run_fold"),
        "harness.persist_sweep.self_s": self_s("harness.persist_sweep"),
        "data.parse_libsvm.self_s": self_s("data.parse_libsvm"),
        "data.standardize.self_s": self_s("data.standardize"),
        "data.kfold_split.self_s": self_s("data.kfold_split"),
        "data.synth_regression.self_s": self_s("data.synth_regression"),
        "cli.main.self_s": self_s("cli.main"),
    }


UNITS = {"calls": "count", "self_s": "s", "gflop_per_s": "GFLOP/s", "us": "us",
         "per_learner_epoch": "us", "frac": "ratio", "efficiency": "ratio"}


def _unit(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def per_layer(w, seconds: float, tally: Tally) -> tuple[dict, dict]:
    from cases import run_cases
    from spans import Tracer
    from envinfo import nproc

    call = w.run_cli_inprocess if w.name == "cli_bagging" else w.run
    cases = run_cases(w.seed)
    plain, traced, layers, tracer = [], [], [], None
    started = time.perf_counter()
    while not plain or time.perf_counter() - started + plain[-1].wall_s + traced[-1].wall_s <= seconds:
        plain.append(tally(call()))
        with Tracer() as tracer:
            traced.append(tally(call()))
        layers.append(_layer_metrics(tracer, traced[-1]))
    tracer.write(OUT / f"trace-{w.name}-seed{w.seed}.json")
    walls = [s.wall_s for s in plain], [s.wall_s for s in traced]
    n = nproc()
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    # Adjacent calls see the same machine state, so compare them pairwise.
    metrics["trace.overhead_frac"] = statistics.median(t / p for p, t in zip(*walls)) - 1.0
    serial = tally(w.run_cli(1))
    w.serial_csv = serial.csv or None  # sweep.csv must not depend on the worker count
    metrics["harness.parallel_efficiency"] = serial.wall_s / (n * tally(w.run_cli(n)).wall_s)
    metrics.update(cases)
    metrics["cells_failed_frac"] = tally.failed / tally.attempted
    return {k: (v, _unit(k)) for k, v in metrics.items()}, {"untraced_walls": walls[0], "traced_walls": walls[1]}


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "sea_ensemble" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'sea_ensemble'}", file=sys.stderr)
        return 2
    import envinfo

    os.environ.update(envinfo.blas_env(1))  # this process alone; set before numpy loads
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        w = workloads.Workload(args.workload, args.seed, ROOT, workdir)
        tally = Tally(w)
        run = per_layer if args.trace else end_to_end
        metrics, record = run(w, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = envinfo.record(ROOT, args.workload, args.seed)
    frac = tally.failed / tally.attempted
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "cells_failed_frac": frac, **record, "result": result}, indent=1)
    )
    print(json.dumps({"env": env}))
    summary = {**metrics, "cells_failed_frac": (frac, "ratio")}
    print("  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in summary.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
