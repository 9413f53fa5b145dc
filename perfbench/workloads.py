"""The three benchmark workloads: their inputs, one timed sweep each, and its check.

Each workload is one sweep, run closed loop by a single client: the next
sweep starts only when the previous one has returned.

* ``boundary``    in-process ``harness.run_sweep`` shaped like acceptance
                  criterion 6 (sea, 31-point k grid, M in {3,5,10}, 2 folds,
                  synthetic n=400, hidden (10,10), full batch, 1 worker).
                  Nearly all its time is in the ``mlp`` kernels.
* ``minibatch``   in-process ``run_sweep`` with ncl, M=20 and 10-row batches:
                  many small ``train_epoch`` calls, so per-call overhead in
                  ``ensemble`` and ``mlp.sgd_step`` dominates.
* ``cli_bagging`` ``python -m sea_ensemble sweep --method bagging`` as a
                  subprocess with one worker per core, on a housing-shaped
                  LIBSVM file written from the seed: the CLI, the process
                  pool, per-job parsing, bagging's own path and persistence.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sea_ensemble import cli, harness
from sea_ensemble.harness import ExperimentConfig

import reference
from envinfo import blas_env, nproc

# Generous per-process limit: a timed CLI call normally takes a few seconds.
SUBPROCESS_TIMEOUT_S = 120


def _grid(lo: float, hi: float, step: float) -> list[float]:
    return [round(lo + i * step, 10) for i in range(int(round((hi - lo) / step)) + 1)]


# Epoch counts are chosen so that one sweep takes about 2-3 s on one core of
# a 2-core x86 box: long enough to time, short enough for several per run.
# No cell diverges at these settings.
CONFIGS = {
    "boundary": {
        "method": "sea", "grid": _grid(-0.5, 2.5, 0.1), "m_list": [3, 5, 10], "folds": 2,
        "epochs": 8, "alpha": 0.1, "hidden": [10, 10], "synth": {"n": 400, "noise_sd": 0.1},
    },
    "minibatch": {
        "method": "ncl", "grid": _grid(0.0, 1.0, 0.1), "m_list": [20], "folds": 2,
        "epochs": 3, "alpha": 0.05, "hidden": [10, 10], "synth": {"n": 400, "noise_sd": 0.1},
        "batch_size": 10,
    },
    "cli_bagging": {
        "method": "bagging", "grid": [0.0], "m_list": [5, 20], "folds": 5,
        "epochs": 40, "alpha": 0.05, "hidden": [10, 10], "synth": None,
    },
}
NAMES = tuple(CONFIGS)


def child_env(root: Path, processes: int) -> dict:
    """Environment for a package subprocess that runs ``processes`` processes."""
    env = dict(os.environ)
    env.update(blas_env(processes))
    env["PYTHONPATH"] = str(root / "src")
    return env


def housing_like(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A 506x13 regression set with the column types and scales of Boston housing.

    Binary and mostly-zero columns make the LIBSVM text sparse; the last
    column is never zero, so a parser infers all 13 features.
    """
    rng = np.random.default_rng([seed, 506, 13])
    n = 506
    rm = rng.normal(6.3, 0.7, n)
    lstat = rng.uniform(1.7, 38.0, n)
    cols = [
        rng.lognormal(-1.0, 1.5, n),                                  # CRIM
        np.where(rng.random(n) < 0.73, 0.0, rng.uniform(12.5, 100, n)),  # ZN
        rng.uniform(0.5, 28.0, n),                                    # INDUS
        (rng.random(n) < 0.07).astype(float),                         # CHAS
        rng.uniform(0.38, 0.87, n),                                   # NOX
        rm,                                                           # RM
        rng.uniform(3.0, 100.0, n),                                   # AGE
        rng.uniform(1.1, 12.1, n),                                    # DIS
        rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 24], n).astype(float),    # RAD
        rng.uniform(187.0, 711.0, n),                                 # TAX
        rng.uniform(12.6, 22.0, n),                                   # PTRATIO
        rng.uniform(0.3, 396.9, n),                                   # B
        lstat,                                                        # LSTAT
    ]
    x = np.round(np.column_stack(cols), 4)
    y = 22.0 + 5.0 * (rm - 6.3) - 8.0 * np.log(lstat / 12.0) + rng.normal(0.0, 2.5, n)
    return x, np.round(np.clip(y, 5.0, 50.0), 2)


def write_libsvm(path: Path, x: np.ndarray, y: np.ndarray) -> None:
    lines = []
    for row, label in zip(x, y):
        feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0)
        lines.append(f"{float(label)!r} {feats}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Sweep:
    """One timed call and what it produced."""

    wall_s: float
    cpu_s: float
    maxrss_kb: int
    rows: dict                      # (method, param, M, fold) -> (metric, std, epochs, diverged)
    error: str | None = None
    estimates: dict = field(default_factory=dict)   # M -> boundary estimate (boundary only)
    csv: bytes = b""                # sweep.csv bytes (CLI only)

    def learner_epochs(self) -> int:
        return sum(epochs * key[2] for key, (_, _, epochs, _) in self.rows.items())


def _rows_from_result(result) -> dict:
    return {
        (r.method, r.param, r.m, r.fold): (r.metric, r.std, r.epochs, r.diverged)
        for r in result.rows
    }


def _rows_from_csv(text: str) -> dict:
    lines = text.strip().split("\n")
    if lines[0] != harness.SWEEP_CSV_HEADER:
        raise ValueError(f"unexpected sweep.csv header {lines[0]!r}")
    rows = {}
    for line in lines[1:]:
        method, param, m, fold, metric, std, epochs, diverged = line.split(",")
        rows[(method, float(param), int(m), int(fold))] = (
            float(metric), float(std), int(epochs), diverged == "1"
        )
    return rows


def _estimates(result, m_list) -> dict:
    out = {}
    for m in m_list:
        est = harness.estimate_real_boundary(harness.boundary_curve(result, m), result.task)
        start = next(i for i, p in enumerate(est.points) if p.is_plateau)
        out[m] = (est.boundary_param, est.plateau, start)
    return out


def run_subprocess(argv: list[str], env: dict, cwd: Path, log_path: Path) -> tuple[int, float, float, int]:
    """Run ``argv`` to completion; returns (exit code, wall s, cpu s, max RSS kB).

    CPU time and peak RSS come from wait4, so they cover the process and
    every descendant it waited for (the CLI joins its pool workers).
    """
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        killer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class Workload:
    """Inputs, reference and timed call of one workload for one seed."""

    def __init__(self, name: str, seed: int, root: Path, workdir: Path):
        self.name, self.seed, self.root, self.workdir = name, seed, root, workdir
        spec = dict(CONFIGS[name], seed=seed, outdir=str(workdir / "out"), workers=1)
        if name == "cli_bagging":
            x, y = housing_like(seed)
            self.dataset = workdir / "housing_like.libsvm"
            write_libsvm(self.dataset, x, y)
            spec["dataset_path"] = str(self.dataset)
        self.cfg = ExperimentConfig.from_dict(spec)
        if name != "cli_bagging":
            raw = harness.load_dataset(self.cfg)
            x, y = np.array(raw.features), np.array(raw.targets)
        self.expected = reference.reference_rows(self.cfg, x, y.reshape(len(y), -1))
        self.expected_estimates = (
            {m: reference.boundary_estimate(self.expected, m) for m in self.cfg.m_list}
            if name == "boundary" else {}
        )
        self.serial_csv: bytes | None = None

    # -- timed calls -----------------------------------------------------

    def run(self) -> Sweep:
        """One untraced timed call: in-process, or the CLI at one worker per core."""
        if self.name == "cli_bagging":
            return self.run_cli(nproc())
        return self._run_inprocess()

    def _run_inprocess(self) -> Sweep:
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        try:
            result = harness.run_sweep(self.cfg)
        except Exception:  # a failing sweep is counted, not fatal
            return Sweep(time.perf_counter() - started, 0.0, 0, {}, error=traceback.format_exc())
        wall = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        sweep = Sweep(wall, cpu, after.ru_maxrss, _rows_from_result(result))
        if self.name == "boundary":
            sweep.estimates = _estimates(result, self.cfg.m_list)
        return sweep

    def _cli_args(self, workers: int, outdir: Path) -> list[str]:
        """``sea-ensemble sweep`` arguments: explicit flags for cli_bagging, else a config file."""
        c = self.cfg
        if self.name != "cli_bagging":
            path = self.workdir / "config.json"
            path.write_text(json.dumps(c.to_dict()), encoding="utf-8")
            return ["sweep", "--config", str(path), "--workers", str(workers), "--outdir", str(outdir)]
        return [
            "sweep", "--method", c.method, "--m", ",".join(map(str, c.m_list)),
            "--folds", str(c.folds), "--dataset", str(self.dataset), "--epochs", str(c.epochs),
            "--alpha", repr(c.alpha), "--hidden", ",".join(map(str, c.hidden)),
            "--seed", str(c.seed), "--workers", str(workers), "--outdir", str(outdir),
        ]

    def run_cli(self, workers: int) -> Sweep:
        """The sweep through ``python -m sea_ensemble`` at ``workers``, as a subprocess."""
        outdir = self.workdir / f"cli_w{workers}"
        argv = [sys.executable, "-m", "sea_ensemble", *self._cli_args(workers, outdir)]
        log = self.workdir / "cli.log"
        code, wall, cpu, rss = run_subprocess(argv, child_env(self.root, workers), self.root, log)
        csv_path = outdir / "sweep.csv"
        if code != 0 or not csv_path.exists():
            return Sweep(wall, cpu, rss, {}, error=f"CLI exited {code}; see {log}")
        data = csv_path.read_bytes()
        csv_path.unlink()
        return Sweep(wall, cpu, rss, _rows_from_csv(data.decode("utf-8")), csv=data)

    def run_cli_inprocess(self) -> Sweep:
        """The CLI call at one worker inside this process (for the traced run)."""
        outdir = self.workdir / "cli_inproc"
        started = time.perf_counter()
        code = cli.main(self._cli_args(1, outdir))
        wall = time.perf_counter() - started
        if code != 0:
            return Sweep(wall, 0.0, 0, {}, error=f"cli.main returned {code}")
        text = (outdir / "sweep.csv").read_text(encoding="utf-8")
        return Sweep(wall, 0.0, 0, _rows_from_csv(text))

    # -- output check ----------------------------------------------------

    def failed_cells(self, sweep: Sweep) -> int:
        """Cells of ``sweep`` that raised, are missing or differ from the reference."""
        if sweep.error is not None:
            return len(self.expected)
        bad = reference.failed_cells(self.expected, sweep.rows)
        for m, est in sweep.estimates.items():
            want = self.expected_estimates[m]
            if est[0] != want[0] or est[2] != want[2] or not reference.close(est[1], want[1]):
                bad |= {k for k in self.expected if k[2] == m}
        if sweep.csv and self.serial_csv is not None and sweep.csv != self.serial_csv:
            bad |= set(self.expected)
        return min(len(bad), len(self.expected))
