"""Command-line entry point.

Subcommands wire a JSON config (plus flag overrides) to the harness and
theory layers:

    train      fit the config's one (parameter, M) cell on the whole dataset, save a checkpoint
    sweep      cross-validated grid sweep -> sweep.csv + sweep.json
    bounds     closed-form bound table over an M range -> bounds.csv
    boundary   sweep + real-boundary estimate per ensemble size
    diversity  sweep + std-vs-parameter profile per ensemble size
    gradcheck  finite-difference verification of every analytic gradient

Logs go to stderr; data goes to files only. Exit status: 0 success,
1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, harness, theory
from .data import standardize
from .ensemble import METHODS, ensemble_to_json
from .harness import ExperimentConfig

log = logging.getLogger("sea_ensemble.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

OUTDIR_ENV = "SEA_OUTDIR"

# Points a lo:hi:step grid range may expand to, and rows a bounds lo..hi
# range may ask for; a longer range is taken for a typo.
MAX_GRID_POINTS = 10_001
MAX_BOUNDS_ROWS = 10_001


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1.
    def error(self, message):
        raise UsageError(message)


def _parse_float_list(text: str) -> list[float]:
    """Either a comma list ('0,0.5,1') or an inclusive range 'lo:hi:step'."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"range syntax is lo:hi:step, got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if not np.isfinite([lo, hi, step]).all() or step <= 0 or hi < lo:
            raise UsageError(f"bad range {text!r}")
        count = round(min((hi - lo) / step, MAX_GRID_POINTS))  # min: an overflowed inf cannot round
        if count >= MAX_GRID_POINTS:
            raise UsageError(f"range {text!r} has more than {MAX_GRID_POINTS} points")
        values = [round(lo + i * step, 10) for i in range(count + 1)]
        if len(set(values)) < len(values):
            raise UsageError(f"range {text!r} repeats values at 10 decimals: its step {step:g} is too small")
        return [v for v in values if v <= hi + step * 1e-9]
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"expected numbers, got {text!r}") from None


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"expected integers, got {text!r}") from None


def _parse_m_range(text: str) -> tuple[int, int]:
    if ".." not in text:
        raise UsageError(f"M range syntax is lo..hi, got {text!r}")
    lo_s, _, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise UsageError(f"expected integers in {text!r}") from None
    if hi - lo >= MAX_BOUNDS_ROWS:
        raise UsageError(f"M range {text!r} has more than {MAX_BOUNDS_ROWS} sizes")
    return lo, hi


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    # each dest that names an ExperimentConfig field overrides that field (see _config_from_args)
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--name", help="experiment name")
    p.add_argument("--dataset", dest="dataset_path", help="LIBSVM file path (replaces the synthetic dataset)")
    p.add_argument("--task", choices=["regression", "classification"])
    p.add_argument("--synth-n", type=int, help="synthetic dataset size")
    p.add_argument("--synth-noise", type=float, help="synthetic noise stddev")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--grid", type=_parse_float_list,
                   help="parameter grid: comma list or lo:hi:step, e.g. -0.5:2.5:0.1")
    p.add_argument("--m", dest="m_list", type=_parse_int_list, help="comma list of ensemble sizes")
    p.add_argument("--folds", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float, help="learning rate")
    p.add_argument("--hidden", type=_parse_int_list, help="comma list of hidden widths")
    p.add_argument("--seed", type=int)
    p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or ./results)")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--workers", type=int,
                   help="parallel jobs, one per (ensemble size, fold) column of the grid "
                        "(default: the CPUs this process may use)")
    p.add_argument("--metric-on-train", action="store_true", default=None,
                   help="score on the training folds instead of the held-out fold")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sea-ensemble", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", help="train one ensemble, save a checkpoint")
    _add_config_flags(p_train)
    p_train.add_argument("--param", dest="grid", type=_parse_float_list, metavar="VALUE",
                         help="adjustable parameter value: a one-point --grid")

    p_sweep = sub.add_parser("sweep", help="cross-validated parameter sweep")
    _add_config_flags(p_sweep)

    p_bounds = sub.add_parser("bounds", help="closed-form bound table")
    p_bounds.add_argument("--m", required=True, help="ensemble size range, e.g. 2..20")
    p_bounds.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or ./results)")

    p_boundary = sub.add_parser("boundary", help="sweep + real-boundary estimate")
    _add_config_flags(p_boundary)

    p_div = sub.add_parser("diversity", help="prediction-std profile over the grid")
    _add_config_flags(p_div)

    sub.add_parser("gradcheck", help="finite-difference gradient verification")

    return parser


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one), not the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            base = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(base, dict):
            raise UsageError(f"config {path} must be a JSON object")

    overrides = {key: value for key, value in (("n", args.synth_n), ("noise_sd", args.synth_noise))
                 if value is not None}
    synth = {} if base.get("synth") is None else base["synth"]
    if overrides and isinstance(synth, dict):  # from_dict names any other synth as an invalid config
        base["synth"] = {**synth, **overrides}
    base.update((key, value) for key, value in vars(args).items()
                if key in ExperimentConfig.__dataclass_fields__ and value is not None)
    if "outdir" not in base or base["outdir"] is None:
        base["outdir"] = os.environ.get(OUTDIR_ENV, "results")
    if "workers" not in base or base["workers"] is None:
        base["workers"] = _usable_cpus()
    try:
        return ExperimentConfig.from_dict(base)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid config: {exc}") from None


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
    if cfg.metric_on_train:
        raise UsageError("train scores the data it trains on; metric_on_train is for sweep, boundary and diversity")
    if len(cfg.grid) > 1 or len(cfg.m_list) > 1:
        raise UsageError(f"train fits one (parameter, M) cell; the config names {len(cfg.grid)} grid values "
                         f"and {len(cfg.m_list)} ensemble sizes")
    harness.warn_outside_sea_interval(cfg)
    (param,), (m,) = cfg.grid, cfg.m_list
    train, _ = standardize(harness.load_dataset(cfg))
    # fold 0's initial learners of a sweep, taken at the config's grid as a column takes its cells
    ens = harness.initial_ensemble(cfg, train, m, 0).take([0], cfg.grid)
    log.info("training %s param=%g M=%d for %d epochs", cfg.method, param, m, cfg.epochs)
    # the sweep's training loop, scoring the training set; a row that did not diverge trained ens in place
    (row,) = harness.train_stack(cfg, ens, train, train, 0)
    if row.diverged:
        log.error("diverged after %d of %d epochs; no checkpoint written", row.epochs, cfg.epochs)
        return EXIT_RUNTIME
    out = Path(cfg.outdir) / "checkpoint.json"
    harness._write_text(out, ensemble_to_json(ens))
    log.info("final training metric %.6g; checkpoint at %s", row.metric, out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    result = harness.run_sweep(cfg)
    paths = harness.persist_sweep(result, cfg.outdir)
    log.info("sweep: %d rows in %.1fs -> %s", len(result.rows), result.wall_time, paths[0])
    return EXIT_OK


def _cmd_bounds(args) -> int:
    m_lo, m_hi = _parse_m_range(args.m)
    outdir = args.outdir or os.environ.get(OUTDIR_ENV, "results")
    try:
        path = harness.persist_bounds_table(m_lo, m_hi, Path(outdir) / "bounds.csv")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    log.info("bounds for M=%d..%d -> %s", m_lo, m_hi, path)
    return EXIT_OK


def _cmd_boundary(args) -> int:
    cfg = _config_from_args(args)
    points = len(cfg.grid)
    if points < harness.MIN_BOUNDARY_POINTS:
        raise UsageError(f"boundary needs at least {harness.MIN_BOUNDARY_POINTS} grid points, got {points}")
    result = harness.run_sweep(cfg)
    harness.persist_sweep(result, cfg.outdir)
    for m in cfg.m_list:
        curve = harness.boundary_curve(result, m)
        est = harness.estimate_real_boundary(curve, cfg.task)
        harness.persist_boundary(est, cfg.outdir, prefix=f"m{m}_")
        log.info(
            "M=%d: plateau %.6g, estimated boundary %s",
            m, est.plateau, "none" if est.boundary_param is None else f"{est.boundary_param:g}",
        )
    return EXIT_OK


def _cmd_diversity(args) -> int:
    cfg = _config_from_args(args)
    points = len(cfg.grid)
    if points < 3:
        raise UsageError(f"diversity needs a grid of at least 3 points, got {points}")
    for m in cfg.m_list:
        try:
            theory.predicted_std_curve(cfg.method, cfg.grid, m, 1.0)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"no std prediction at M={m}: {exc}") from None
    result = harness.run_sweep(cfg)
    harness.persist_sweep(result, cfg.outdir)
    for m in cfg.m_list:
        profile = harness.diversity_profile(result, m)
        harness.persist_diversity(profile, cfg.outdir, prefix=f"m{m}_")
        log.info(
            "M=%d: R^2=%.4f C=%.4g rel_rms_dev=%.3f", m, profile.r_squared,
            profile.scale_c, profile.rel_rms_deviation,
        )
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    from . import gradcheck  # only this command needs it

    results = gradcheck.run_all()
    failed = False
    for r in results:
        status = "ok" if r.passed else "FAIL"
        log.info("%-26s worst rel err %.3e (tol %.0e) %s", r.name, r.worst_rel_err, r.tolerance, status)
        failed = failed or not r.passed
    return EXIT_RUNTIME if failed else EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
    "boundary": _cmd_boundary,
    "diversity": _cmd_diversity,
    "gradcheck": _cmd_gradcheck,
}


def _join_grid_values(argv: list[str]) -> list[str]:
    """Rewrite ``--grid VALUE`` as ``--grid=VALUE``, and ``--param VALUE`` likewise.

    argparse reads a value such as ``-0.5:2.5:0.1`` or ``-1e-3`` after a space
    as a flag, not as the grid; joined, it parses like the ``=`` form.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--grid", "--param") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    argv = _join_grid_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, RuntimeError, ZeroDivisionError) as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
