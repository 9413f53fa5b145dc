"""Command-line entry point.

Subcommands wire a JSON config (plus flag overrides) to the harness and
theory layers:

    train      fit one ensemble on the whole dataset, save a checkpoint
    sweep      cross-validated grid sweep -> sweep.csv + sweep.json
    bounds     closed-form bound table over an M range -> bounds.csv
    boundary   sweep + real-boundary estimate per ensemble size
    diversity  std-vs-parameter profile per ensemble size
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

from . import __version__, gradcheck, harness
from .data import standardize
from .ensemble import MethodConfig, build_ensemble, ensemble_to_json
from .harness import ExperimentConfig, SynthSpec

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
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--name", help="experiment name")
    p.add_argument("--dataset", help="LIBSVM file path (replaces the synthetic dataset)")
    p.add_argument("--task", choices=["regression", "classification"])
    p.add_argument("--synth-n", type=int, help="synthetic dataset size")
    p.add_argument("--synth-noise", type=float, help="synthetic noise stddev")
    p.add_argument("--method", choices=["independent", "sea", "ncl", "nclstar", "bagging"])
    p.add_argument("--grid", help="parameter grid: comma list or lo:hi:step, e.g. -0.5:2.5:0.1")
    p.add_argument("--m", dest="m_list", help="comma list of ensemble sizes")
    p.add_argument("--folds", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float, help="learning rate")
    p.add_argument("--hidden", help="comma list of hidden widths")
    p.add_argument("--seed", type=int)
    p.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or ./results)")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--workers", type=int,
                   help="parallel jobs, one per (ensemble size, fold) column of the grid (default: all cores)")
    p.add_argument("--metric-on-train", action="store_true", default=None,
                   help="score on the training folds instead of the held-out fold")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sea-ensemble", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p_train = sub.add_parser("train", help="train one ensemble, save a checkpoint")
    _add_config_flags(p_train)
    p_train.add_argument("--param", type=float, help="adjustable parameter value")

    p_sweep = sub.add_parser("sweep", help="cross-validated parameter sweep")
    _add_config_flags(p_sweep)

    p_bounds = sub.add_parser("bounds", help="closed-form bound table")
    p_bounds.add_argument("--m", required=True, help="ensemble size range, e.g. 2..20")
    p_bounds.add_argument("--outdir", help=f"output directory (default ${OUTDIR_ENV} or ./results)")

    p_boundary = sub.add_parser("boundary", help="sweep + real-boundary estimate")
    _add_config_flags(p_boundary)

    p_div = sub.add_parser("diversity", help="prediction-std profile over the grid")
    _add_config_flags(p_div)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--quick", action="store_true", help="smaller state counts")

    return parser


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

    overrides = {
        "name": args.name,
        "dataset_path": args.dataset,
        "task": args.task,
        "method": args.method,
        "folds": args.folds,
        "epochs": args.epochs,
        "alpha": args.alpha,
        "seed": args.seed,
        "outdir": args.outdir,
        "batch_size": args.batch_size,
        "workers": args.workers,
        "metric_on_train": args.metric_on_train,
    }
    if args.grid is not None:
        overrides["grid"] = _parse_float_list(args.grid)
    if args.m_list is not None:
        overrides["m_list"] = _parse_int_list(args.m_list)
    if args.hidden is not None:
        overrides["hidden"] = _parse_int_list(args.hidden)
    if args.synth_n is not None or args.synth_noise is not None:
        synth = dict(base.get("synth") or {})
        if args.synth_n is not None:
            synth["n"] = args.synth_n
        if args.synth_noise is not None:
            synth["noise_sd"] = args.synth_noise
        base["synth"] = synth
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    if base.get("dataset_path"):
        base["synth"] = None
    if "outdir" not in base or base["outdir"] is None:
        base["outdir"] = os.environ.get(OUTDIR_ENV, "results")
    if "workers" not in base or base["workers"] is None:
        base["workers"] = max(1, os.cpu_count() or 1)
    base.setdefault("format", harness.CONFIG_FORMAT)
    try:
        return ExperimentConfig.from_dict(base)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid config: {exc}") from None


def _cmd_train(args) -> int:
    if args.metric_on_train:
        raise UsageError("train scores the data it trains on; --metric-on-train is for sweep, boundary and diversity")
    cfg = _config_from_args(args)
    param = args.param if args.param is not None else cfg.grid[0]
    if not np.isfinite(param):
        raise UsageError(f"--param must be finite, got {param}")
    m = cfg.m_list[0]
    train, _ = standardize(harness.load_dataset(cfg))
    ens = build_ensemble(train.n_features, list(cfg.hidden), train.n_outputs, m, MethodConfig(cfg.method, param),
                         seed=harness.fold_seed(cfg, 0), n_train=train.n_samples)
    log.info("training %s param=%g M=%d for %d epochs", cfg.method, param, m, cfg.epochs)
    # the sweep's training loop, scoring the training set; a row that did not diverge trained ens in place
    (row,) = harness.train_stack(cfg, ens, train, train, 0, float("nan"))
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
    points = len(set(cfg.grid))
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
    if cfg.method not in ("sea", "ncl"):
        raise UsageError(f"no std prediction for method {cfg.method!r}; diversity takes sea or ncl")
    if len(cfg.grid) < 3:
        raise UsageError(f"diversity needs a grid of at least 3 points, got {len(cfg.grid)}")
    for m in cfg.m_list:
        profile = harness.diversity_profile(cfg, cfg.method, cfg.grid, m)
        harness.persist_diversity(profile, cfg.outdir, prefix=f"m{m}_")
        log.info(
            "M=%d: R^2=%.4f C=%.4g rel_rms_dev=%.3f", m, profile.r_squared,
            profile.scale_c, profile.rel_rms_deviation,
        )
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = gradcheck.run_all(quick=args.quick)
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
    """Rewrite ``--grid VALUE`` as ``--grid=VALUE``.

    argparse reads a value such as ``-0.5:2.5:0.1`` after a space as a flag,
    not as the grid; joined, it parses like the ``=`` form.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--grid" and not arg.startswith("--"):
            out[-1] = f"--grid={arg}"
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
    except (OSError, ValueError, RuntimeError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
