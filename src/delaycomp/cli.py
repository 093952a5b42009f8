"""Command-line front end: simulate, verify, sweep.

Exit codes are fixed: 0 success, 2 configuration or usage error
(`ConfigError`, `UsageError`), 3 trajectory or predictor blow-up, 4 numeric
failure (ill-conditioned transition matrices, a linear-algebra fault, or
any other `DelaycompError`, such as a `FutureQueryError`), 5 verification
failure (residual study ran but an equation missed its threshold).  Errors
are reported on stderr, never as a traceback.  The default output root
comes from the DELAYCOMP_OUT_ROOT environment variable, falling back to
./runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np

from .config import apply_override, config_to_dict, load_config
from .errors import (BlowUpError, ConfigError, DelaycompError,
                     IllConditionedTransitionError, UsageError)
from .residuals import (convergence_study, evaluate_snapshot_residuals,
                        window_centers)
from .serialize import (snapshot_meta, snapshot_rows, trajectory_rows,
                        versions, write_csv, write_json)
from .simulate import run_ensemble, run_scenario, snapshot_kernels

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5

ENV_OUT_ROOT = "DELAYCOMP_OUT_ROOT"

# most sweep cells run as one ensemble: a step's march costs about the same
# for 1 to 64 rows, while an ensemble holds every row's run until it ends
ENSEMBLE_ROWS = 64


def _out_path(args, sub):
    if args.out:
        return args.out
    return os.path.join(os.environ.get(ENV_OUT_ROOT, "runs"), sub)


def _out_dir(args, sub):
    path = _out_path(args, sub)
    os.makedirs(path, exist_ok=True)
    return path


def _manifest(cfg, status, wall, extra=None):
    doc = {
        "config": config_to_dict(cfg),
        "versions": versions(),
        "wall_time": wall,
        "status": status,
    }
    if extra:
        doc.update(extra)
    return doc


def _write_run(result, out):
    header, rows = trajectory_rows(result)
    write_csv(os.path.join(out, "trajectory.csv"), header, rows)
    snapdir = os.path.join(out, "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    for c in result.centers:
        snap = result.snapshots[c]
        snapshot_kernels(result.model, result.controller,
                         result.config.true_delay, snap)
        header, rows = snapshot_rows(snap)
        write_csv(os.path.join(snapdir, f"step_{c:06d}.csv"), header, rows)
        write_json(os.path.join(snapdir, f"step_{c:06d}.json"),
                   snapshot_meta(snap))


def cmd_simulate(args):
    started = time.perf_counter()
    cfg = load_config(args.config)
    cfg.build()  # a config error exits before any directory is made
    out = _out_dir(args, "simulate")
    try:
        result = run_scenario(cfg)
        _write_run(result, out)
    except BlowUpError as exc:
        write_json(os.path.join(out, "manifest.json"),
                   _manifest(cfg, "blow-up", time.perf_counter() - started,
                             {"failure_time": exc.time,
                              "failure": str(exc)}))
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    write_json(os.path.join(out, "manifest.json"),
               _manifest(cfg, "ok", time.perf_counter() - started))
    print(f"simulate: ok ({out})")
    return EXIT_OK


def _parse_ladder(text):
    """Ladder list "M:dt,M:dt,..." (dt optional, defaulting to 1/(10 M))."""
    rungs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ":" in part:
                m_s, dt_s = part.split(":", 1)
                rungs.append((int(m_s), float(dt_s)))
            else:
                m = int(part)
                rungs.append((m, 1.0 / (10.0 * m)))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad ladder rung {part!r}") from None
    return rungs


def cmd_verify(args):
    cfg = load_config(args.config)
    ladder = _parse_ladder(args.ladder)
    # the study checks the config and the ladder; only a report gets a
    # directory
    report = convergence_study(cfg, ladder, slope_min=args.slope_min,
                               workers=args.workers)
    out = _out_dir(args, "verify")
    write_json(os.path.join(out, "report.json"), report.to_dict())
    with open(os.path.join(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.table() + "\n")
    write_csv(os.path.join(out, "convergence.csv"),
              ["rung", "M", "dt", "equation", "max_norm", "l2_norm"],
              report.csv_rows())
    print(report.table())
    if report.aborted:
        print(f"verify: aborted ({report.failure})", file=sys.stderr)
        return EXIT_BLOWUP
    if not report.passed:
        print("verify: FAIL", file=sys.stderr)
        return EXIT_VERIFY
    print("verify: ok")
    return EXIT_OK


def _sweep_cell(payload):
    """Run one chunk of sweep cells, [(cfg, cell_dir, overrides), ...], as
    one lockstep ensemble and write each cell's files; returns one outcome
    per cell.  A cell's `wall_time` is its share of the ensemble's time
    plus its own residuals and files."""
    started = time.perf_counter()
    runs = run_ensemble([cfg for cfg, _, _ in payload])
    share = (time.perf_counter() - started) / len(payload)
    return [_finish_cell(run, share, *cell)
            for run, cell in zip(runs, payload)]


def _finish_cell(run, share, cfg, cell_dir, overrides):
    """Write one cell's trajectory and manifest from its ensemble row (a
    SimulationResult or the BlowUpError it raised)."""
    started = time.perf_counter()
    os.makedirs(cell_dir, exist_ok=True)
    extra = {"overrides": overrides}
    try:
        if isinstance(run, BlowUpError):
            raise run
        header, rows = trajectory_rows(run)
        write_csv(os.path.join(cell_dir, "trajectory.csv"), header, rows)
        centers = window_centers(cfg, run)
        status, code = "ok", EXIT_OK
        extra["final_norm"] = float(np.max(np.abs(run.states[-1])))
        if centers:  # a cell with no centre in its window has no residual
            max_res = 0.0
            for c in centers:
                res = evaluate_snapshot_residuals(run, c)
                for val in res.values():
                    max_res = max(max_res, float(np.max(np.abs(val))))
            extra["max_residual"] = max_res
    except BlowUpError as exc:
        status, code = "blow-up", EXIT_BLOWUP
        extra.update(failure_time=exc.time, failure=str(exc))
    except (IllConditionedTransitionError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        status, code = "numeric", EXIT_NUMERIC
        extra["failure"] = str(exc)
    wall = share + time.perf_counter() - started
    write_json(os.path.join(cell_dir, "manifest.json"),
               _manifest(cfg, status, wall, extra))
    return {"status": status, "code": code,
            "final_norm": extra.get("final_norm", float("nan")),
            "max_residual": extra.get("max_residual", float("nan"))}


def cmd_sweep(args):
    base = load_config(args.config)
    axes = []
    for setting in args.set or []:
        if "=" not in setting:
            raise ConfigError(f"--set needs key=v1,v2 form, got {setting!r}")
        key, _, vals = setting.partition("=")
        values = [v.strip() for v in vals.split(",") if v.strip()]
        key = key.strip()
        if not values:
            raise ConfigError(f"--set {key} lists no values")
        if key in (k for k, _ in axes):
            raise ConfigError(f"--set {key} is given twice")
        axes.append((key, values))
    if not axes:
        raise ConfigError("sweep needs at least one --set axis")
    out = _out_path(args, "sweep")
    root = os.path.realpath(out)

    # every cell is checked before any directory is made
    cells, names, scenarios = [], set(), {}
    for combo in itertools.product(*(vals for _, vals in axes)):
        overrides = {key: val for (key, _), val in zip(axes, combo)}
        cfg = base
        for key, val in overrides.items():
            cfg = apply_override(cfg, key, val)
        cfg.build()
        name = "cell_" + "_".join(
            f"{k.replace('.', '-')}-{v}" for k, v in overrides.items())
        if name in names:
            raise ConfigError(f"sweep cell {name!r} is listed twice")
        names.add(name)
        resolved = json.dumps(config_to_dict(cfg), sort_keys=True)
        if resolved in scenarios:
            raise ConfigError(
                f"sweep cells {scenarios[resolved]!r} and {name!r} resolve "
                f"to the same scenario")
        scenarios[resolved] = name
        cell_dir = os.path.join(out, name)
        if os.path.dirname(os.path.realpath(cell_dir)) != root:
            raise ConfigError(
                f"sweep cell {name!r} is not a directory directly under "
                f"the output root {out}")
        cells.append((cfg, cell_dir, overrides, name))
    os.makedirs(out, exist_ok=True)

    # cells that share plant and grid run as one lockstep ensemble, in
    # chunks small enough to give every worker a share and to bound memory
    groups = {}
    for i, (cfg, _, _, _) in enumerate(cells):
        groups.setdefault(cfg.ensemble_key(), []).append(i)
    workers = args.workers if args.workers and args.workers > 1 else 1
    most = min(-(-len(cells) // workers), ENSEMBLE_ROWS)
    chunks = [list(part) for group in groups.values()
              for part in np.array_split(group, -(-len(group) // most))]
    payloads = [[cells[i][:3] for i in chunk] for chunk in chunks]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_sweep_cell, payloads))
    else:
        done = [_sweep_cell(p) for p in payloads]
    outcomes = [None] * len(cells)
    for chunk, results in zip(chunks, done):
        for i, outcome in zip(chunk, results):
            outcomes[i] = outcome

    keys = [k for k, _ in axes]
    rows = []
    worst = EXIT_OK
    for (cfg, _, overrides, name), outcome in zip(cells, outcomes):
        rows.append([name] + [overrides[k] for k in keys]
                    + [outcome["final_norm"], outcome["max_residual"],
                       outcome["status"]])
        worst = max(worst, outcome["code"])
    write_csv(os.path.join(out, "aggregate.csv"),
              ["cell"] + keys + ["final_norm", "max_residual", "status"],
              rows)
    print(f"sweep: {len(cells)} cells, worst status code {worst} ({out})")
    return worst


def build_parser():
    parser = argparse.ArgumentParser(
        prog="delaycomp",
        description="Predictor-feedback delay compensation: simulate "
                    "closed loops and certify the transformed systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one closed-loop scenario")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="residual convergence study")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--out", default=None)
    p_ver.add_argument("--ladder", default="50,100,200",
                       help="comma list of M or M:dt rungs")
    p_ver.add_argument("--workers", type=int, default=None)
    p_ver.add_argument("--slope-min", type=float, default=1.7,
                       help="required fitted convergence order")
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="grid of scenario variations")
    p_swp.add_argument("--config", required=True)
    p_swp.add_argument("--out", default=None)
    p_swp.add_argument("--set", action="append",
                       help="key=v1,v2 axis; repeatable")
    p_swp.add_argument("--workers", type=int, default=None)
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (DelaycompError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
