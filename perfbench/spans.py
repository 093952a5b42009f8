"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the delaycomp layers at the module
attributes their callers look up (for example `delaycomp.simulate.
compute_predictor`, which the step loop calls), so nothing inside the
package changes.  Each call becomes a span (name, start, end, parent, tag),
kept in memory; model and controller callbacks are only counted, because a
span per callback would cost more than the callback.

Sweep cells run in forked pool workers.  The patched `_sweep_cell` starts
each cell with an empty trace in the worker and writes that cell's
aggregate to a file in the trace directory, which the parent merges.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import json
import os
import tempfile
from time import perf_counter

# span names whose per-call inclusive durations are kept for medians
PER_CALL = ("predictor.compute_predictor", "history.sample_many",
            "kernels.eval_all")


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.pid = os.getpid()
        self.spans = []   # [name, start, end, parent index, tag]
        self.stack = []
        self.counts = collections.Counter()

    def span(self, name, fn, tag=None, after=None):
        """Wrap `fn` so every call records a span; `tag(*args)` keys the
        span (grid size M), `after(result, args)` updates counters."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = rec.spans, rec.stack
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          tag(*args) if tag else None])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if after is not None:
                after(result, args)
            return result

        return traced

    def counted(self, fn):
        counts = self.counts

        def call(*args):
            counts["plants.callbacks"] += 1
            return fn(*args)

        return call

    def aggregate(self):
        """Per-name calls, inclusive and self seconds, per-call durations."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        per_call = collections.defaultdict(list)
        for i, (name, start, end, _, tag) in enumerate(spans):
            dur = end - start
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            if name in PER_CALL:
                key = name if tag is None else f"{name}@{tag}"
                per_call[key].append(dur)
        return {"layers": table, "per_call": dict(per_call),
                "counts": dict(self.counts)}

    def dump_spans(self, path):
        """Write the raw spans (names factored out) as one JSON file."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start", "end", "parent", "tag"],
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                                 for s in self.spans]}, fh)


def merge(aggregates):
    """Sum aggregates from several processes or cells."""
    layers = {}
    per_call = collections.defaultdict(list)
    counts = collections.Counter()
    for agg in aggregates:
        for name, (calls, incl, self_s) in agg["layers"].items():
            row = layers.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += incl
            row[2] += self_s
        for key, durs in agg["per_call"].items():
            per_call[key].extend(durs)
        counts.update(agg["counts"])
    return {"layers": layers, "per_call": dict(per_call),
            "counts": dict(counts)}


def _grid_size(*args):
    # compute_predictor(model, X, uhat, dhat): M from the estimate profile
    return args[2].num_intervals


def install(rec, trace_dir):
    """Patch the layer boundaries of an imported delaycomp to record spans
    into `rec`; returns a function that removes the patches."""
    from delaycomp import backstepping, cli, grid, history, plants, predictor
    from delaycomp import residuals, simulate

    def bytes_written(_result, args):
        rec.counts["serialize.bytes_written"] += os.path.getsize(args[0])

    def steps(result, _args):
        rec.counts["simulate.steps"] += len(result.times)

    def count_bundle(result, _args):
        def wrap(obj):
            changes = {f.name: rec.counted(getattr(obj, f.name))
                       for f in dataclasses.fields(obj)
                       if callable(getattr(obj, f.name))}
            return dataclasses.replace(obj, **changes)
        result.model = wrap(result.model)
        result.controller = wrap(result.controller)

    sites = {
        cli: {
            "load_config": ("config.load_config",),
            "apply_override": ("config.apply_override",),
            "cmd_verify": ("cli.verify",),
            "cmd_sweep": ("cli.sweep",),
            "convergence_study": ("residuals.convergence_study",),
            "evaluate_snapshot_residuals":
                ("residuals.evaluate_snapshot_residuals",),
            "run_scenario": ("simulate.run_scenario", None, steps),
            "snapshot_kernels": ("simulate.snapshot_kernels",),
            "trajectory_rows": ("serialize.trajectory_rows",),
            "write_csv": ("serialize.write_csv", None, bytes_written),
            "write_json": ("serialize.write_json", None, bytes_written),
        },
        residuals: {
            "run_scenario": ("simulate.run_scenario", None, steps),
            "evaluate_snapshot_residuals":
                ("residuals.evaluate_snapshot_residuals",),
            "snapshot_field": ("simulate.snapshot_field",),
            "snapshot_kernels": ("simulate.snapshot_kernels",),
            "forcing_integral": ("predictor.forcing_integral",),
            "fd_x_wide": ("grid.fd_x_wide",),
        },
        simulate: {
            "make_plant": ("plants.make_plant", None, count_bundle),
            "materialize_slice": ("simulate.materialize_slice",),
            "snapshot_field": ("simulate.snapshot_field",),
            "snapshot_kernels": ("simulate.snapshot_kernels",),
            "compute_predictor":
                ("predictor.compute_predictor", _grid_size),
            "compute_transition_field":
                ("predictor.compute_transition_field",),
            "predictor_spatial_derivative":
                ("predictor.predictor_spatial_derivative",),
            "forward_transform": ("backstepping.forward_transform",),
            "eval_all": ("kernels.eval_all",),
            "fd_x_wide": ("grid.fd_x_wide",),
        },
        backstepping: {
            "inverse_transform": ("backstepping.inverse_transform",),
            "forward_transform": ("backstepping.forward_transform",),
        },
        plants: {
            "make_plant": ("plants.make_plant", None, count_bundle),
        },
    }
    patches = [(module, attr, rec.span(spec[0], getattr(module, attr),
                                       *spec[1:]))
               for module, attrs in sites.items()
               for attr, spec in attrs.items()]
    patches += [
        (history.ControlHistory, "sample_many",
         rec.span("history.sample_many", history.ControlHistory.sample_many)),
        (grid.GridProfile, "interpolant",
         rec.span("grid.interpolant", grid.GridProfile.interpolant)),
        (predictor.TransitionField, "inverses", property(rec.span(
            "predictor.inverses", predictor.TransitionField.inverses.fget))),
    ]

    main_pid = os.getpid()
    cell = rec.span("cli.sweep_cell", cli._sweep_cell)

    @functools.wraps(cli._sweep_cell)
    def sweep_cell(payload):
        if os.getpid() == main_pid:
            return cell(payload)
        # a forked worker inherits the parent's spans; keep only its own
        rec.reset()
        try:
            return cell(payload)
        finally:
            fd, path = tempfile.mkstemp(prefix="cell-", suffix=".json",
                                        dir=trace_dir)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(rec.aggregate(), fh)

    patches.append((cli, "_sweep_cell", sweep_cell))
    saved = [(target, attr, getattr(target, attr))
             for target, attr, _ in patches]
    for target, attr, wrapper in patches:
        setattr(target, attr, wrapper)

    def restore():
        """Put the original functions back."""
        for target, attr, original in saved:
            setattr(target, attr, original)

    return restore


def worker_aggregates(trace_dir):
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("cell-"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out
