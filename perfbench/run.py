"""delaycomp benchmark: one command for every workload and metric.

python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The workload is repeated as a closed loop with one client (the
next batch starts when the previous one ends) until `--seconds` have
passed.  With `--trace 0` the end-to-end metrics are measured untraced;
with `--trace 1` the layer boundaries are patched and traced batches give
the per-layer metrics, and the determinism probe, timed alternately
untraced and traced, gives the tracing overhead.  The last line of
standard output is the JSON result; the lines before it hold the
environment and the timing summary.  See perfbench/README.md for the
metrics.
"""

import os
import sys

# pinned before numpy loads anywhere: one BLAS thread per process, so the
# sweep's two pool workers use two cores and not 2 x N threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

SETUP_REPS = 5
SETUP_SNIPPET = ("import sys, delaycomp; "
                 "delaycomp.load_config(sys.argv[1]).build()")

# layers every workload reaches: calls and self seconds per batch
LAYER_TIMES = ("predictor.compute_predictor", "grid.interpolant",
               "history.sample_many", "simulate.materialize_slice",
               "predictor.compute_transition_field", "kernels.eval_all")
SELF_ONLY = ("predictor.inverses", "predictor.predictor_spatial_derivative",
             "backstepping.forward_transform")
CALLS_ONLY = ("residuals.evaluate_snapshot_residuals", "serialize.write_csv")
# layers only some workloads reach report their share of the traced
# program time instead, so no time metric reads a constant 0
SHARES = ("simulate.run_scenario", "backstepping.inverse_transform",
          "predictor.forcing_integral",
          "residuals.evaluate_snapshot_residuals", "serialize.write_csv",
          "config.load_config")
# the main process of a sweep waits for its pool inside this span
WAITING = ("cli.sweep",)
MARCH_SIZES = (32, 50, 100, 200)
OVERHEAD_PAIRS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("certify", "sweep", "slices"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values):
    """Median and the highest percentile with at least ten samples beyond
    it (none below 11 samples), with the sample count."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals) if vals else None}
    if n >= 11:
        out[f"p{math.floor(100.0 * (n - 10) / n)}"] = vals[n - 11]
    return out


def measure_setup(config):
    """Wall time of a fresh interpreter that imports delaycomp, loads the
    config and builds the plant and schedule; one warm-up, then the rest."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", SETUP_SNIPPET, config]
    times = []
    for i in range(SETUP_REPS + 1):
        started = perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(perf_counter() - started)
    return times


def rss_peak_mb():
    """Peak RSS of this process plus that of its largest waited child."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "delaycomp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed, "git_commit": git_commit(),
            "source_sha256": source_digest()}


def run_ops(workload, seconds, first_index=0):
    """Repeat batches until `seconds` have passed (at least one)."""
    ops = []
    started = perf_counter()
    while True:
        ops.append(workload.run(first_index + len(ops)))
        if perf_counter() - started >= seconds:
            return ops


def layer_metrics(agg, main, traced, march, overhead):
    """Per-layer metrics per batch from the merged span aggregate `agg`;
    `main` is the aggregate of this process alone and `march` the
    untraced seconds per interval of the march probe, by M."""
    layers, counts, per_call = agg["layers"], agg["counts"], agg["per_call"]
    n = len(traced)

    def calls(name):
        return layers.get(name, (0, 0.0, 0.0))[0] / n

    def self_s(name):
        return layers.get(name, (0, 0.0, 0.0))[2] / n

    def median(key):
        vals = per_call.get(key, [])
        return statistics.median(vals) if vals else 0.0

    m = {}
    for name in LAYER_TIMES:
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = self_s(name)
    for name in SELF_ONLY:
        m[name + ".s"] = self_s(name)
    for name in CALLS_ONLY:
        m[name + ".calls"] = calls(name)
    busy = sum(row[2] for name, row in layers.items() if name not in WAITING)
    for name in SHARES:
        m[name + ".share"] = self_s(name) * n / busy
    for size in MARCH_SIZES:
        m[f"predictor.compute_predictor.us_per_interval.M{size}"] = \
            1e6 * march[size]
    m["history.sample_many.us_per_call"] = \
        1e6 * median("history.sample_many")
    m["kernels.eval_all.ms_per_call"] = 1e3 * median("kernels.eval_all")
    steps = counts.get("simulate.steps", 0)
    m["simulate.steps"] = steps / n
    # every march in certify and sweep runs inside the step loop
    m["simulate.marches_per_step"] = \
        calls("predictor.compute_predictor") * n / steps if steps else 0.0
    m["plants.callbacks"] = counts.get("plants.callbacks", 0) / n
    m["serialize.bytes_written"] = \
        counts.get("serialize.bytes_written", 0) / n
    m["cli.sweep.pool_utilization"] = statistics.median(
        op.pool_utilization for op in traced)
    m["trace.overhead"] = overhead
    # self times of this process partition its top-level spans, which
    # cover the traced batches' program time
    m["trace.accounted"] = sum(row[2] for row in main["layers"].values()) \
        / sum(op.wall for op in traced)
    return m


def measure(args, work):
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    summary = {"workload": args.workload, "seconds": args.seconds}
    before, _ = workload.probe()
    checks = [before]

    if args.trace:
        march = workloads.march_probe(args.seed, MARCH_SIZES)
        # the probe alternates untraced and traced, so a slow spell of the
        # machine does not land on one side only
        probe_dir = os.path.join(work, "probe-trace")
        os.makedirs(probe_dir)
        probe_wall = {"untraced": [], "traced": []}
        for _ in range(OVERHEAD_PAIRS):
            digest, wall = workload.probe()
            checks.append(digest)
            probe_wall["untraced"].append(wall)
            restore = spans.install(spans.Recorder(), probe_dir)
            digest, wall = workload.probe()
            restore()
            checks.append(digest)
            probe_wall["traced"].append(wall)
        overhead = statistics.median(probe_wall["traced"]) \
            / statistics.median(probe_wall["untraced"]) - 1.0

        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        rec = spans.Recorder()
        spans.install(rec, trace_dir)
        ops = run_ops(workload, args.seconds)
        main = rec.aggregate()
        agg = spans.merge([main] + spans.worker_aggregates(trace_dir))
        rec.dump_spans(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json"))
        digest, _ = workload.probe()
        metrics = layer_metrics(agg, main, ops, march, overhead)
        summary["layers"] = {
            name: {"calls": row[0], "incl_s": row[1], "self_s": row[2]}
            for name, row in sorted(agg["layers"].items())}
        summary["counts"] = agg["counts"]
        summary["march_us_per_interval"] = {
            "probe": {m: 1e6 * v for m, v in march.items()},
            "traced": {key.split("@")[1]: 1e6 * statistics.median(durs)
                       / int(key.split("@")[1])
                       for key, durs in sorted(agg["per_call"].items())
                       if key.startswith("predictor.compute_predictor@")}}
        summary["probe_wall_s"] = probe_wall
    else:
        setup = measure_setup(workload.setup_config)
        ops = run_ops(workload, args.seconds)
        busy = sum(op.wall for op in ops)
        metrics = {"setup_s": statistics.median(setup),
                   "wall_s": statistics.median(op.wall for op in ops),
                   "ops_per_s": sum(op.attempted for op in ops) / busy,
                   "rss_peak_mb": rss_peak_mb()}
        summary["setup_s"] = tail(setup)
        digest, _ = workload.probe()
    checks.append(digest)

    # determinism: every probe agrees with the first, and so do all batches
    # of a workload whose batches repeat the same inputs
    deterministic = len(set(checks)) == 1
    if workload.repeats_inputs:
        deterministic = deterministic and len({op.digest for op in ops}) == 1
    attempted = sum(op.attempted for op in ops) + 1
    failed = sum(op.failed for op in ops) + (0 if deterministic else 1)

    summary["batches"] = len(ops)
    summary["batch_wall_s"] = tail([op.wall for op in ops])
    summary["unit_latency_s"] = tail([s for op in ops for s in op.samples])
    if ops[0].steps:
        summary["steps_per_s"] = sum(op.steps for op in ops) \
            / sum(op.wall for op in ops)
    summary["deterministic"] = deterministic
    summary["error_ratio"] = failed / attempted
    return metrics, attempted, failed, summary


def declared_metrics(trace):
    """Metric names and units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "delaycomp", "__init__.py")):
        print(f"perfbench: no delaycomp package under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT)
    os.environ["DELAYCOMP_OUT_ROOT"] = work
    try:
        env = environment(args.seed)
        metrics, attempted, failed, summary = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(declared):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
