"""Benchmark: ricciflow experiments timed end to end, or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sphere5-verify --seed 7 \
        --seconds 40 --trace 0

The workloads and their configs are in ``perfbench/workloads.json``; the
seed becomes the config's ``[perturbation] seed``.  One process runs one
workload as a closed loop: one experiment at a time through
``ricciflow.cli.run_experiment``, repeated while the next one is expected
to end within ``--seconds`` (and at least twice, so reruns can be
compared byte for byte).  Every experiment's outputs are checked, and all
of them count in ``attempted``.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of the
set-ups made before each experiment), ``run_s`` (median experiment wall
time), ``peak_rss_mib`` (peak resident set of this process) and
``ok_ratio`` (experiments passing every check / experiments attempted).

``--trace 1`` runs an untimed warm-up experiment, then alternates
untraced and traced experiments and reports the per-layer metrics of the
traced ones (medians over traced runs) plus ``trace.overhead_ratio``
(median traced / median untraced wall time - 1).  The spans of the last
traced run are written to ``perfbench/.out/spans-<workload>.csv``.
"""

import argparse
import functools
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / ".out"
SETUP_PER_ROUND = 8
MIN_REPETITIONS = 2


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _fits(start, seconds, *samples):
    """Whether one more round (one median sample of each kind) ends in time."""
    expected = sum(statistics.median(times) for times in samples)
    return perf_counter() - start + expected <= seconds


def measure_end_to_end(bench, workload, seed, seconds, work):
    setup, times, failures = [], [], []
    reference = None
    start = perf_counter()
    while len(times) < MIN_REPETITIONS or _fits(start, seconds, times):
        # Set-ups are spread over the run, like the experiments, so that
        # their median does not hinge on the machine's load in one moment.
        setup += bench.time_setup(workload, seed, SETUP_PER_ROUND)
        code, elapsed, files = bench.run_once(workload, seed, work)
        failures.append(bench.check_outputs(workload, code, files, reference))
        reference = reference or files
        times.append(elapsed)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(failures)
    ok = sum(not problems for problems in failures)
    report = [
        bench.describe_timing("setup_s", setup),
        bench.describe_timing("run_s", times),
        f"run_s samples: {', '.join(f'{t:.4f}' for t in times)}",
        f"peak_rss_mib: {peak_mib:.1f} MiB",
        f"failed_ratio: {attempted - ok}/{attempted} = "
        f"{(attempted - ok) / attempted:.3g}",
    ]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "run_s": _metric(statistics.median(times), "s"),
        "peak_rss_mib": _metric(peak_mib, "MiB"),
        "ok_ratio": _metric(ok / attempted, "ratio"),
    }
    return metrics, failures, report, None


def measure_layers(bench, tracer, workload, seed, seconds, work):
    start = perf_counter()
    # An untimed warm-up whose outputs every later run must match.
    code, _, reference = bench.run_once(workload, seed, work)
    failures = [bench.check_outputs(workload, code, reference)]
    untraced, traced, per_run = [], [], []
    while not traced or _fits(start, seconds, untraced, traced):
        code, elapsed, files = bench.run_once(workload, seed, work)
        failures.append(bench.check_outputs(workload, code, files, reference))
        untraced.append(elapsed)

        tracer.reset()
        with tracer.installed():
            code, elapsed, files = bench.run_once(
                workload, seed, work,
                call=functools.partial(tracer.call, "cli.run_experiment"))
        problems = bench.check_outputs(workload, code, files, reference)
        root = tracer.spans[0]
        self_sum = sum(tracing.self_times(tracer.spans))
        if abs(self_sum - (root[2] - root[1])) > 1e-9 * elapsed:
            problems.append(f"span self times sum to {self_sum}, "
                            f"root span lasts {root[2] - root[1]}")
        failures.append(problems)
        traced.append(elapsed)
        per_run.append(tracing.layer_metrics(
            tracer, sum(len(data) for data in files.values())))

    metrics = {
        name: _metric(statistics.median(run[name][0] for run in per_run), unit)
        for name, (_, unit) in per_run[0].items()
    }
    metrics["trace.overhead_ratio"] = _metric(
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")

    layers = tracing.layer_self_times(tracer.spans)
    run_s = metrics["trace.run_s"]["value"]
    report = [
        bench.describe_timing("untraced run_s", untraced),
        bench.describe_timing("traced run_s", traced),
        "self time by layer (last traced run): " + ", ".join(
            f"{layer} {own:.4f} s" for layer, own in sorted(layers.items()))
        + f"; sum {sum(layers.values()):.4f} s",
        f"eigen share (spectral + variation.perelman): "
        f"{metrics['share.eigen']['value']:.1%} of {run_s:.3f} s",
        f"flow.step share: {metrics['share.flow_step']['value']:.1%}",
    ]
    unattributed = tracer.lu.get("unattributed")
    if unattributed:
        report.append(f"LU work outside spectral/variation spans: "
                      f"{dict(unattributed)}")
    return metrics, failures, report, tracer.spans


def write_spans(path, spans):
    origin = spans[0][1]
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("index,name,start_s,end_s,parent,failed\n")
        for index, (name, start, end, parent, failed) in enumerate(spans):
            handle.write(f"{index},{name},{start - origin:.9f},"
                         f"{end - origin:.9f},{parent},{int(failed)}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ricciflow" / "__init__.py").is_file():
        print(f"error: no ricciflow package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    tracer = tracing.Tracer()
    if args.trace:
        # Must precede the first ricciflow import, so a module that binds
        # splu at import time binds the proxy.
        tracer.patch_splu()
    import bench  # imports ricciflow

    loaded_from = Path(bench.run_experiment.__code__.co_filename).parent
    if loaded_from != src / "ricciflow":
        print("error: ricciflow was not imported from this checkout",
              file=sys.stderr)
        return 2
    workloads = bench.load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        if args.trace:
            metrics, failures, report, spans = measure_layers(
                bench, tracer, workload, args.seed, args.seconds, work)
        else:
            metrics, failures, report, spans = measure_end_to_end(
                bench, workload, args.seed, args.seconds, work)
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    environment = bench.environment(ROOT, args.seed)
    failed = sum(bool(problems) for problems in failures)
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": metrics,
    }
    if spans:
        write_spans(OUT_DIR / f"spans-{args.workload}.csv", spans)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    for line in report:
        print(line)
    for index, problems in enumerate(failures):
        for problem in problems:
            print(f"check failed (experiment {index}): {problem}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
