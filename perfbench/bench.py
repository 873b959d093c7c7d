"""Workloads, timing, output checks and environment record of the benchmark.

Everything here drives ricciflow through its public entry points:
``parse_config``, ``build_geometry``, ``initial_log_factor`` and
``run_experiment``.  ``ricciflow`` must be importable before this module
is imported (``run.py`` puts the checkout's ``src/`` on ``sys.path``).
"""

import ctypes
import json
import math
import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from ricciflow import modelspaces
from ricciflow.cli import build_geometry, initial_log_factor, run_experiment
from ricciflow.config import parse_config

WORKLOADS_FILE = Path(__file__).resolve().parent / "workloads.json"
OUTPUT_FILES = ("trajectory.csv", "variation.csv", "summary.json")

# Conservation laws hold to roundoff in the discretization.
GAUSS_BONNET_TOL = 1e-9
AREA_LAW_TOL = 1e-9

# Highest tail percentile considered; one is reported only when at least
# this many samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def load_workloads(path=WORKLOADS_FILE):
    return json.loads(Path(path).read_text(encoding="utf-8"))["workloads"]


def config_text(workload, seed, out_dir):
    """Config file text of ``workload``; the seed drives the perturbation."""
    sections = {name: dict(values)
                for name, values in workload["config"].items()}
    sections.setdefault("perturbation", {})["seed"] = seed
    sections["output"] = {"directory": str(out_dir)}
    sections["experiment"] = {"name": workload["experiment"]}
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
        lines.append("")
    return "\n".join(lines)


def time_setup(workload, seed, repeats):
    """Wall time of config text -> geometry, stiffness and initial u."""
    text = config_text(workload, seed, "unused")
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        config = parse_config(text)
        mesh = build_geometry(config.geometry)
        mesh.stiffness
        initial_log_factor(mesh, config.perturbation)
        samples.append(perf_counter() - start)
    return samples


def run_once(workload, seed, out_dir, call=None):
    """Run one experiment into ``out_dir``.

    ``call(fn, *args, **kwargs)`` invokes ``run_experiment``; the traced
    run passes a span-recording caller.  Returns (exit code or error
    text, wall seconds, {output name: bytes}).
    """
    config = parse_config(config_text(workload, seed, out_dir))
    for name in OUTPUT_FILES:
        (Path(out_dir) / name).unlink(missing_ok=True)
    start = perf_counter()
    try:
        if call is None:
            code = run_experiment(config, quiet=True)
        else:
            code = call(run_experiment, config, quiet=True)
    except Exception as exc:  # one failed experiment must not stop the run
        code = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    files = {}
    for name in OUTPUT_FILES:
        path = Path(out_dir) / name
        if path.is_file():
            files[name] = path.read_bytes()
    return code, elapsed, files


def _trajectory_eigenvalues(text, spectrum_k):
    header, *rows = text.strip().splitlines()
    columns = header.split(",")
    picks = [columns.index(f"lambda_{i}") for i in range(1, spectrum_k + 1)]
    return np.array([[float(row.split(",")[c]) for c in picks]
                     for row in rows])


def _exact_torus_eigenvalues(geometry, count):
    lattice = np.diag([geometry.get("l1", 1.0), geometry.get("l2", 1.0)])
    spectrum = modelspaces.exact_spectrum(modelspaces.flat_torus(lattice),
                                          count + 1)
    values = [value for value, multiplicity in spectrum.entries[1:]
              for _ in range(multiplicity)]
    return np.array(values[:count])


def check_outputs(workload, code, files, reference=None):
    """Names of the output checks one experiment failed (empty if none).

    ``reference`` is the output of an earlier repetition of the same run;
    every file must match it byte for byte.
    """
    failures = []
    if code != 0:
        failures.append(f"exit code {code}")
    missing = [name for name in OUTPUT_FILES if name not in files]
    if missing:
        return failures + [f"missing {', '.join(missing)}"]

    summary = json.loads(files["summary.json"])
    if summary.get("stopping_reason") != "t_end":
        failures.append(f"stopping_reason {summary.get('stopping_reason')!r}")
    if summary.get("n_snapshots") != workload["snapshots"]:
        failures.append(f"{summary.get('n_snapshots')} snapshots, expected "
                        f"{workload['snapshots']}")
    gauss_bonnet = summary.get("gauss_bonnet_max_abs_error", math.nan)
    if not gauss_bonnet <= GAUSS_BONNET_TOL:
        failures.append(f"Gauss-Bonnet error {gauss_bonnet}")
    law_key = ("area_drift_rel" if summary.get("mode") == "normalized"
               else "area_law_max_rel_error")
    law = summary.get(law_key, math.nan)
    if not law <= AREA_LAW_TOL:
        failures.append(f"{law_key} {law}")
    if (workload.get("perelman_nondecreasing")
            and not summary.get("perelman", {}).get("nondecreasing")):
        failures.append("Perelman sequence decreases")

    tol = workload.get("exact_spectrum_rel_tol")
    if tol is not None:
        # The cotangent weights of the regular grid reduce to the 5-point
        # stencil, whose relative error at mode (1, 1) is (pi h)^2 / 3,
        # 1.4e-3 at h = 1/48; the stated tolerance sits just above it.
        k = workload["config"]["flow"]["spectrum_k"]
        computed = _trajectory_eigenvalues(
            files["trajectory.csv"].decode("ascii"), k)
        exact = _exact_torus_eigenvalues(workload["config"]["geometry"], k)
        worst = float(np.max(np.abs(computed - exact) / exact))
        if not worst <= tol:
            failures.append(f"torus spectrum off by {worst:.3e} > {tol}")

    if reference is not None:
        changed = [name for name in OUTPUT_FILES
                   if files.get(name) != reference.get(name)]
        if changed:
            failures.append(f"not byte-identical: {', '.join(changed)}")
    return failures


def tail_percentile(samples):
    """(percentile, value) of the highest TAIL_PERCENTILES entry that has
    at least TAIL_MIN_BEYOND samples beyond it, or None.

    The value is the nearest-rank percentile; the samples beyond it are
    those ranked above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
        rank = math.ceil(round(percentile / 100.0 * n, 6))
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return percentile, ordered[rank - 1]
    return None


def describe_timing(name, samples, unit="s"):
    """One report line: median, sample count and the tail rule's percentile."""
    line = (f"{name}: median {statistics.median(samples):.6g} {unit} "
            f"over {len(samples)} samples")
    tail = tail_percentile(samples)
    if tail is None:
        return line + f" (no tail percentile: fewer than {TAIL_MIN_BEYOND} " \
                      "samples beyond p90)"
    return line + f", p{tail[0]:g} {tail[1]:.6g} {unit}"


def _blas_libraries():
    """{OpenBLAS library file: thread count} for the loaded copies."""
    threads = {}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return threads
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads[Path(path).name] = getter()
                break
    return threads


def _blas_version(config):
    return config["Build Dependencies"]["blas"].get("version")


def source_lines(root):
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((Path(root) / "src").rglob("*.py")))


def environment(root, seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(np.show_config(mode="dicts")),
        "openblas_scipy": _blas_version(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_libraries(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": source_lines(root),
    }
