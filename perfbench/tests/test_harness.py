"""Tests of the benchmark harness: span arithmetic, the tail-percentile
rule, wrapper installation and removal, and a tiny end-to-end run.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import tracing  # noqa: E402

SMOKE_SPHERE = {
    "experiment": "verify",
    "snapshots": 6,
    "perelman_nondecreasing": True,
    "config": {
        "geometry": {"kind": "icosphere", "subdivisions": 2},
        "perturbation": {"amplitude": 0.1, "mode": 2},
        "flow": {"mode": "unnormalized", "dt_init": 1e-3, "t_end": 0.01,
                 "record_every": 2, "spectrum_k": 8},
    },
}

# (pi h)^2 / 3 = 0.0129 at h = 1/16.
SMOKE_TORUS = {
    "experiment": "verify",
    "snapshots": 6,
    "exact_spectrum_rel_tol": 0.02,
    "config": {
        "geometry": {"kind": "flat_torus", "n": 16, "m": 16},
        "perturbation": {"amplitude": 0.0},
        "flow": {"mode": "unnormalized", "dt_init": 2e-4, "t_end": 1e-3,
                 "record_every": 1, "spectrum_k": 8},
    },
}


def _span(name, start, end, parent):
    return [name, start, end, parent, False]


def test_self_times_subtract_direct_children():
    spans = [
        _span("cli.run_experiment", 0.0, 10.0, -1),
        _span("flow.run", 1.0, 4.0, 0),
        _span("mesh.curvature", 2.0, 3.0, 1),
        _span("variation.perelman", 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.layer_self_times(spans) == {
        "cli": 3.0, "flow": 2.0, "mesh": 1.0, "variation": 4.0}
    assert sum(tracing.self_times(spans)) == 10.0


@pytest.mark.parametrize("count, expected", [
    (1, None),
    (99, None),
    (100, (90.0, 90.0)),
    (999, (90.0, 900.0)),
    (1000, (99.0, 990.0)),
    (10000, (99.9, 9990.0)),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    samples = [float(i) for i in range(count, 0, -1)]
    assert bench.tail_percentile(samples) == expected


def _bindings():
    """Every (module, attribute) binding of a traced function or splu."""
    targets = {id(getattr(importlib.import_module(module), name))
               for module, name, _ in tracing.LAYER_FUNCTIONS}
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.startswith("ricciflow"):
            for attribute, value in vars(module).items():
                if id(value) in targets:
                    found[(name, attribute)] = value
    for name in tracing.SPLU_MODULES:
        found[(name, "splu")] = importlib.import_module(name).splu
    return found


def test_wrappers_cover_every_binding_and_restore_originals():
    importlib.import_module("ricciflow.cli")
    before = _bindings()
    assert ("ricciflow.flow", "scalar_curvature") in before
    assert ("ricciflow", "solve_spectrum") in before

    tracer = tracing.Tracer()
    tracer.patch_splu()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            for (module, attribute), original in before.items():
                current = getattr(sys.modules[module], attribute)
                assert current is not original
                assert current.__wrapped__ is original
            raise RuntimeError("boom")
    for (module, attribute), original in before.items():
        current = getattr(sys.modules[module], attribute)
        assert (current is original) == (attribute != "splu")
    tracer.restore()
    assert _bindings() == before


def test_config_text_carries_seed_and_experiment(tmp_path):
    config = bench.parse_config(bench.config_text(SMOKE_SPHERE, 5, tmp_path))
    assert config.perturbation.seed == 5
    assert config.experiment == "verify"
    assert config.output_dir == str(tmp_path)
    assert config.flow.record_every == 2


@pytest.mark.parametrize("workload", [SMOKE_SPHERE, SMOKE_TORUS],
                         ids=["sphere", "torus"])
def test_smoke_workload_passes_every_check(workload, tmp_path):
    code, elapsed, first = bench.run_once(workload, 7, tmp_path)
    assert elapsed > 0
    assert bench.check_outputs(workload, code, first) == []
    code, _, again = bench.run_once(workload, 7, tmp_path)
    assert bench.check_outputs(workload, code, again, reference=first) == []

    wrong_count = dict(workload, snapshots=workload["snapshots"] + 1)
    assert bench.check_outputs(wrong_count, code, again) == [
        f"{workload['snapshots']} snapshots, expected "
        f"{workload['snapshots'] + 1}"]
    altered = dict(again, **{"variation.csv": again["variation.csv"] + b"\n"})
    assert bench.check_outputs(workload, code, altered, reference=first) == [
        "not byte-identical: variation.csv"]


def test_traced_smoke_run_reports_every_declared_metric(tmp_path):
    tracer = tracing.Tracer()
    tracer.patch_splu()
    try:
        with tracer.installed():
            code, elapsed, files = bench.run_once(
                SMOKE_SPHERE, 7, tmp_path,
                call=lambda fn, *a, **k: tracer.call("cli.run_experiment",
                                                     fn, *a, **k))
    finally:
        tracer.restore()
    assert bench.check_outputs(SMOKE_SPHERE, code, files) == []

    metrics = tracing.layer_metrics(tracer, 123)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert ({m["name"] for m in declared}
            == set(metrics) | {"trace.overhead_ratio"})
    units = {m["name"]: m["unit"] for m in declared}
    assert all(units[name] == unit for name, (_, unit) in metrics.items())

    root = tracer.spans[0]
    assert root[0] == "cli.run_experiment" and root[3] == -1
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        root[2] - root[1], rel=1e-9)
    value = {name: v for name, (v, _) in metrics.items()}
    assert value["flow.steps"] == 10
    assert value["spectral.solve_calls"] == SMOKE_SPHERE["snapshots"]
    assert value["variation.perelman_calls"] == SMOKE_SPHERE["snapshots"]
    assert value["spectral.lu_factorizations"] == SMOKE_SPHERE["snapshots"]
    assert value["variation.perelman_lu_factorizations"] == \
        SMOKE_SPHERE["snapshots"]
    assert value["spectral.lu_solves"] > 0
    assert value["cli.bytes_written"] == 123
    assert "unattributed" not in tracer.lu


def test_benchmark_manifest_matches_workload_definitions():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = bench.load_workloads()
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: w["why"] for name, w in workloads.items()}
    assert manifest["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"] for m in manifest["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mib", "ok_ratio"}


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere5-verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert result.stdout == ""
