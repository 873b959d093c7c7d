import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from ricciflow import cli, spectral, variation
from ricciflow.cli import (
    build_geometry,
    conformal_bump,
    initial_log_factor,
    main,
    run_experiment,
)
from ricciflow.config import GeometrySpec, PerturbationSpec, parse_config
from ricciflow.flow import ConformalState, SpectrumSnapshot
from ricciflow.mesh import (
    build_flat_torus,
    build_icosphere,
    integrate,
    total_area,
)

TORUS_VERIFY = """\
[geometry]
kind = flat_torus
n = 8
m = 8

[flow]
dt_init = 1e-3
t_end = 0.01
record_every = 2
spectrum_k = 6

[experiment]
name = verify
"""

SPHERE_VERIFY = """\
[geometry]
kind = icosphere
subdivisions = 2

[perturbation]
amplitude = 0.1
mode = 2
seed = 7

[flow]
dt_init = 1e-3
t_end = 6e-3
record_every = 1
spectrum_k = 6

[experiment]
name = verify
"""

OCTAHEDRON_OFF = """OFF
6 8 12
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 1
0 0 -1
3 0 2 4
3 2 1 4
3 1 3 4
3 3 0 4
3 2 0 5
3 1 2 5
3 3 1 5
3 0 3 5
"""


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# initial data helpers


def test_conformal_bump_is_seeded_and_sup_normalized():
    mesh = build_icosphere(2, 1.0)
    pert = PerturbationSpec(amplitude=0.3, mode=2, seed=7)
    bump = conformal_bump(mesh, pert)
    assert np.abs(bump).max() == pytest.approx(0.3, rel=1e-12)
    again = conformal_bump(mesh, pert)
    assert np.array_equal(bump, again)
    other = conformal_bump(mesh, PerturbationSpec(amplitude=0.3, mode=2, seed=8))
    assert not np.array_equal(bump, other)


def test_zero_amplitude_bump_is_flat():
    mesh = build_flat_torus(4, 4, 1.0, 1.0)
    bump = conformal_bump(mesh, PerturbationSpec(amplitude=0.0))
    assert np.array_equal(bump, np.zeros(mesh.n_vertices))


def test_all_bump_degrees_available():
    mesh = build_icosphere(1, 1.0)
    for mode in (1, 2, 3):
        bump = conformal_bump(mesh, PerturbationSpec(amplitude=0.1, mode=mode,
                                                     seed=3))
        assert np.abs(bump).max() == pytest.approx(0.1, rel=1e-12)


def test_initial_log_factor_restores_base_area():
    mesh = build_icosphere(2, 1.0)
    base_area = total_area(mesh, np.zeros(mesh.n_vertices))
    u0 = initial_log_factor(mesh, PerturbationSpec(amplitude=0.2, mode=2, seed=1))
    assert total_area(mesh, u0) == pytest.approx(base_area, rel=1e-13)


def test_initial_log_factor_hits_target_area():
    mesh = build_icosphere(2, 1.0)
    u0 = initial_log_factor(mesh, PerturbationSpec(amplitude=0.2, mode=2, seed=1),
                            target_area=1.0)
    assert total_area(mesh, u0) == pytest.approx(1.0, rel=1e-13)


def test_build_geometry_kinds(tmp_path):
    sphere = build_geometry(GeometrySpec(kind="icosphere", subdivisions=1,
                                         radius=2.0))
    assert sphere.n_vertices == 42
    torus = build_geometry(GeometrySpec(kind="flat_torus", n=5, m=6))
    assert torus.n_vertices == 30
    off_path = tmp_path / "oct.off"
    off_path.write_text(OCTAHEDRON_OFF)
    octa = build_geometry(GeometrySpec(kind="off_file", path=str(off_path)))
    assert octa.n_vertices == 6 and octa.n_faces == 8


# ---------------------------------------------------------------------------
# end-to-end experiment runs


def test_verify_run_on_flat_torus(tmp_path, capsys):
    config = parse_config(TORUS_VERIFY)
    config.output_dir = str(tmp_path / "run")
    assert run_experiment(config) == 0
    out = capsys.readouterr().out
    assert "stopped: t_end" in out

    header, rows = read_csv(tmp_path / "run" / "trajectory.csv")
    assert header == ["t", "area", "r_avg", "R_min", "R_max",
                      "lambda_1", "lambda_2", "lambda_3", "lambda_4",
                      "lambda_5", "lambda_6"]
    assert len(rows) == 6
    assert [float(r["t"]) for r in rows] == pytest.approx(
        [0.0, 0.002, 0.004, 0.006, 0.008, 0.01], abs=1e-12)
    lam1 = [float(r["lambda_1"]) for r in rows]
    assert all(abs(v - 4.0 * math.pi**2) < 0.06 * 4.0 * math.pi**2
               for v in lam1)
    assert max(lam1) - min(lam1) < 1e-9

    header_v, rows_v = read_csv(tmp_path / "run" / "variation.csv")
    assert header_v == ["t", "index", "is_cluster", "lambda", "fd_rate",
                        "rhs_rate", "rel_error", "integ_res_1", "integ_res_2",
                        "tracking_ok"]
    assert len(rows_v) == 8  # 4 interior times x 2 degenerate clusters
    assert all(r["is_cluster"] == "1" for r in rows_v)
    assert all(abs(float(r["fd_rate"])) < 1e-9 for r in rows_v)
    assert all(abs(float(r["rhs_rate"])) < 1e-9 for r in rows_v)
    assert all(r["integ_res_1"] == "nan" for r in rows_v)

    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["experiment"] == "verify"
    assert summary["mode"] == "unnormalized"
    assert summary["stopping_reason"] == "t_end"
    assert summary["n_snapshots"] == 6
    assert summary["euler_characteristic"] == 0
    assert summary["gauss_bonnet_max_abs_error"] < 1e-9
    assert summary["area_law_max_rel_error"] < 1e-12
    assert summary["monotonicity"]["all_branches_nondecreasing"] is True
    assert summary["monotonicity"]["slack"] == 1e-8
    assert summary["perelman"]["nondecreasing"] is True
    assert max(abs(v) for v in summary["perelman"]["sequence"]) < 1e-8
    assert summary["variation"]["n_rows"] == 8
    assert summary["variation"]["n_simple_rows"] == 0
    assert summary["variation"]["median_rel_error_simple"] is None
    assert summary["variation"]["max_integrability_residual"] is None
    assert isinstance(summary["tracking_warning_count"], int)


def test_verify_run_on_bumpy_sphere(tmp_path):
    config = parse_config(SPHERE_VERIFY)
    config.output_dir = str(tmp_path / "run")
    assert run_experiment(config, quiet=True) == 0

    _, rows_v = read_csv(tmp_path / "run" / "variation.csv")
    assert len(rows_v) == 30
    assert all(r["is_cluster"] == "0" for r in rows_v)
    assert all(r["tracking_ok"] == "1" for r in rows_v)
    residuals = [max(float(r["integ_res_1"]), float(r["integ_res_2"]))
                 for r in rows_v]
    assert max(residuals) < 1e-4

    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["euler_characteristic"] == 2
    assert summary["variation"]["n_simple_rows"] == 30
    assert summary["variation"]["median_rel_error_simple"] < 1e-4
    assert summary["variation"]["max_rel_error_simple"] < 1e-3
    assert summary["variation"]["max_integrability_residual"] < 1e-4
    assert summary["area_law_max_rel_error"] < 1e-10
    assert summary["tracking_warning_count"] == 0


def test_report_window_holds_three_full_snapshots(tmp_path, monkeypatch):
    real_run, real_report = cli.run, variation.variation_report
    real_summary = cli._base_summary
    # Every snapshot the flow hands over, for as long as anything holds it.
    full = weakref.WeakSet()
    live, live_in_report, reported, summarized = [], [], [], []
    returned = []

    def watched_run(initial, cfg, on_record=None):
        def watching(snapshot):
            full.add(snapshot)
            returned.append(on_record(snapshot))
            live.append(len(full))
            return returned[-1]

        return real_run(initial, cfg, on_record=watching)

    def counting_report(snapshots, mode):
        live_in_report.append(len(full))
        rows = real_report(snapshots, mode)
        reported.append(len(rows))
        return rows

    def watched_summary(config, traj):
        summarized.append(list(traj.snapshots))
        return real_summary(config, traj)

    monkeypatch.setattr(cli, "run", watched_run)
    # Wrapped through the module attribute, as the benchmark tracer does.
    monkeypatch.setattr(variation, "variation_report", counting_report)
    monkeypatch.setattr(cli, "_base_summary", watched_summary)
    config = parse_config(SPHERE_VERIFY)
    config.output_dir = str(tmp_path / "run")
    assert run_experiment(config, quiet=True) == 0

    # Two full snapshots outlive each callback, three live in a report.
    assert live == [1, 2, 2, 2, 2, 2, 2]
    assert live_in_report == [3] * 5
    assert reported == [6] * 5
    # The summary sees records only, none holding a V-length array but u.
    records = summarized[0]
    assert len(records) == 7
    assert all(a is b for a, b in zip(records, returned, strict=True))
    assert all(type(s) is cli.SnapshotRecord for s in records)
    assert not any(hasattr(s, name) for s in records
                   for name in ("R", "mass_diag", "eigenvectors"))

    # A plain run keeps every snapshot whole; its whole-trajectory report
    # has the rows the windows reported, and variation.csv has them all.
    mesh = build_geometry(config.geometry)
    traj = real_run(ConformalState(
        mesh, initial_log_factor(mesh, config.perturbation)), config.flow)
    assert all(isinstance(s, SpectrumSnapshot) for s in traj.snapshots)
    assert sum(reported) == len(real_report(traj.snapshots, traj.mode)) == 30
    _, rows_v = read_csv(tmp_path / "run" / "variation.csv")
    assert len(rows_v) == 30


def test_records_give_the_outputs_of_full_snapshots(tmp_path):
    config = parse_config(SPHERE_VERIFY)
    config.output_dir = str(tmp_path / "run")
    assert run_experiment(config, quiet=True) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    _, rows = read_csv(tmp_path / "run" / "trajectory.csv")

    mesh = build_geometry(config.geometry)
    traj = cli.run(ConformalState(
        mesh, initial_log_factor(mesh, config.perturbation)), config.flow)
    assert summary["perelman"]["sequence"] == [
        variation.perelman_lambda(snap, config.flow.solver_tol)
        for snap in traj.snapshots]
    assert summary["gauss_bonnet_max_abs_error"] == max(
        abs(integrate(snap.mass_diag, snap.R) - 8.0 * math.pi)
        for snap in traj.snapshots)
    assert [[float(v) for v in row.values()] for row in rows] == [
        [snap.t, snap.area, snap.r_avg, snap.R_min, snap.R_max,
         *snap.eigenvalues[1:].tolist()] for snap in traj.snapshots]


def test_reruns_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        config = parse_config(TORUS_VERIFY)
        config.output_dir = str(tmp_path / sub)
        assert run_experiment(config, quiet=True) == 0
    for name in ("trajectory.csv", "variation.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_solver_failure_flushes_partial_outputs(tmp_path, capsys):
    config = parse_config(TORUS_VERIFY)
    config.flow.solver_tol = 1e-14  # below the attainable residual
    config.output_dir = str(tmp_path / "run")
    assert run_experiment(config, quiet=True) == 2
    err = capsys.readouterr().err
    assert "eigensolver failure at t=0: " in err
    assert "tolerance 1.0e-14" in err

    traj_lines = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    assert len(traj_lines) == 1  # header only
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["stopping_reason"] == "solver_failure"
    assert summary["n_snapshots"] == 0
    assert "t_final" not in summary
    failure = summary["failure"]
    assert failure["t"] == 0.0
    assert "tolerance 1.0e-14" in failure["message"]
    assert isinstance(failure["best_residual"], float)
    assert failure["best_residual"] > 1e-14


def test_perelman_failure_flushes_partial_outputs(tmp_path, capsys,
                                                 monkeypatch):
    expected = []

    def missed_lobpcg(pencil, start, B, **kwargs):
        # A column that misses the contract; perelman_lambda M-normalizes it
        # and reports its residual at its Rayleigh quotient.
        column = np.random.default_rng(0).standard_normal(start.shape)
        mdiag = B.diagonal()
        f = column[:, 0] / np.sqrt(mdiag @ column[:, 0]**2)
        mf = mdiag * f
        expected.append(np.linalg.norm(pencil @ f - (f @ (pencil @ f)) * mf)
                        / np.linalg.norm(mf))
        return np.zeros(1), column

    monkeypatch.setattr(spectral, "lobpcg", missed_lobpcg)
    # The bump makes R vary, so the constant misses the contract and
    # LOBPCG runs.
    config = parse_config(SPHERE_VERIFY)
    config.output_dir = str(tmp_path / "run")
    assert run_experiment(config, quiet=True) == 2
    err = capsys.readouterr().err
    assert "eigensolver failure at t=0: curvature-shifted pencil" in err

    out = tmp_path / "run"
    assert len((out / "trajectory.csv").read_text().splitlines()) == 8
    assert len((out / "variation.csv").read_text().splitlines()) > 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stopping_reason"] == "t_end"
    assert summary["perelman"]["sequence"] == []
    failure = summary["failure"]
    assert failure["t"] == 0.0
    assert "exceeds tolerance 1.0e-10" in failure["message"]
    assert failure["best_residual"] == pytest.approx(expected[0], rel=1e-12)
    assert failure["best_residual"] > 1e-6


def test_missing_output_dir_is_a_config_error(capsys):
    config = parse_config(TORUS_VERIFY)
    assert run_experiment(config) == 3
    assert "config error" in capsys.readouterr().err


def test_bump_on_flat_torus_is_refused(tmp_path, capsys):
    # The bump is a polynomial of the chart coordinates: on a flat torus
    # it jumps across the seams, so only amplitude 0 may run.
    for amplitude, code in ((0.1, 3), (0.0, 0)):
        config = parse_config(TORUS_VERIFY + "\n[perturbation]\n"
                              f"amplitude = {amplitude}\n")
        config.output_dir = str(tmp_path / str(amplitude))
        assert run_experiment(config, quiet=True) == code
        assert (tmp_path / str(amplitude)).exists() == (code == 0)
    assert ("config error: [perturbation] amplitude must be 0 on a flat "
            "torus" in capsys.readouterr().err)


def test_experiment_geometry_validation(tmp_path, capsys):
    bad = [
        ("soliton", TORUS_VERIFY.replace("name = verify", "name = soliton")),
        ("conjecture", TORUS_VERIFY.replace("name = verify",
                                            "name = conjecture")),
        ("perelman", SPHERE_VERIFY.replace("name = verify", "name = perelman")
         .replace("[flow]", "[flow]\nmode = normalized")),
    ]
    for name, text in bad:
        config = parse_config(text)
        config.output_dir = str(tmp_path / name)
        assert run_experiment(config) == 3, name
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / name).exists()


# ---------------------------------------------------------------------------
# command-line entry point


def test_main_runs_subcommand_and_overrides(tmp_path):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(TORUS_VERIFY.replace("name = verify",
                                                "name = flow"))
    out_dir = tmp_path / "cli-out"
    code = main(["verify", "--config", str(config_path),
                 "--out", str(out_dir), "--quiet"])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["experiment"] == "verify"  # subcommand wins over [experiment]


def test_main_out_overrides_config_directory(tmp_path):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(
        TORUS_VERIFY + f"\n[output]\ndirectory = {tmp_path / 'from-config'}\n")
    override = tmp_path / "override"
    assert main(["verify", "--config", str(config_path),
                 "--out", str(override), "--quiet"]) == 0
    assert (override / "summary.json").exists()
    assert not (tmp_path / "from-config").exists()


def test_main_quiet_suppresses_progress(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(TORUS_VERIFY)
    assert main(["verify", "--config", str(config_path),
                 "--out", str(tmp_path / "q"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_main_rejects_spectrum_k_beyond_the_mesh(tmp_path, capsys):
    # The icosahedron has 12 vertices; Lanczos needs spectrum_k + 2 <= V.
    text = (TORUS_VERIFY.replace("kind = flat_torus\nn = 8\nm = 8",
                                 "kind = icosphere\nsubdivisions = 0")
            .replace("t_end = 0.01", "t_end = 4e-3"))
    for k, code in ((11, 3), (10, 0)):
        config_path = tmp_path / f"k{k}.cfg"
        config_path.write_text(text.replace("spectrum_k = 6",
                                            f"spectrum_k = {k}"))
        out_dir = tmp_path / f"k{k}"
        assert main(["verify", "--config", str(config_path),
                     "--out", str(out_dir), "--quiet"]) == code
        assert out_dir.exists() == (code == 0)
    assert "config error: spectrum_k = 11 needs at least 13 vertices" in \
        capsys.readouterr().err


def test_main_rejects_overflowing_geometry(tmp_path, capsys):
    config_path = tmp_path / "huge.cfg"
    config_path.write_text(TORUS_VERIFY.replace("m = 8", "m = 8\nl1 = 1e300"))
    out_dir = tmp_path / "huge"
    assert main(["verify", "--config", str(config_path),
                 "--out", str(out_dir), "--quiet"]) == 3
    assert not out_dir.exists()
    assert "config error: face areas are not finite" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude", [800, 705])
def test_main_rejects_an_amplitude_that_gives_no_metric(amplitude, tmp_path,
                                                        capsys):
    # 800: the bump's area overflows; 705: the area shift puts u near
    # -1189, where the vertex areas underflow to zero.
    config_path = tmp_path / "spike.cfg"
    config_path.write_text(SPHERE_VERIFY.replace(
        "amplitude = 0.1", f"amplitude = {amplitude}"))
    out_dir = tmp_path / "spike"
    assert main(["verify", "--config", str(config_path),
                 "--out", str(out_dir), "--quiet"]) == 3
    assert not out_dir.exists()
    assert (f"config error: [perturbation] amplitude = {amplitude}.0: "
            in capsys.readouterr().err)


@pytest.mark.parametrize("out", ["taken", "taken/run"])
def test_main_rejects_output_path_on_a_file(out, tmp_path, capsys):
    config_path = tmp_path / "torus.cfg"
    config_path.write_text(TORUS_VERIFY)
    (tmp_path / "taken").write_text("not a directory")
    assert main(["verify", "--config", str(config_path),
                 "--out", str(tmp_path / out), "--quiet"]) == 3
    assert "config error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken",
                                                         "torus.cfg"]
    assert (tmp_path / "taken").read_text() == "not a directory"


@pytest.mark.parametrize("header, reason", [
    ("1 20000000000000 0", "truncated file: the OFF header's"),
    ("-1 2 0", "OFF header has negative counts"),
])
def test_main_rejects_off_header_counts(header, reason, tmp_path, capsys):
    off_path = tmp_path / "bad.off"
    off_path.write_text(f"OFF\n{header}\n0 0 0\n")
    config_path = tmp_path / "off.cfg"
    config_path.write_text(TORUS_VERIFY.replace(
        "kind = flat_torus\nn = 8\nm = 8",
        f"kind = off_file\npath = {off_path}"))
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", str(config_path),
                 "--out", str(out_dir), "--quiet"]) == 3
    assert not out_dir.exists()
    assert reason in capsys.readouterr().err


def test_main_rejects_non_utf8_config(tmp_path, capsys):
    config_path = tmp_path / "utf16.cfg"
    config_path.write_bytes(b"\xff\xfe" + TORUS_VERIFY.encode("utf-16-le"))
    assert main(["verify", "--config", str(config_path), "--quiet"]) == 3
    assert "config error" in capsys.readouterr().err


def test_main_missing_config_file(tmp_path, capsys):
    code = main(["flow", "--config", str(tmp_path / "nope.cfg")])
    assert code == 3
    assert "config error" in capsys.readouterr().err


def test_main_reports_parse_errors(tmp_path, capsys):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text("[geometry]\nkind = icosphere\ncolour = red\n")
    assert main(["flow", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "config error" in err and "line 3" in err


def test_main_requires_a_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("args, code, message", [
    ([], 2, "usage:"),
    (["verify", "--config", "nope.cfg"], 3, "config error"),
])
def test_python_m_ricciflow_exits_with_main_code(tmp_path, args, code,
                                                 message):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "ricciflow", *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == code
    assert message in done.stderr
