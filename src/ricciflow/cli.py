"""Experiment runner: build geometry, run the flow, emit CSV/JSON.

Every experiment writes ``trajectory.csv``, ``variation.csv`` and
``summary.json`` into the output directory.  Exit codes: 0 on success,
2 on eigensolver failure, in the flow's Laplace solves or in the
summary's Perelman solves (partial outputs are still flushed, and the
solver's message and best residual go to stderr and to the summary's
``failure`` block), 3 on configuration errors.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import variation
from .config import EXPERIMENTS, ConfigError, parse_config
from .flow import ConformalState, run
from .mesh import (
    build_flat_torus,
    build_icosphere,
    integrate,
    load_off,
    total_area,
)
from .spectral import EigenSolverError

MONOTONE_SLACK = 1e-8
PERELMAN_SLACK = 1e-6

_BUMP_BASES = {
    1: lambda x, y, z: (x, y, z),
    2: lambda x, y, z: (x * y, y * z, z * x, x * x - y * y,
                        2 * z * z - x * x - y * y),
    3: lambda x, y, z: (x * y * z,
                        x * (x * x - 3 * y * y),
                        y * (3 * x * x - y * y),
                        z * (2 * z * z - 3 * x * x - 3 * y * y),
                        z * (x * x - y * y)),
}


def build_geometry(spec):
    if spec.kind == "icosphere":
        return build_icosphere(spec.subdivisions, spec.radius)
    if spec.kind == "flat_torus":
        return build_flat_torus(spec.n, spec.m, spec.l1, spec.l2)
    if spec.kind == "off_file":
        return load_off(spec.path)
    raise ConfigError(f"unknown geometry kind {spec.kind!r}")


def conformal_bump(mesh, perturbation):
    """Seeded mixture of low-degree vertex-coordinate polynomials.

    The polynomials are harmonic in the ambient coordinates, centered
    and rescaled so the bump has unit sup norm before the amplitude is
    applied.  They are not periodic in a flat torus's chart, so
    experiments refuse a bump there.
    """
    if perturbation.amplitude == 0.0:
        return np.zeros(mesh.n_vertices)
    centered = mesh.vertices - mesh.vertices.mean(axis=0)
    scale = np.abs(centered).max()
    if scale > 0:
        centered = centered / scale
    x, y, z = centered.T
    basis = np.column_stack(_BUMP_BASES[perturbation.mode](x, y, z))
    rng = np.random.default_rng(perturbation.seed)
    coefficients = rng.standard_normal(basis.shape[1])
    bump = basis @ coefficients
    peak = np.abs(bump).max()
    if peak < 1e-12:
        return np.zeros(mesh.n_vertices)
    return perturbation.amplitude * bump / peak


def initial_log_factor(mesh, perturbation, target_area=None):
    """Initial u: conformal bump plus a constant shift fixing the area.

    With no target the shift restores the base metric's area, so
    perturbed and unperturbed runs of one geometry live at the same
    scale; the conjecture experiment passes ``target_area=1.0``.
    """
    u = conformal_bump(mesh, perturbation)
    if target_area is None:
        target_area = total_area(mesh, np.zeros(mesh.n_vertices))
    u += math.log(target_area / total_area(mesh, u))
    return u


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_trajectory_csv(path, traj, spectrum_k):
    columns = ["t", "area", "r_avg", "R_min", "R_max"]
    columns += [f"lambda_{i}" for i in range(1, spectrum_k + 1)]
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for snap in traj.snapshots:
            row = [snap.t, snap.area, snap.r_avg, snap.R_min, snap.R_max]
            row += snap.eigenvalues[1:spectrum_k + 1].tolist()
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def write_variation_csv(path, rows):
    columns = ["t", "index", "is_cluster", "lambda", "fd_rate", "rhs_rate",
               "rel_error", "integ_res_1", "integ_res_2", "tracking_ok"]
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            cells = [row.t, row.index, row.is_cluster, row.lam, row.fd_rate,
                     row.rhs_rate, row.rel_error, row.integ_res_1,
                     row.integ_res_2, row.tracking_ok]
            handle.write(",".join(_fmt(v) for v in cells) + "\n")


def write_summary_json(path, summary):
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, allow_nan=True)
        handle.write("\n")


def report_window(traj, rows):
    """Append the variation rows of ``traj``'s last three snapshots to ``rows``.

    Called after every recorded snapshot, this reports each interior time
    once, from the same three snapshots and in the same order as
    ``variation.variation_report`` on the whole run.  The window's oldest
    snapshot then drops its eigenvectors: no later window, and no
    tracking step, reads them.
    """
    if len(traj.snapshots) < 3:
        return
    window = traj.snapshots[-3:]
    rows.extend(variation.variation_report(window, traj.mode))
    window[0].eigenvectors = None


def _nondecreasing(series, slack):
    series = np.asarray(series)
    if len(series) < 2:
        return True
    return bool(np.all(np.diff(series) >= -slack))


def _min_positive_eigenvalue(snapshot):
    return float(snapshot.eigenvalues[1:].min())


def _base_summary(config, traj):
    mesh = traj.mesh
    chi = mesh.euler_characteristic
    summary = {
        "experiment": config.experiment,
        "mode": traj.mode,
        "stopping_reason": traj.stopping_reason,
        "blowup_time_estimate": traj.blowup_time_estimate,
        "n_snapshots": len(traj.snapshots),
        "euler_characteristic": chi,
    }
    if traj.stopping_reason == "solver_failure":
        summary["failure"] = traj.failure
    if not traj.snapshots:
        return summary

    first = traj.snapshots[0]
    last = traj.snapshots[-1]
    summary["t_final"] = last.t
    summary["area_initial"] = first.area
    summary["area_final"] = last.area

    gb_target = 4.0 * math.pi * chi
    summary["gauss_bonnet_max_abs_error"] = max(
        abs(integrate(snap.mass_diag, snap.R) - gb_target)
        for snap in traj.snapshots)

    if traj.mode == "unnormalized":
        law_errors = [
            abs(snap.area - (first.area - gb_target * (snap.t - first.t)))
            for snap in traj.snapshots
        ]
        summary["area_law_max_rel_error"] = max(law_errors) / first.area
    else:
        drift = max(abs(snap.area - first.area) for snap in traj.snapshots)
        summary["area_drift_rel"] = drift / first.area

    k = config.flow.spectrum_k
    branch_monotone = {
        f"lambda_{i}": _nondecreasing(traj.eigenvalue_series(i),
                                      MONOTONE_SLACK)
        for i in range(1, k + 1)
    }
    summary["monotonicity"] = {
        "per_branch_nondecreasing": branch_monotone,
        "all_branches_nondecreasing": all(branch_monotone.values()),
        "slack": MONOTONE_SLACK,
    }

    lambda1_area = [
        _min_positive_eigenvalue(snap) * snap.area for snap in traj.snapshots
    ]
    summary["lambda1_area_final"] = lambda1_area[-1]
    summary["lambda1_area_nondecreasing"] = _nondecreasing(
        lambda1_area, MONOTONE_SLACK)
    if config.experiment == "conjecture":
        summary["conjecture"] = _conjecture_summary(
            traj, lambda1_area, summary["lambda1_area_nondecreasing"])

    perelman_seq = []
    for snap in traj.snapshots:
        try:
            perelman_seq.append(variation.perelman_lambda(
                snap, config.flow.solver_tol))
        except EigenSolverError as exc:
            summary.setdefault("failure", {
                "t": snap.t, "message": str(exc),
                "best_residual": exc.best_residual})
            break
    summary["perelman"] = {
        "sequence": perelman_seq,
        "nondecreasing": _nondecreasing(perelman_seq, PERELMAN_SLACK),
        "slack": PERELMAN_SLACK,
    }

    summary["tracking_warning_count"] = sum(
        len(snap.tracking_warnings) for snap in traj.snapshots)
    return summary


def _variation_summary(rows):
    simple = [r.rel_error for r in rows if not r.is_cluster and r.tracking_ok]
    clustered = [r.rel_error for r in rows if r.is_cluster]
    integ = [max(r.integ_res_1, r.integ_res_2) for r in rows
             if not math.isnan(r.integ_res_1)]
    return {
        "n_rows": len(rows),
        "n_simple_rows": len(simple),
        "median_rel_error_simple": float(np.median(simple)) if simple else None,
        "max_rel_error_simple": max(simple) if simple else None,
        "median_rel_error_cluster": (float(np.median(clustered))
                                     if clustered else None),
        "max_integrability_residual": max(integ) if integ else None,
    }


def _soliton_summary(config, traj):
    # Pure rescaling law: sigma(t) = 1 + 2 eps t with eps = -1/radius^2
    # on a surface sphere; lambda_1(t) * sigma(t) should hold at lambda_1(0).
    radius = config.geometry.radius
    eps = -1.0 / radius**2
    lam0 = _min_positive_eigenvalue(traj.snapshots[0])
    deviations = []
    for snap in traj.snapshots:
        sigma = 1.0 + 2.0 * eps * snap.t
        if sigma <= 0:
            break
        deviations.append(
            abs(_min_positive_eigenvalue(snap) * sigma / lam0 - 1.0))
    return {
        "epsilon": eps,
        "lambda1_initial": lam0,
        "max_rescaled_lambda1_deviation": max(deviations),
    }


def _conjecture_summary(traj, lambda1_area, nondecreasing):
    target = 8.0 * math.pi
    return {
        "lambda1_area_series": lambda1_area,
        "lambda1_area_nondecreasing": nondecreasing,
        "final_lambda1_area": lambda1_area[-1],
        "target_8pi": target,
        "final_rel_deviation_from_8pi": abs(lambda1_area[-1] - target) / target,
        "final_curvature_spread": traj.snapshots[-1].R_max
        - traj.snapshots[-1].R_min,
    }


def _validate_experiment(config, mesh):
    experiment = config.experiment
    mode = config.flow.mode
    k = config.flow.spectrum_k
    if k + 2 > mesh.n_vertices:
        raise ConfigError(f"spectrum_k = {k} needs at least {k + 2} "
                          f"vertices; the mesh has {mesh.n_vertices}")
    if (config.geometry.kind == "flat_torus"
            and config.perturbation.amplitude > 0):
        raise ConfigError("[perturbation] amplitude must be 0 on a flat "
                          "torus: the bump is a polynomial of the chart "
                          "coordinates, so it jumps across the seams")
    if experiment == "soliton":
        if config.geometry.kind != "icosphere":
            raise ConfigError("the soliton experiment needs an icosphere "
                              "geometry (exact rescaling law)")
        if mode != "unnormalized":
            raise ConfigError("the soliton experiment runs the "
                              "unnormalized flow")
    if experiment == "conjecture":
        if mode != "normalized":
            raise ConfigError("the conjecture experiment runs the "
                              "normalized flow")
        if mesh.euler_characteristic != 2:
            raise ConfigError("the conjecture experiment needs sphere "
                              "topology (chi = 2)")
    if experiment == "perelman" and mode != "unnormalized":
        raise ConfigError("the perelman experiment tracks the unnormalized "
                          "flow functional")


def run_experiment(config, quiet=False):
    """Run one experiment end to end; returns the process exit code."""

    def say(message):
        if not quiet:
            print(message)

    try:
        if config.output_dir is None:
            raise ConfigError("no output directory (config [output] or --out)")
        mesh = build_geometry(config.geometry)
        _validate_experiment(config, mesh)
        target_area = 1.0 if config.experiment == "conjecture" else None
        u0 = initial_log_factor(mesh, config.perturbation, target_area)
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    say(f"{config.experiment}: {mesh!r}, mode={config.flow.mode}, "
        f"t_end={config.flow.t_end}")
    rows = []
    traj = run(ConformalState(mesh, u0), config.flow,
               on_record=lambda traj: report_window(traj, rows))
    say(f"stopped: {traj.stopping_reason} after "
        f"{len(traj.snapshots)} snapshots")

    summary = _base_summary(config, traj)
    if traj.snapshots:
        summary["variation"] = _variation_summary(rows)
        if config.experiment == "soliton":
            summary["soliton"] = _soliton_summary(config, traj)

    write_trajectory_csv(out_dir / "trajectory.csv", traj,
                         config.flow.spectrum_k)
    write_variation_csv(out_dir / "variation.csv", rows)
    write_summary_json(out_dir / "summary.json", summary)
    say(f"wrote {out_dir}/trajectory.csv, variation.csv, summary.json")

    if "failure" in summary:
        print("eigensolver failure at t={t:.6g}: {message} (best residual "
              "{best_residual}); partial outputs written"
              .format(**summary["failure"]), file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ricciflow",
        description="Ricci flow spectrum experiments on triangle meshes",
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", required=True,
                         help="path to the experiment configuration file")
        sub.add_argument("--out", default=None,
                         help="output directory (overrides [output])")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    config.experiment = args.experiment
    if args.out is not None:
        config.output_dir = args.out
    return run_experiment(config, quiet=args.quiet)


if __name__ == "__main__":
    raise SystemExit(main())
