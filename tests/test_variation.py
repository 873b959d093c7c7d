import ast
import copy
import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_equal

from ricciflow import flow, variation
from ricciflow.cli import initial_log_factor, report_window
from ricciflow.config import PerturbationSpec
from ricciflow.flow import (
    ConformalState,
    FlowConfig,
    SpectrumSnapshot,
    run,
)
from ricciflow.mesh import (
    build_flat_torus,
    build_icosphere,
    integrate,
    scalar_curvature,
)
from ricciflow.modelspaces import homogeneous_rate, round_sphere
from ricciflow.spectral import (
    TRACKING_OVERLAP_FLOOR,
    EigenSolverError,
    solve_spectrum,
)
from ricciflow.variation import (
    ClusterGaugeError,
    _aligned_derivative,
    finite_difference_rate,
    integrability_residuals,
    perelman_lambda,
    rate_bound_check,
    relative_error,
    scalar_curvature_evolution_residual,
    surface_rate,
    variation_report,
)


def make_snapshot(mesh, u=None, k=6):
    """Snapshot of the metric e^u g0 with its spectrum 0..k."""
    state = ConformalState(mesh, np.zeros(mesh.n_vertices) if u is None else u)
    values, vectors = solve_spectrum(mesh.stiffness, state.mass_diag, k)
    return SpectrumSnapshot(state, values, vectors)


@pytest.fixture(scope="module")
def sphere_snapshot():
    return make_snapshot(build_icosphere(3, 1.0))


@pytest.fixture(scope="module")
def torus_snapshot():
    return make_snapshot(build_flat_torus(16, 16, 1.0, 1.0))


@pytest.fixture(scope="module")
def steady_torus_traj():
    mesh = build_flat_torus(16, 16, 1.0, 1.0)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=0.01,
                     record_every=2, spectrum_k=6)
    return run(ConformalState(mesh, np.zeros(mesh.n_vertices)), cfg)


@pytest.fixture(scope="module")
def round_sphere_traj():
    # spectrum_k = 8 records the whole five-fold shell 4..8.
    mesh = build_icosphere(2, 1.0)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=6e-3,
                     record_every=1, spectrum_k=8)
    return run(ConformalState(mesh, np.zeros(mesh.n_vertices)), cfg)


def bumpy_sphere_run(t_end=6e-3):
    mesh = build_icosphere(2, 1.0)
    u0 = initial_log_factor(mesh, PerturbationSpec(amplitude=0.1, mode=2, seed=7))
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=t_end,
                     record_every=1, spectrum_k=6)
    return run(ConformalState(mesh, u0), cfg)


@pytest.fixture(scope="module")
def bumpy_sphere_traj():
    return bumpy_sphere_run()


@pytest.fixture(scope="module")
def ragged_end_traj():
    # The final partial step records at 5.5e-3, half a spacing on.
    return bumpy_sphere_run(t_end=5.5e-3)


@pytest.fixture(scope="module")
def partial_failure_traj():
    # The fifth Laplace solve fails: four snapshots, then the stop.
    calls = []

    def failing_fifth(*args):
        calls.append(args)
        if len(calls) == 5:
            raise EigenSolverError("injected failure", best_residual=1.0)
        return solve_spectrum(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow, "solve_spectrum", failing_fifth)
        traj = bumpy_sphere_run()
    assert traj.stopping_reason == "solver_failure"
    return traj


# ---------------------------------------------------------------------------
# closed-form rates


def test_round_sphere_rate_is_twice_lambda1(sphere_snapshot):
    # On the unit round sphere lambda_1 = 2 and R = 2, so the rate
    # lambda * int f^2 R dmu evaluates to 4.
    snap = sphere_snapshot
    mesh = snap.mesh
    assert abs(snap.eigenvalues[1] - 2.0) < 0.02
    curvature = scalar_curvature(mesh, snap.u)
    f2r = integrate(snap.mass_diag, snap.eigenvectors[:, 1]**2 * curvature)
    assert abs(f2r - 2.0) < 0.04
    assert abs(surface_rate(snap, 1, "unnormalized") - 4.0) < 0.08


def test_round_sphere_normalized_rate_vanishes(sphere_snapshot):
    # The normalized flow fixes the round sphere, so every eigenvalue
    # branch is stationary: -r*lambda cancels the surface integral.
    snap = sphere_snapshot
    for index in (1, 2, 3):
        assert abs(surface_rate(snap, index, "normalized")) < 1e-3


def test_flat_torus_rates_vanish(torus_snapshot):
    snap = torus_snapshot
    for index in (1, 2):
        for mode in flow.MODES:
            assert abs(surface_rate(snap, index, mode)) < 1e-9


def test_rate_inputs_are_validated(sphere_snapshot):
    snap = sphere_snapshot
    scaled = SpectrumSnapshot(snap, snap.eigenvalues, 1.01 * snap.eigenvectors)
    for mode in flow.MODES:
        with pytest.raises(ValueError, match="nonconstant"):
            surface_rate(snap, 0, mode)
        with pytest.raises(ValueError, match="M-norm"):
            surface_rate(scaled, 1, mode)


MODE_CHECKS = {
    "variation_report": variation_report,
    "empty variation_report": lambda snaps, mode: variation_report([], mode),
    "integrability_residuals":
        lambda snaps, mode: integrability_residuals(snaps[:3], mode, 1),
    "scalar_curvature_evolution_residual":
        lambda snaps, mode: scalar_curvature_evolution_residual(snaps[:3],
                                                                mode),
    "surface_rate": lambda snaps, mode: surface_rate(snaps[1], 1, mode),
}


@pytest.mark.parametrize("check", sorted(MODE_CHECKS))
def test_checks_refuse_an_unknown_mode(check, bumpy_sphere_traj):
    # A misspelt mode must read as neither flow: taken as the
    # unnormalized one, it compares a normalized run with the wrong rate.
    snapshots = bumpy_sphere_traj.snapshots
    for mode in flow.MODES:
        MODE_CHECKS[check](snapshots, mode)
    with pytest.raises(ValueError, match="'normalised'"):
        MODE_CHECKS[check](snapshots, "normalised")


# ---------------------------------------------------------------------------
# finite differences


def fake_lambda_snapshots(times, lam_rows):
    mesh = build_flat_torus(3, 3, 1.0, 1.0)
    zeros = np.zeros(mesh.n_vertices)
    return [SpectrumSnapshot(ConformalState(mesh, zeros, t),
                             np.array(lams, dtype=float), None)
            for t, lams in zip(times, lam_rows)]


def test_finite_difference_rate_exact_on_linear_branches():
    times = [0.0, 0.1, 0.2]
    lam_rows = [[0.0, 2.0 + 3.0 * t, 5.0 - 1.0 * t, 7.0 + 2.0 * t]
                for t in times]
    window = fake_lambda_snapshots(times, lam_rows)
    assert_allclose(finite_difference_rate(window, 1), 3.0, atol=1e-12)
    assert_allclose(finite_difference_rate(window, (2,)), -1.0, atol=1e-12)
    # cluster rate = derivative of the member mean
    assert_allclose(finite_difference_rate(window, (2, 3)), 0.5, atol=1e-12)


def test_finite_difference_rate_validation():
    times = [0.0, 0.1, 0.2, 0.3]
    snapshots = fake_lambda_snapshots(times, [[0.0, 1.0]] * 4)
    # A window at either end of a run lacks a neighbor.
    with pytest.raises(ValueError, match="2 snapshots, not three"):
        finite_difference_rate(snapshots[:2], 1)
    with pytest.raises(ValueError, match="4 snapshots, not three"):
        finite_difference_rate(snapshots, 1)
    with pytest.raises(ValueError, match=">= 1"):
        finite_difference_rate(snapshots[:3], 0)
    with pytest.raises(ValueError, match=">= 1"):
        finite_difference_rate(snapshots[:3], ())


# ---------------------------------------------------------------------------
# integrability identities


def test_steady_torus_integrability_residuals(steady_torus_traj):
    # At the flat fixed point the identities hold to roundoff once the
    # degenerate eigenbasis is gauge-aligned.
    for eigen_index in (1, 2, 3, 4):
        res1, res2 = integrability_residuals(
            steady_torus_traj.snapshots[1:4], steady_torus_traj.mode,
            eigen_index, allow_cluster=True)
        assert res1 < 1e-10
        assert res2 < 1e-10


def test_cluster_residuals_refused_without_opt_in(steady_torus_traj,
                                                  round_sphere_traj):
    with pytest.raises(ClusterGaugeError, match="cluster"):
        integrability_residuals(steady_torus_traj.snapshots[1:4],
                                steady_torus_traj.mode, 1)
    with pytest.raises(ClusterGaugeError, match="cluster"):
        integrability_residuals(round_sphere_traj.snapshots[2:5],
                                round_sphere_traj.mode, 1)


def test_shrinking_sphere_cluster_residuals(round_sphere_traj):
    res1, res2 = integrability_residuals(round_sphere_traj.snapshots[2:5],
                                         round_sphere_traj.mode, 1,
                                         allow_cluster=True)
    assert res1 < 1e-10   # int f' dmu stays zero to roundoff
    assert res2 < 1e-4    # finite-difference truncation at h = 1e-3


def test_integrability_input_validation(round_sphere_traj):
    snapshots, mode = round_sphere_traj.snapshots, round_sphere_traj.mode
    with pytest.raises(ValueError, match="2 snapshots, not three"):
        integrability_residuals(snapshots[:2], mode, 1)
    with pytest.raises(ValueError, match="4 snapshots, not three"):
        integrability_residuals(snapshots[:4], mode, 1)
    with pytest.raises(ValueError, match="nonconstant"):
        integrability_residuals(snapshots[2:5], mode, 0)


# ---------------------------------------------------------------------------
# curvature-shifted pencil


def test_perelman_lambda_on_model_surfaces(sphere_snapshot, torus_snapshot):
    # -4*Delta + R has bottom eigenvalue min(R) = 2 on the unit round
    # sphere (constant eigenfunction) and 0 on the flat torus.
    assert abs(perelman_lambda(sphere_snapshot) - 2.0) < 0.04
    assert abs(perelman_lambda(torus_snapshot)) < 1e-8


# ---------------------------------------------------------------------------
# rate bound


def test_rate_bound_saturated_by_model_spheres():
    for dim, radius in ((2, 1.0), (2, 2.0), (3, 1.0), (3, 0.5)):
        space = round_sphere(dim, radius)
        lam1 = float(dim) / radius**2
        rate = homogeneous_rate(space, 1)
        bound = 2.0 * (dim - 1) / dim * lam1**2
        assert abs(rate - bound) < 1e-12 * max(1.0, bound)
        assert rate_bound_check(rate, lam1, dim)


def test_rate_bound_check_rejects_violations():
    assert rate_bound_check(4.0, 2.0, 2)
    assert not rate_bound_check(4.0 + 1e-6, 2.0, 2)
    with pytest.raises(ValueError, match="dimension"):
        rate_bound_check(1.0, 1.0, 1)


# ---------------------------------------------------------------------------
# report


def test_report_on_bumpy_sphere_matches_rates(bumpy_sphere_traj):
    rows = variation_report(bumpy_sphere_traj.snapshots,
                            bumpy_sphere_traj.mode)
    assert len(rows) == 30  # 5 interior times x 6 fully split branches
    assert all(not row.is_cluster for row in rows)
    assert all(row.tracking_ok for row in rows)
    rels = sorted(row.rel_error for row in rows)
    assert rels[len(rels) // 2] < 1e-4
    assert rels[-1] < 1e-3
    assert max(max(row.integ_res_1, row.integ_res_2) for row in rows) < 1e-4


def test_report_on_round_sphere_clusters(round_sphere_traj):
    rows = variation_report(round_sphere_traj.snapshots,
                            round_sphere_traj.mode)
    assert len(rows) == 10  # 5 interior times x 2 complete shells
    assert {row.members for row in rows} == {(1, 2, 3), (4, 5, 6, 7, 8)}
    for row in rows:
        assert row.is_cluster
        assert math.isnan(row.integ_res_1) and math.isnan(row.integ_res_2)
        # A complete icosahedral shell spans a stable eigenspace.
        assert row.tracking_ok
        assert row.rel_error < 1e-4


def test_simple_rows_track_as_the_recorded_overlaps(bumpy_sphere_traj):
    # A simple row's eigenspace overlap is the |<f_prev, M f>| that
    # ``track`` recorded for its branch, so the flags agree.
    snapshots = bumpy_sphere_traj.snapshots
    rows = variation_report(snapshots, bumpy_sphere_traj.mode)
    position = {snap.t: i for i, snap in enumerate(snapshots)}
    for row in rows:
        assert not row.is_cluster
        window = snapshots[position[row.t] - 1:position[row.t] + 2]
        recorded = min(snap.overlaps[row.index] for snap in window[1:])
        _, cosine = _aligned_derivative(window, 1.0, row.members)
        assert_allclose(cosine, recorded, rtol=1e-12)
        assert row.tracking_ok == (recorded >= TRACKING_OVERLAP_FLOOR)


def test_swapped_branch_column_loses_tracking(bumpy_sphere_traj):
    # Branch 1's column at the window's last snapshot is replaced by
    # branch 6's, which is M-orthogonal to it.  The overlaps recorded
    # at solve time still pass; the report reads the blocks it is given.
    window = [copy.copy(snap) for snap in bumpy_sphere_traj.snapshots[:3]]
    swapped = window[2].eigenvectors.copy()
    swapped[:, 1] = swapped[:, 6]
    window[2].eigenvectors = swapped
    assert window[2].overlaps[1] >= TRACKING_OVERLAP_FLOOR

    rows = variation_report(window, bumpy_sphere_traj.mode)
    assert [row.index for row in rows] == [1, 2, 3, 4, 5, 6]
    assert rows[0].tracking_ok is False
    assert math.isnan(rows[0].integ_res_1) and math.isnan(rows[0].integ_res_2)
    assert all(row.tracking_ok for row in rows[1:])


def test_crossed_branches_stay_simple_rows(bumpy_sphere_traj):
    # Branches 2 and 5 trade labels throughout the window, as tracking
    # labels them after a crossing: the tracked eigenvalues leave sorted
    # order, yet each branch is still a simple row with integrability
    # residuals, the row it gives under its sorted label.
    window = bumpy_sphere_traj.snapshots[:3]
    labels = [0, 1, 5, 3, 4, 2, 6]
    crossed = [copy.copy(snap) for snap in window]
    for snap in crossed:
        snap.eigenvalues = snap.eigenvalues[labels]
        snap.eigenvectors = snap.eigenvectors[:, labels]
        snap.overlaps = snap.overlaps[labels]
    values = crossed[1].eigenvalues
    assert values[2] > 2.0 * values[3] and values[4] > 2.0 * values[5]

    rows = variation_report(crossed, bumpy_sphere_traj.mode)
    plain = variation_report(window, bumpy_sphere_traj.mode)
    assert [row.index for row in rows] == [1, 2, 3, 4, 5, 6]
    assert not any(row.is_cluster for row in rows)
    assert all(np.isfinite([row.integ_res_1, row.integ_res_2]).all()
               for row in rows)

    def fields(row):
        return {name: value for name, value in dataclasses.asdict(row).items()
                if name not in ("index", "members")}

    assert_equal([fields(row) for row in rows],
                 [fields(plain[labels[row.index] - 1]) for row in rows])


def test_report_skips_nonuniform_spacing(round_sphere_traj):
    skewed = [round_sphere_traj.snapshots[i] for i in (0, 2, 3)]
    assert variation_report(skewed, round_sphere_traj.mode) == []


def window_fed_report(traj):
    """Rows of a ``report_window`` callback fed ``traj``'s snapshots."""
    rows = []
    on_record = report_window(traj.mode, rows)
    for snap in traj.snapshots:
        on_record(snap)
    return rows


@pytest.mark.parametrize("fixture, n_snapshots, n_rows", [
    ("bumpy_sphere_traj", 7, 30),     # 5 interior times x 6 simple branches
    ("round_sphere_traj", 7, 10),     # 5 interior times x 2 shells
    ("steady_torus_traj", 6, 8),      # 4 interior times x 2 clusters
    ("ragged_end_traj", 7, 24),       # the last, uneven window is skipped
    ("partial_failure_traj", 4, 12),  # 2 interior times before the stop
])
def test_window_fed_rows_equal_whole_report(fixture, n_snapshots, n_rows,
                                            request):
    traj = request.getfixturevalue(fixture)
    assert len(traj.snapshots) == n_snapshots
    whole = variation_report(traj.snapshots, traj.mode)
    assert len(whole) == n_rows
    # Field for field, NaN equal to NaN.
    assert_equal([dataclasses.asdict(row) for row in window_fed_report(traj)],
                 [dataclasses.asdict(row) for row in whole])


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert_allclose(relative_error(1e-15, 0.0), 1e-3)
    assert_allclose(relative_error(3.0, 2.0), 1.0 / 3.0)


def test_variation_owns_the_central_window():
    # Central differencing is a variation concern: the flow driver
    # neither defines the window nor is imported by the checks.
    def tree(module):
        with open(module.__file__, encoding="utf-8") as handle:
            return ast.parse(handle.read())

    imported = set()
    for node in ast.walk(tree(variation)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module or ''}.{alias.name}"
                            for alias in node.names)
    assert not any("flow" in name.split(".") for name in imported)
    defined = {node.name for node in ast.walk(tree(flow))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "central_window" not in defined
    assert "scalar_curvature_evolution_residual" not in defined
