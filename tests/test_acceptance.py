"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is self-describing under ``pytest -v``: one pass/fail line per
criterion.  Flow runs are shared module-scoped fixtures; step sizes sit
inside the RK4 stability region measured for each mesh resolution.
"""

import math
import time

import numpy as np
import pytest

from ricciflow.cli import initial_log_factor
from ricciflow.config import PerturbationSpec
from ricciflow.flow import (
    ConformalState,
    FlowConfig,
    run,
)
from ricciflow.mesh import (
    assemble_mass,
    build_flat_torus,
    build_icosphere,
    integrate,
    scalar_curvature,
    total_area,
)
from ricciflow.modelspaces import (
    exact_spectrum,
    flat_torus,
    homogeneous_rate,
    pinching_lower_bound,
    round_sphere,
    soliton_rate,
)
from ricciflow.spectral import solve_spectrum
from ricciflow.variation import (
    integrability_residuals,
    perelman_lambda,
    rate_bound_check,
    scalar_curvature_evolution_residual,
    surface_rate,
    variation_report,
)

BUMP_SMALL = PerturbationSpec(amplitude=0.1, mode=2, seed=7)
BUMP_LARGE = PerturbationSpec(amplitude=0.5, mode=2, seed=7)


def flow_run(mesh, u0, **kwargs):
    traj = run(ConformalState(mesh, u0), FlowConfig(**kwargs))
    # Every fixture pencil is well posed, so a solver failure is a bug in
    # the solver, not a shortened run for the criteria to work around.
    assert traj.stopping_reason != "solver_failure", \
        f"eigensolver failed after {len(traj.snapshots)} snapshots"
    return traj


@pytest.fixture(scope="module")
def sphere4():
    return build_icosphere(4, 1.0)


@pytest.fixture(scope="module")
def run_round_sphere(sphere4):
    # Unnormalized shrinking round sphere, t in [0, 0.3], h = 0.01.
    return flow_run(sphere4, np.zeros(sphere4.n_vertices),
                    mode="unnormalized", dt_init=5e-4, t_end=0.3,
                    record_every=20, spectrum_k=6)


@pytest.fixture(scope="module")
def run_bumpy(sphere4):
    # Perturbed sphere, recording step h = 1e-3.
    u0 = initial_log_factor(sphere4, BUMP_SMALL)
    return flow_run(sphere4, u0, mode="unnormalized", dt_init=1e-3,
                    t_end=0.02, record_every=1, spectrum_k=6)


@pytest.fixture(scope="module")
def run_bumpy_half_h(sphere4):
    # Same run recorded at h = 5e-4.
    u0 = initial_log_factor(sphere4, BUMP_SMALL)
    return flow_run(sphere4, u0, mode="unnormalized", dt_init=5e-4,
                    t_end=0.02, record_every=1, spectrum_k=6)


@pytest.fixture(scope="module")
def run_bumpy_fine_mesh():
    # One subdivision finer, same recording step h = 1e-3.
    mesh = build_icosphere(5, 1.0)
    u0 = initial_log_factor(mesh, BUMP_SMALL)
    return flow_run(mesh, u0, mode="unnormalized", dt_init=2.5e-4,
                    t_end=0.02, record_every=4, spectrum_k=6)


@pytest.fixture(scope="module")
def run_normalized_unit_area(sphere4):
    u0 = initial_log_factor(sphere4, BUMP_SMALL, target_area=1.0)
    return flow_run(sphere4, u0, mode="normalized", dt_init=1e-4,
                    t_end=0.01, record_every=10, spectrum_k=6)


@pytest.fixture(scope="module")
def run_sign_indefinite(sphere4):
    u0 = initial_log_factor(sphere4, BUMP_LARGE)
    return flow_run(sphere4, u0, mode="unnormalized", dt_init=5e-4,
                    t_end=0.1, record_every=20, spectrum_k=6)


@pytest.fixture(scope="module")
def run_flat_torus():
    mesh = build_flat_torus(16, 16, 1.0, 1.0)
    return flow_run(mesh, np.zeros(mesh.n_vertices),
                    mode="unnormalized", dt_init=1e-3, t_end=0.01,
                    record_every=2, spectrum_k=6)


@pytest.fixture(scope="module")
def run_steady_sphere():
    # Normalized flow driven to its discrete steady state, then recorded
    # with h = 1e-3 around that state.
    mesh = build_icosphere(3, 1.0)
    warmup = flow_run(mesh, np.zeros(mesh.n_vertices),
                      mode="normalized", dt_init=2e-3, t_end=4.0,
                      record_every=10**6, spectrum_k=1)
    u_star = warmup.snapshots[-1].u
    return flow_run(mesh, u_star, mode="normalized", dt_init=1e-3,
                    t_end=2e-3, record_every=1, spectrum_k=6)


@pytest.fixture(scope="module")
def run_conjecture(sphere4):
    u0 = initial_log_factor(sphere4, BUMP_SMALL, target_area=1.0)
    return flow_run(sphere4, u0, mode="normalized", dt_init=1e-4,
                    t_end=0.5, record_every=50, spectrum_k=6,
                    stop_when_round=0.01)


def simple_rows(traj):
    return [row for row in variation_report(traj.snapshots, traj.mode)
            if not row.is_cluster and row.tracking_ok]


def median_rel_error(traj):
    return float(np.median([row.rel_error for row in simple_rows(traj)]))


# ---------------------------------------------------------------------------


def test_criterion_01_sphere_spectrum_accuracy(sphere4):
    started = time.perf_counter()
    values, _ = solve_spectrum(sphere4.stiffness, sphere4.base_vertex_area,
                               k=8)
    elapsed = time.perf_counter() - started
    lams = values[1:9]
    print(f"lambda_1..8 = {np.round(lams, 5)}, solve time {elapsed:.2f}s")
    for lam in lams[:3]:
        assert abs(lam - 2.0) <= 0.01 * 2.0
    for lam in lams[3:]:
        assert abs(lam - 6.0) <= 0.02 * 6.0
    assert elapsed < 30.0


def test_criterion_02_soliton_rescaling_law(run_round_sphere):
    # Convention cross-check: the closed-form soliton rate at t=0 equals
    # the homogeneous rate, 4 on the unit 2-sphere.
    space = round_sphere(2, 1.0)
    assert abs(soliton_rate(space, 0.0, 1) - 4.0) < 1e-12
    assert abs(homogeneous_rate(space, 1) - 4.0) < 1e-12

    lam1 = run_round_sphere.eigenvalue_series(1)
    times = run_round_sphere.times
    deviations = np.abs(lam1 * (1.0 - 2.0 * times) / lam1[0] - 1.0)
    print(f"max rescaled deviation {deviations.max():.3e}")
    assert run_round_sphere.stopping_reason == "t_end"
    assert deviations.max() <= 0.02


def test_criterion_03_variation_formula_accuracy(run_bumpy, run_bumpy_half_h,
                                                 run_bumpy_fine_mesh):
    med = median_rel_error(run_bumpy)
    med_half_h = median_rel_error(run_bumpy_half_h)
    med_fine = median_rel_error(run_bumpy_fine_mesh)
    print(f"median rel err: h=1e-3 {med:.3e}, h=5e-4 {med_half_h:.3e}, "
          f"finer mesh {med_fine:.3e}")
    assert med <= 0.05
    assert med_half_h < med
    assert med_fine < med


def test_criterion_04_normalized_formula_at_unit_area(run_normalized_unit_area):
    traj = run_normalized_unit_area
    area0 = traj.snapshots[0].area
    assert abs(area0 - 1.0) < 1e-12
    drift = max(abs(s.area - 1.0) for s in traj.snapshots)
    assert drift <= 1e-8

    # At unit area r = 8*pi exactly, so the normalized rate must equal
    # lambda * int f^2 R dmu - 8 pi lambda up to the area drift above.
    gaps = []
    for snap in traj.snapshots:
        curvature = scalar_curvature(traj.mesh, snap.u)
        mass_diag = assemble_mass(traj.mesh, snap.u).diagonal()
        for index in range(1, 7):
            lam = snap.eigenvalues[index]
            f2r = integrate(mass_diag, snap.eigenvectors[:, index]**2
                            * curvature)
            explicit = lam * f2r - 8.0 * math.pi * lam
            gaps.append(abs(surface_rate(snap, index, traj.mode) - explicit))
    med = median_rel_error(traj)
    print(f"identity gap max {max(gaps):.3e}, fd/rhs median rel err {med:.3e}")
    assert max(gaps) <= 1e-6
    assert med <= 0.05


def test_criterion_05_eigenvalues_nondecreasing_with_nonnegative_R(run_bumpy):
    mesh = run_bumpy.mesh
    r_initial = scalar_curvature(mesh, run_bumpy.snapshots[0].u)
    print(f"min R at t=0: {r_initial.min():.3f}")
    assert r_initial.min() >= 0.0
    for index in range(1, 7):
        series = run_bumpy.eigenvalue_series(index)
        assert np.diff(series).min() >= -1e-8


def test_criterion_06_perelman_functional_monotone(run_round_sphere,
                                                   run_bumpy,
                                                   run_bumpy_half_h,
                                                   run_bumpy_fine_mesh,
                                                   run_sign_indefinite,
                                                   run_flat_torus):
    r0 = scalar_curvature(run_sign_indefinite.mesh,
                          run_sign_indefinite.snapshots[0].u)
    assert r0.min() < 0.0  # amplitude 0.5 makes R change sign
    runs = {
        "round sphere": run_round_sphere,
        "perturbed sphere": run_bumpy,
        "perturbed sphere (half h)": run_bumpy_half_h,
        "perturbed sphere (finer mesh)": run_bumpy_fine_mesh,
        "sign-indefinite sphere": run_sign_indefinite,
        "flat torus": run_flat_torus,
    }
    for name, traj in runs.items():
        sequence = [perelman_lambda(snap) for snap in traj.snapshots]
        worst = float(np.diff(sequence).min()) if len(sequence) > 1 else 0.0
        print(f"{name}: first {sequence[0]:.6f} last {sequence[-1]:.6f} "
              f"min step {worst:.2e}")
        assert worst >= -1e-6, name


def test_criterion_07_conjecture_experiment(run_conjecture):
    traj = run_conjecture
    assert traj.stopping_reason == "converged_round"
    last = traj.snapshots[-1]
    assert last.R_max - last.R_min < 0.01

    series = [s.eigenvalues[1:].min() * s.area
              for s in traj.snapshots]
    target = 8.0 * math.pi
    print(f"lambda1*area: start {series[0]:.5f} final {series[-1]:.5f} "
          f"target {target:.5f}, stop at t={last.t:.4f}")
    assert np.diff(series).min() >= -1e-8
    assert abs(series[-1] - target) / target <= 0.05


def test_criterion_08_model_space_exactness():
    s2 = round_sphere(2, 1.0)
    assert abs(soliton_rate(s2, 0.0, 1) - 4.0) < 1e-12
    assert abs(homogeneous_rate(s2, 1) - 4.0) < 1e-12

    # Sharp rate bound saturated by the first branch on round spheres.
    for space, dim in ((s2, 2), (round_sphere(3, 1.0), 3)):
        lam1 = dim / space.radius**2
        bound = 2.0 * (dim - 1) / dim * lam1**2
        rate = homogeneous_rate(space, 1)
        assert abs(rate - bound) < 1e-12
        assert rate_bound_check(rate, lam1, dim, tol=1e-12)

    for radius in (0.5, 1.0, 2.0):
        _, bound, lam1 = pinching_lower_bound(round_sphere(3, radius))
        assert abs(bound - lam1) < 1e-12 * max(1.0, lam1)

    # Torus spectrum against an independent dual-lattice enumeration.
    lattice = np.array([[1.0, 0.4], [0.0, 0.7]])
    spec = exact_spectrum(flat_torus(lattice), 50)
    dual = np.linalg.inv(lattice).T
    span = np.arange(-40, 41)
    ks = np.array(np.meshgrid(span, span)).reshape(2, -1).T
    norms = np.sort(4.0 * math.pi**2 * np.sum((ks @ dual.T) ** 2, axis=1))
    i = 0
    for idx in range(50):
        j = i
        while j + 1 < len(norms) and \
                norms[j + 1] - norms[i] <= 1e-9 * max(norms[i], 1.0):
            j += 1
        assert abs(spec.eigenvalue(idx) - norms[i]) <= 1e-9 * max(norms[i], 1.0)
        assert spec.multiplicity(idx) == j - i + 1
        i = j + 1


def test_criterion_09_curvature_evolution_residual(run_round_sphere):
    traj = run_round_sphere
    mid = 16  # even index so the half-rate subsample shares this time
    residual = scalar_curvature_evolution_residual(
        traj.snapshots[mid - 1:mid + 2], traj.mode)
    r_mid = scalar_curvature(traj.mesh, traj.snapshots[mid].u)
    scale = float(np.max(r_mid**2))
    fine = float(np.abs(residual).max())

    coarse = float(np.abs(scalar_curvature_evolution_residual(
        traj.snapshots[mid - 2:mid + 3:2], traj.mode)).max())
    print(f"Linf residual {fine:.3e} = {fine / scale:.2%} of max R^2; "
          f"doubling h scales it by {coarse / fine:.2f}")
    assert fine <= 0.05 * scale
    assert 2.5 <= coarse / fine <= 6.0


def test_criterion_10_integrability_conditions(run_flat_torus,
                                               run_steady_sphere,
                                               run_bumpy, run_bumpy_half_h):
    # Flat torus: both residuals to roundoff on the complete degenerate
    # cluster (indices 1..4 share one eigenvalue).
    torus_worst = 0.0
    for eigen_index in (1, 2, 3, 4):
        res1, res2 = integrability_residuals(run_flat_torus.snapshots[1:4],
                                             run_flat_torus.mode, eigen_index,
                                             allow_cluster=True)
        torus_worst = max(torus_worst, res1, res2)
    print(f"torus worst residual {torus_worst:.3e}")
    assert torus_worst <= 1e-10

    # Round sphere at the discrete steady state, normalized mode.
    sphere_worst = 0.0
    for eigen_index in (1, 2, 3):
        res1, res2 = integrability_residuals(run_steady_sphere.snapshots[:3],
                                             run_steady_sphere.mode,
                                             eigen_index, allow_cluster=True)
        sphere_worst = max(sphere_worst, res1, res2)
    print(f"steady sphere worst residual {sphere_worst:.3e}")
    assert sphere_worst <= 1e-8

    # Perturbed sphere: residuals decrease at O(h^2) when the recording
    # step is halved.  The first residual has no decay headroom on
    # branches where it already sits at the roundoff floor, so it is
    # checked for quadratic decay only above that floor.
    r2_ratios = []
    r1_decays_checked = 0
    for eigen_index in range(1, 7):
        r1_h, r2_h = integrability_residuals(run_bumpy.snapshots[9:12],
                                             run_bumpy.mode, eigen_index)
        r1_h2, r2_h2 = integrability_residuals(
            run_bumpy_half_h.snapshots[19:22], run_bumpy_half_h.mode,
            eigen_index)
        r2_ratios.append(r2_h / r2_h2)
        if r1_h > 1e-12:
            assert 2.5 <= r1_h / r1_h2 <= 6.0
            r1_decays_checked += 1
        else:
            assert r1_h2 <= 1e-12
    print(f"second-residual halving ratios {np.round(r2_ratios, 2)}, "
          f"first-residual decay confirmed on {r1_decays_checked} branches")
    assert 2.5 <= float(np.median(r2_ratios)) <= 6.0
    assert r1_decays_checked >= 1


def test_criterion_11_flow_conservation_laws(run_round_sphere, run_bumpy,
                                             run_sign_indefinite,
                                             run_conjecture, run_flat_torus):
    # Unnormalized sphere runs: A(t) = A0 - 8 pi t within 0.1%.
    for traj in (run_round_sphere, run_bumpy, run_sign_indefinite):
        area0 = traj.snapshots[0].area
        law_err = max(abs(s.area - (area0 - 8.0 * math.pi * s.t))
                      for s in traj.snapshots)
        assert law_err / area0 <= 1e-3

    # Normalized conjecture run: area drift <= 0.1%.
    area0 = run_conjecture.snapshots[0].area
    drift = max(abs(s.area - area0) for s in run_conjecture.snapshots)
    assert drift / area0 <= 1e-3

    # Discrete total curvature integral equals 4 pi chi at every
    # recorded time on both topologies.
    worst = 0.0
    for traj in (run_round_sphere, run_flat_torus):
        target = 4.0 * math.pi * traj.mesh.euler_characteristic
        for snap in traj.snapshots:
            curvature = scalar_curvature(traj.mesh, snap.u)
            total = integrate(assemble_mass(traj.mesh, snap.u).diagonal(),
                              curvature)
            worst = max(worst, abs(total - target))
    print(f"worst total-curvature error {worst:.3e}")
    assert worst <= 1e-9
