import math
import mmap
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ricciflow
from ricciflow.flow import (
    ConformalState,
    FlowBlowUpError,
    FlowConfig,
    SpectrumSnapshot,
    _record,
    _unpinned_copy,
    run,
    step,
)
from ricciflow.mesh import (
    assemble_mass,
    build_flat_torus,
    build_icosphere,
    scalar_curvature,
    total_area,
)
from ricciflow.variation import scalar_curvature_evolution_residual


def sphere_bump(mesh, amplitude=0.1):
    # Smooth deterministic perturbation of the unit sphere's log factor.
    return amplitude * np.cos(3.0 * mesh.vertices[:, 2])


def fake_snapshots(mesh, times):
    zeros = np.zeros(mesh.n_vertices)
    return [SpectrumSnapshot(ConformalState(mesh, zeros, t), np.zeros(0),
                             np.zeros((mesh.n_vertices, 0)))
            for t in times]


# ---------------------------------------------------------------------------
# config and state validation


def test_state_validation():
    mesh = build_flat_torus(4, 4, 1.0, 1.0)
    with pytest.raises(ValueError, match="per-vertex"):
        ConformalState(mesh, np.zeros(5))
    bad = np.zeros(mesh.n_vertices)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ConformalState(mesh, bad)
    # A non-finite time would never reach t_end in run.
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="t must be finite"):
            ConformalState(mesh, np.zeros(mesh.n_vertices), t)
    # e^u overflows and underflows: finite u, but no metric, and no
    # RuntimeWarning under the suite's warnings-as-errors.
    for spike in (800.0, -800.0):
        bad[3] = spike
        with pytest.raises(ValueError, match=r"u in \[.*\] gives vertex "
                           "areas that are not finite and positive"):
            ConformalState(mesh, bad)


def test_config_defaults_and_validation():
    cfg = FlowConfig()
    assert cfg.mode == "unnormalized"
    assert cfg.dt_init == 1e-3
    assert cfg.t_end == 0.3
    assert cfg.spectrum_k == 6
    assert cfg.record_every == 10

    with pytest.raises(ValueError, match="mode"):
        FlowConfig(mode="ricci")
    with pytest.raises(ValueError, match="positive"):
        FlowConfig(dt_init=0.0)
    with pytest.raises(ValueError, match="cfl_safety"):
        FlowConfig(cfl_safety=1.5)
    with pytest.raises(ValueError, match="curvature_cap"):
        FlowConfig(curvature_cap=-1.0)
    with pytest.raises(ValueError, match="area_floor"):
        FlowConfig(area_floor=0.0)
    with pytest.raises(ValueError, match="spectrum_k"):
        FlowConfig(spectrum_k=0)
    with pytest.raises(ValueError, match="record_every"):
        FlowConfig(record_every=0)
    with pytest.raises(ValueError, match="solver_tol"):
        FlowConfig(solver_tol=1e-15)
    with pytest.raises(ValueError, match="stop_when_round"):
        FlowConfig(stop_when_round=-0.1)


def test_step_rejects_nonpositive_dt():
    mesh = build_flat_torus(4, 4, 1.0, 1.0)
    state = ConformalState(mesh, np.zeros(mesh.n_vertices))
    with pytest.raises(ValueError, match="dt"):
        step(state, FlowConfig(), 0.0)


# ---------------------------------------------------------------------------
# steady and exact solutions


def test_flat_torus_is_a_fixed_point():
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=0.05,
                     record_every=10, spectrum_k=3)
    traj = run(ConformalState(mesh, np.zeros(mesh.n_vertices)), cfg)
    assert traj.stopping_reason == "t_end"
    assert_allclose(traj.times, 0.01 * np.arange(6), atol=1e-12)
    for snap in traj.snapshots:
        assert np.abs(snap.u).max() < 1e-9
    assert np.ptp(traj.eigenvalue_series(1)) < 1e-9
    assert traj.blowup_time_estimate is None


def test_recording_includes_partial_final_step():
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=0.014,
                     record_every=10, spectrum_k=1)
    traj = run(ConformalState(mesh, np.zeros(mesh.n_vertices)), cfg)
    assert_allclose(traj.times, [0.0, 0.01, 0.014], atol=1e-12)


def test_shrinking_sphere_area_law():
    # Unnormalized flow on a chi=2 surface loses area at the exact rate
    # 8*pi regardless of shape, and the unit sphere's conformal factor
    # follows e^u = 1 - 2t.
    mesh = build_icosphere(3, 1.0)
    zeros = np.zeros(mesh.n_vertices)
    area0 = total_area(mesh, zeros)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=0.1,
                     record_every=20, spectrum_k=2)
    traj = run(ConformalState(mesh, zeros), cfg)
    assert traj.stopping_reason == "t_end"
    weights = mesh.base_vertex_area
    for snap in traj.snapshots:
        assert abs(snap.area - (area0 - 8.0 * math.pi * snap.t)) < 1e-8
        mean_factor = float(weights @ np.exp(snap.u)) / float(weights.sum())
        assert abs(mean_factor - (1.0 - 2.0 * snap.t)) < 0.01


def test_normalized_flow_conserves_area_and_rounds_out():
    mesh = build_icosphere(2, 1.0)
    state = ConformalState(mesh, sphere_bump(mesh))
    area0 = state.area
    cfg = FlowConfig(mode="normalized", dt_init=1e-3, t_end=0.05,
                     record_every=10, spectrum_k=2)
    traj = run(state, cfg)
    assert traj.stopping_reason == "t_end"
    for snap in traj.snapshots:
        assert abs(snap.area - area0) / area0 < 1e-8
        assert np.abs(snap.u).max() < 1.0
    spread_0 = traj.snapshots[0].R_max - traj.snapshots[0].R_min
    spread_end = traj.snapshots[-1].R_max - traj.snapshots[-1].R_min
    assert spread_end < spread_0


def test_recorded_curvature_is_that_of_the_recorded_factor():
    # A snapshot is the state it was solved on: R, the mass diagonal,
    # the area and r must be those of the snapshot's own u.
    mesh = build_icosphere(2, 1.0)
    cfg = FlowConfig(mode="normalized", dt_init=1e-3, t_end=0.022,
                     record_every=5, spectrum_k=2)
    traj = run(ConformalState(mesh, sphere_bump(mesh)), cfg)
    assert traj.stopping_reason == "t_end"
    # Records at t = 0, after steps 5, 10, 15, 20 and at the final step 22.
    assert len(traj.snapshots) == 6
    for snap in traj.snapshots:
        assert np.array_equal(snap.R, scalar_curvature(mesh, snap.u))
        assert np.array_equal(snap.mass_diag,
                              assemble_mass(mesh, snap.u).diagonal())
        assert snap.area == total_area(mesh, snap.u)
        weights = mesh.base_vertex_area * np.exp(snap.u)
        area = float(np.sum(weights))
        r_avg = float(np.sum(snap.R * weights)) / area
        # Scaled by max|R| because r is 0 on tori.
        assert abs(snap.r_avg - r_avg) <= 1e-13 * np.abs(snap.R).max()


def test_snapshot_is_the_state_it_was_solved_on():
    assert issubclass(ricciflow.SpectrumSnapshot, ricciflow.ConformalState)
    mesh = build_icosphere(1, 1.0)
    u = sphere_bump(mesh, amplitude=0.3)
    snap = SpectrumSnapshot(ConformalState(mesh, u, t=0.5), np.zeros(1),
                            np.zeros((mesh.n_vertices, 1)))
    negated = SpectrumSnapshot(ConformalState(mesh, -u, t=0.5),
                               snap.eigenvalues, snap.eigenvectors)
    for candidate, factor in ((snap, u), (negated, -u)):
        state = ConformalState(mesh, factor, t=0.5)
        assert np.array_equal(candidate.R, scalar_curvature(mesh, factor))
        assert np.array_equal(candidate.mass_diag,
                              mesh.base_vertex_area * np.exp(factor))
        assert candidate.area == state.area
        assert candidate.r_avg == state.r_avg
        assert (candidate.R_min, candidate.R_max) == (state.R_min,
                                                      state.R_max)
        assert candidate.t == 0.5
    assert snap.overlaps is None and snap.tracking_warnings == []


def test_states_and_snapshots_compare_by_identity():
    # Array fields have no single truth value, so equality is identity.
    mesh = build_flat_torus(3, 3, 1.0, 1.0)
    a, b = (ConformalState(mesh, np.zeros(mesh.n_vertices)) for _ in range(2))
    assert a == a and a != b
    assert len({a, b}) == 2
    snapshots = fake_snapshots(mesh, [0.0, 0.1, 0.2])
    later = snapshots[2]
    assert later in snapshots
    assert snapshots.index(later) == 2
    assert SpectrumSnapshot(later, later.eigenvalues,
                            later.eigenvectors) != later


def test_on_record_runs_after_each_append():
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=0.014,
                     record_every=5, spectrum_k=2)
    seen, kept = [], []

    def on_record(snapshot):
        seen.append(snapshot)
        kept.append(object())
        return kept[-1]

    traj = run(ConformalState(mesh, np.zeros(mesh.n_vertices)), cfg,
               on_record=on_record)
    # t = 0, the two recording steps and the final partial step.
    assert_allclose([s.t for s in seen], [0.0, 0.005, 0.01, 0.014],
                    atol=1e-12)
    assert all(type(s) is SpectrumSnapshot for s in seen)
    # The trajectory keeps exactly what the callback returned, in order.
    assert len(traj.snapshots) == len(kept)
    assert all(a is b for a, b in zip(traj.snapshots, kept))


def test_recorded_snapshot_shares_the_state_factor():
    # A state's u is never modified in place, so the record keeps it.
    mesh = build_icosphere(1, 1.0)
    state = ConformalState(mesh, sphere_bump(mesh), t=0.25)
    snap = _record(state, FlowConfig(spectrum_k=3), None)
    assert snap.u is state.u and snap.mesh is mesh and snap.t == 0.25
    assert snap.R is state.R
    assert snap.mass_diag is state.mass_diag


def test_run_evaluates_curvature_four_times_per_step(monkeypatch):
    # Three RK4 stages call the curvature formula directly; the new state
    # reaches it through scalar_curvature.  A snapshot takes its state's R.
    mesh = build_icosphere(1, 1.0)
    initial = ConformalState(mesh, sphere_bump(mesh))
    formula = ricciflow.mesh._curvature
    calls = {"formula": 0, "scalar_curvature": 0}

    def counting_formula(*args):
        calls["formula"] += 1
        return formula(*args)

    def counting_scalar_curvature(*args):
        calls["scalar_curvature"] += 1
        return scalar_curvature(*args)

    monkeypatch.setattr(ricciflow.mesh, "_curvature", counting_formula)
    monkeypatch.setattr(ricciflow.flow, "_curvature", counting_formula)
    monkeypatch.setattr(ricciflow.flow, "scalar_curvature",
                        counting_scalar_curvature)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=0.0105,
                     record_every=1, spectrum_k=2)
    traj = run(initial, cfg)
    assert traj.stopping_reason == "t_end"
    steps = len(traj.snapshots) - 1  # one snapshot per step, and t = 0
    assert steps == 11
    assert calls == {"formula": 4 * steps, "scalar_curvature": steps}


def _explicit_rk4_step(mesh, u, dt, mode):
    # Independent RK4 with the velocity written out from u alone.
    def velocity(v):
        curvature = scalar_curvature(mesh, v)
        if mode == "normalized":
            weights = mesh.base_vertex_area * np.exp(v)
            r_avg = float(curvature @ weights) / float(weights.sum())
            return r_avg - curvature
        return -curvature

    k1 = velocity(u)
    k2 = velocity(u + 0.5 * dt * k1)
    k3 = velocity(u + 0.5 * dt * k2)
    k4 = velocity(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("mode", ["normalized", "unnormalized"])
def test_step_matches_explicit_rk4(mode):
    mesh = build_icosphere(2, 1.0)
    u0 = sphere_bump(mesh, amplitude=0.3)
    state = ConformalState(mesh, u0, t=0.25)
    stepped = step(state, FlowConfig(mode=mode), 2e-3)
    assert stepped.t == 0.25 + 2e-3
    assert_allclose(stepped.u, _explicit_rk4_step(mesh, u0, 2e-3, mode),
                    rtol=0, atol=1e-12)
    assert np.array_equal(stepped.R,
                          scalar_curvature(mesh, stepped.u))


def test_tracking_metadata_on_smooth_run():
    mesh = build_icosphere(2, 1.0)
    cfg = FlowConfig(mode="normalized", dt_init=1e-3, t_end=0.02,
                     record_every=10, spectrum_k=4)
    traj = run(ConformalState(mesh, sphere_bump(mesh)), cfg)
    for snap in traj.snapshots:
        assert snap.tracking_warnings == []
        assert snap.overlaps.min() > 0.99
    assert traj.mesh is mesh


def test_snapshot_blocks_live_in_their_own_mappings():
    mesh = build_icosphere(2, 1.0)
    cfg = FlowConfig(mode="normalized", dt_init=1e-3, t_end=0.02,
                     record_every=10, spectrum_k=4)
    traj = run(ConformalState(mesh, sphere_bump(mesh)), cfg)
    for snap in traj.snapshots:
        block = snap.eigenvectors
        assert isinstance(block.base, mmap.mmap)
        assert block.shape == (mesh.n_vertices, 5)
        assert block.flags.f_contiguous and block.flags.writeable
    # Distinct mappings: no snapshot shares another's block.
    assert len({id(s.eigenvectors.base) for s in traj.snapshots}) == \
        len(traj.snapshots)


@pytest.mark.parametrize("order", ["C", "F"])
def test_unpinned_copy_keeps_values_and_layout(order):
    block = np.asarray(np.random.default_rng(0).normal(size=(7, 3)),
                       order=order)
    copy = _unpinned_copy(block)
    assert np.array_equal(copy, block)
    assert copy.flags.c_contiguous == block.flags.c_contiguous
    assert copy.flags.f_contiguous == block.flags.f_contiguous
    copy[0, 0] += 1.0
    assert copy[0, 0] != block[0, 0]


# ---------------------------------------------------------------------------
# stopping conditions


def test_area_floor_stop_and_blowup_estimate():
    mesh = build_icosphere(2, 1.0)
    zeros = np.zeros(mesh.n_vertices)
    area0 = total_area(mesh, zeros)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=1.0,
                     record_every=50, spectrum_k=1, area_floor=0.5 * area0)
    traj = run(ConformalState(mesh, zeros), cfg)
    assert traj.stopping_reason == "area_floor"
    assert traj.snapshots[-1].area < 0.5 * area0 + 1e-6
    # t + A(t) / (8 pi) recovers the exact extinction time A0 / (8 pi)
    # because the area decreases at the constant rate 8 pi.
    assert abs(traj.blowup_time_estimate - area0 / (8.0 * math.pi)) < 1e-9


def test_curvature_cap_stop():
    mesh = build_icosphere(2, 1.0)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=1.0,
                     record_every=50, spectrum_k=1, curvature_cap=4.0)
    traj = run(ConformalState(mesh, np.zeros(mesh.n_vertices)), cfg)
    assert traj.stopping_reason == "curvature_cap"
    # max R grows like 2.3 / (1 - 2t), crossing 4 near t = 0.21.
    assert 0.15 < traj.snapshots[-1].t < 0.26
    assert traj.blowup_time_estimate is not None


def test_converged_round_stop():
    mesh = build_icosphere(2, 1.0)
    cfg = FlowConfig(mode="normalized", dt_init=1e-3, t_end=2.0,
                     record_every=50, spectrum_k=1, stop_when_round=0.05)
    traj = run(ConformalState(mesh, np.zeros(mesh.n_vertices)), cfg)
    assert traj.stopping_reason == "converged_round"
    last = traj.snapshots[-1]
    assert last.R_max - last.R_min < 0.05
    assert last.t < 0.5  # converges long before t_end


def test_converged_round_stop_applies_to_unnormalized_runs():
    # The unit icosphere 2 starts with a curvature spread below 10.
    mesh = build_icosphere(2, 1.0)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=0.1,
                     record_every=10, spectrum_k=1, stop_when_round=10.0)
    traj = run(ConformalState(mesh, np.zeros(mesh.n_vertices)), cfg)
    assert traj.stopping_reason == "converged_round"
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0].t == 0.0


def test_unstable_run_returns_partial_trajectory():
    # A step size far beyond the RK4 stability limit destroys the state;
    # the driver must hand back what it recorded instead of raising.
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(11)
    u0 = 1e-2 * rng.standard_normal(mesh.n_vertices)
    u0 -= u0.mean()
    cfg = FlowConfig(mode="unnormalized", dt_init=0.05, cfl_safety=1.0,
                     t_end=100.0, record_every=10**6, spectrum_k=1,
                     curvature_cap=1e308, area_floor=1e-300)
    traj = run(ConformalState(mesh, u0), cfg)
    assert traj.stopping_reason == "nonfinite_state"
    assert len(traj.snapshots) == 1
    assert traj.snapshots[0].t == 0.0
    assert np.all(np.isfinite(traj.snapshots[0].u))


def test_blowup_stops_by_name_under_warnings_as_errors():
    # The step's finiteness checks, not NumPy's overflow warnings, report
    # a blow-up: with every warning raised as an error, the run still
    # stops by name.
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(11)
    u0 = 1e-2 * rng.standard_normal(mesh.n_vertices)
    u0 -= u0.mean()
    cfg = FlowConfig(mode="normalized", dt_init=0.05, cfl_safety=1.0,
                     t_end=100.0, record_every=10**6, spectrum_k=1,
                     curvature_cap=1e308, area_floor=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(ConformalState(mesh, u0), cfg)
    assert traj.stopping_reason == "nonfinite_state"
    assert [s.t for s in traj.snapshots] == [0.0]


def test_exploding_step_hits_finiteness_guard():
    # When an RK4 stage overflows, the non-finite stage carries into the
    # new factor, the new state's curvature evaluation rejects it and the
    # step reports a blow-up.
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    u0 = np.full(mesh.n_vertices, -200.0)
    u0[17] = -100.0
    state = ConformalState(mesh, u0)
    with pytest.raises(FlowBlowUpError, match="finite") as excinfo:
        step(state, FlowConfig(), 1e-3)
    assert excinfo.value.last_state is state


def test_nonfinite_normalized_stage_is_a_blowup():
    # With a spike and a step far beyond the stability limit, a middle
    # RK4 stage goes non-finite; that is a blow-up, not a bad argument.
    mesh = build_icosphere(3, 1.0)
    u0 = np.zeros(mesh.n_vertices)
    u0[0] = 5.0
    state = ConformalState(mesh, u0)
    with pytest.raises(FlowBlowUpError, match="finite") as excinfo:
        step(state, FlowConfig(mode="normalized"), 1.0)
    assert excinfo.value.last_state is state


def test_cfl_limiter_shrinks_steps():
    mesh = build_icosphere(2, 1.0)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-2, cfl_safety=1e-3,
                     t_end=0.05, record_every=10, spectrum_k=1)
    traj = run(ConformalState(mesh, np.zeros(mesh.n_vertices)), cfg)
    first_gap = traj.snapshots[1].t - traj.snapshots[0].t
    # |R| >= 2 everywhere, so dt <= 1e-3 / 2 per step.
    assert first_gap <= 10 * 5e-4 + 1e-12
    assert first_gap < 10 * cfg.dt_init


# ---------------------------------------------------------------------------
# curvature evolution residual


def test_evolution_law_residual_small_and_second_order():
    mesh = build_icosphere(3, 1.0)
    cfg = FlowConfig(mode="unnormalized", dt_init=1e-3, t_end=0.04,
                     record_every=5, spectrum_k=1)
    traj = run(ConformalState(mesh, sphere_bump(mesh)), cfg)
    assert len(traj.snapshots) == 9

    mid = 4
    residual = scalar_curvature_evolution_residual(
        traj.snapshots[mid - 1:mid + 2], traj.mode)
    r_mid = scalar_curvature(mesh, traj.snapshots[mid].u)
    scale = float(np.max(r_mid**2))
    fine = float(np.abs(residual).max())
    assert fine < 0.05 * scale

    coarse = float(np.abs(scalar_curvature_evolution_residual(
        traj.snapshots[mid - 2:mid + 3:2], traj.mode)).max())
    assert 2.5 < coarse / fine < 6.0  # doubling h scales the error ~4x


def test_normalized_evolution_law_residual_is_second_order():
    # The normalized flow's law is dR/dt = Delta R + R^2 - r R.  Checked
    # against the unnormalized law instead, the residual is the missing
    # r R, about max R^2, and does not shrink with the spacing.
    mesh = build_icosphere(3, 1.0)
    u0 = 0.01 * mesh.vertices[:, 0] * mesh.vertices[:, 1]
    cfg = FlowConfig(mode="normalized", dt_init=2e-4, t_end=0.01,
                     record_every=5, spectrum_k=1)
    traj = run(ConformalState(mesh, u0), cfg)
    assert len(traj.snapshots) == 11

    def worst(window, mode):
        return float(np.abs(
            scalar_curvature_evolution_residual(window, mode)).max())

    mid = 5
    fine = traj.snapshots[mid - 1:mid + 2]
    coarse = traj.snapshots[mid - 2:mid + 3:2]
    scale = float(np.max(traj.snapshots[mid].R**2))
    assert worst(fine, "normalized") < 0.1 * scale
    # doubling h scales the error ~4x
    assert 2.5 < worst(coarse, "normalized") / worst(fine, "normalized") < 6.0
    assert worst(fine, "unnormalized") > 0.5 * scale
    assert worst(coarse, "unnormalized") / worst(fine, "unnormalized") < 1.5


def test_residual_rejects_boundary_and_nonuniform_times():
    mesh = build_flat_torus(4, 4, 1.0, 1.0)
    snapshots = fake_snapshots(mesh, [0.0, 0.01, 0.02, 0.03])
    # A window at either end of a run lacks a neighbor.
    with pytest.raises(ValueError, match="2 snapshots, not three"):
        scalar_curvature_evolution_residual(snapshots[:2], "unnormalized")
    with pytest.raises(ValueError, match="4 snapshots, not three"):
        scalar_curvature_evolution_residual(snapshots, "unnormalized")
    skewed = fake_snapshots(mesh, [0.0, 0.01, 0.03])
    with pytest.raises(ValueError, match="uniform"):
        scalar_curvature_evolution_residual(skewed, "unnormalized")
    reversed_t = fake_snapshots(mesh, [0.0, 0.02, 0.01])
    with pytest.raises(ValueError, match="increasing"):
        scalar_curvature_evolution_residual(reversed_t, "unnormalized")
