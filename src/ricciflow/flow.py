"""Ricci flow of a conformal factor with spectrum recording.

On a surface the flow stays inside the conformal class of the base
metric, so the state is a single per-vertex log factor u with
g(t) = e^u g0.  The unnormalized flow is du/dt = -R; the normalized
flow du/dt = r - R holds the total area fixed, with r the
area-averaged scalar curvature.  Time stepping is classical RK4.  A
state is built only for a metric: it checks u and t, and computes its
curvature R, its vertex areas (the lumped mass diagonal) and its area
once; R serves as the first RK4 stage and the stop checks.  The three
later stages build no state: each computes its vertex areas once and
takes R from them by ``scalar_curvature``'s formula, so u is validated
once per step, when the new state is built.  A recorded snapshot is the
state it was solved on, sharing its arrays, plus its spectrum.
"""

import math
import mmap
from dataclasses import dataclass, field

import numpy as np

from .mesh import FLOW_MODES as MODES
from .mesh import _curvature, scalar_curvature
from .spectral import (
    TRACKING_OVERLAP_FLOOR,
    EigenSolverError,
    solve_spectrum,
    track,
)

# t_end comparisons tolerate accumulated additive roundoff.
_T_SLOP = 1e-12


class FlowBlowUpError(RuntimeError):
    """Time step produced a non-finite conformal factor."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class ConformalState:
    """Flow state: mesh, per-vertex log conformal factor, time.

    Built only for a metric: ``u`` must give finite, positive vertex
    areas and a finite total area, and ``t`` must be finite, or the
    constructor raises ``ValueError``.  The scalar curvature ``R`` of
    e^u g0, the vertex areas ``mass_diag`` (base_vertex_area * e^u) and
    ``area`` are computed then; ``r_avg``, ``R_min`` and ``R_max`` are
    read off them.  ``u`` must not be modified in place afterwards.
    States compare by identity: two states are equal only if they are
    the same object.
    """

    def __init__(self, mesh, u, t=0.0):
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        self.mesh = mesh
        self.u = np.asarray(u, dtype=np.float64)
        self.t = t
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self.R = scalar_curvature(mesh, self.u)
            self.mass_diag = mesh.base_vertex_area * np.exp(self.u)
            self.area = float(self.mass_diag.sum())
        # u is finite here, so each vertex area lies in [0, inf].
        if not (self.mass_diag.min() > 0 and self.area < math.inf):
            raise ValueError(
                f"u in [{self.u.min():.6g}, {self.u.max():.6g}] gives vertex "
                f"areas that are not finite and positive")

    @property
    def r_avg(self):
        total = np.einsum("i,i->", self.R, self.mass_diag)
        return float(total) / self.area

    @property
    def R_min(self):
        return float(self.R.min())

    @property
    def R_max(self):
        return float(self.R.max())


class SpectrumSnapshot(ConformalState):
    """A recorded state with the spectrum solved on its metric.

    Built from ``state``, whose ``mesh``, ``u``, ``t``, ``R``,
    ``mass_diag`` and ``area`` it shares rather than recomputes.
    ``eigenvalues`` (k + 1,) and ``eigenvectors`` (V, k + 1) are the
    tracked branches 0..k: column i is branch i's eigenfunction, of unit
    M-norm for M = diag(``mass_diag``), with eigenvalue
    ``eigenvalues[i]``.  ``overlaps`` are the tracking overlaps with the
    previous snapshot.
    """

    def __init__(self, state, eigenvalues, eigenvectors, overlaps=None,
                 tracking_warnings=()):
        vars(self).update(vars(state))
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.overlaps = overlaps
        self.tracking_warnings = list(tracking_warnings)


@dataclass
class FlowConfig:
    """Run parameters for the flow driver.

    ``area_floor`` defaults to 1e-6 times the initial area when unset.
    ``stop_when_round`` halts a run of either mode once the pointwise
    curvature spread R_max - R_min drops below the given value; zero
    disables the check.
    """

    mode: str = "unnormalized"
    dt_init: float = 1e-3
    t_end: float = 0.3
    cfl_safety: float = 0.1
    curvature_cap: float = 1e4
    area_floor: float = None
    spectrum_k: int = 6
    record_every: int = 10
    solver_tol: float = 1e-10
    stop_when_round: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        for name in ("dt_init", "t_end", "curvature_cap", "area_floor",
                     "solver_tol", "stop_when_round"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.dt_init <= 0 or self.t_end <= 0:
            raise ValueError("dt_init and t_end must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.curvature_cap <= 0:
            raise ValueError("curvature_cap must be positive")
        if self.area_floor is not None and self.area_floor <= 0:
            raise ValueError("area_floor must be positive")
        if self.spectrum_k < 1:
            raise ValueError("spectrum_k must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.solver_tol < 1e-14:
            raise ValueError("solver_tol below 1e-14 is unattainable")
        if self.stop_when_round < 0:
            raise ValueError("stop_when_round must be nonnegative")


@dataclass
class SpectrumTrajectory:
    """Recorded snapshots of one flow run plus termination metadata.

    ``snapshots`` holds what ``run`` kept of each snapshot, in time order.
    After a ``solver_failure`` stop, ``failure`` holds the failed state's
    time ``t``, the solver's ``message`` and its ``best_residual``.
    """

    mesh: object
    mode: str
    snapshots: list = field(default_factory=list)
    stopping_reason: str = ""
    blowup_time_estimate: float = None
    failure: dict = None

    def eigenvalue_series(self, index):
        """Tracked eigenvalue branch ``index`` across all snapshots."""
        return np.array([s.eigenvalues[index] for s in self.snapshots])

    @property
    def times(self):
        return np.array([s.t for s in self.snapshots])


def _velocity(R, mass_diag, mode):
    if mode == "normalized":
        return np.einsum("i,i->", R, mass_diag) / mass_diag.sum() - R
    return -R


def step(state, cfg, dt):
    """Advance one classical RK4 step of length dt.

    The first stage reads ``state``; the other three evaluate R and the
    vertex areas of their own intermediate factor without building a
    state.  A non-finite stage carries into the result; a result that
    gives no metric, which the new state refuses, raises
    ``FlowBlowUpError`` carrying ``state`` under any warning filter, as
    NumPy's floating-point warnings are off.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    mesh = state.mesh
    u = state.u

    def stage(v):
        mass_diag = mesh.base_vertex_area * np.exp(v)
        return _velocity(_curvature(mesh, v, mass_diag), mass_diag, cfg.mode)

    k1 = _velocity(state.R, state.mass_diag, cfg.mode)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k2 = stage(u + 0.5 * dt * k1)
        k3 = stage(u + 0.5 * dt * k2)
        k4 = stage(u + dt * k3)
        u_new = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    try:
        return ConformalState(mesh, u_new, state.t + dt)
    except ValueError as exc:
        raise FlowBlowUpError(
            f"non-finite conformal factor in step at t={state.t:.6g}",
            last_state=state,
        ) from exc


def _unpinned_copy(block):
    """``block`` copied, same layout, into an anonymous mapping of its own.

    Long-lived snapshot blocks on the C heap made peak RSS swing by up to
    30 MiB between identical runs; a mapping is unmapped with its array.
    """
    out = np.ndarray(block.shape, block.dtype, mmap.mmap(-1, block.nbytes),
                     order="F" if block.flags.f_contiguous else "C")
    out[...] = block
    return out


def _record(state, cfg, prev_snapshot):
    mass_diag = state.mass_diag
    values, vectors = solve_spectrum(state.mesh.stiffness, mass_diag,
                                     cfg.spectrum_k, cfg.solver_tol)
    if prev_snapshot is None:
        overlaps = np.ones(len(values))
    else:
        values, vectors, overlaps = track(prev_snapshot.eigenvectors, values,
                                          vectors, mass_diag)
    warnings = [
        f"tracking loss at index {i}: overlap {overlap:.3f}"
        for i, overlap in enumerate(overlaps)
        if overlap < TRACKING_OVERLAP_FLOOR
    ]
    return SpectrumSnapshot(state, values, _unpinned_copy(vectors), overlaps,
                            warnings)


def run(initial, cfg, on_record=None):
    """Drive the flow from ``initial`` until a stopping condition.

    Records a spectrum snapshot at t=0, after every ``record_every``
    accepted steps, and at the final state.  The step size is
    min(dt_init, cfl_safety / max(|R|, 1)), additionally clipped to land
    on t_end.  Stopping reasons: ``t_end``, ``area_floor``,
    ``curvature_cap``, ``converged_round``, ``nonfinite_state``,
    ``solver_failure``.  For shrinking unnormalized runs on chi > 0
    topologies a blow-up time estimate t + A / (4 pi chi) is attached
    when the run ends early.

    ``on_record(snapshot)``, when given, is called with each new
    snapshot, and ``traj.snapshots`` keeps what it returns in the
    snapshot's place; ``run`` never reads the kept entries back.  Without
    it every snapshot is kept whole.

    Returns
    -------
    SpectrumTrajectory
        Partial trajectories are returned (not raised) on solver
        failure and blow-up so callers can flush what exists; a solver
        failure also fills ``traj.failure``.
    """
    mesh = initial.mesh
    traj = SpectrumTrajectory(mesh=mesh, mode=cfg.mode)

    area0 = initial.area
    floor = cfg.area_floor if cfg.area_floor is not None else 1e-6 * area0
    keep = on_record if on_record is not None else (lambda snap: snap)

    state = initial
    steps = 0
    try:
        snapshot = _record(initial, cfg, None)
        traj.snapshots.append(keep(snapshot))
        while True:
            r_min, r_max = state.R_min, state.R_max
            max_abs_r = max(-r_min, r_max)

            if state.area < floor:
                reason = "area_floor"
                break
            if max_abs_r > cfg.curvature_cap:
                reason = "curvature_cap"
                break
            if (cfg.stop_when_round > 0.0
                    and r_max - r_min < cfg.stop_when_round):
                reason = "converged_round"
                break
            if state.t >= cfg.t_end - _T_SLOP:
                reason = "t_end"
                break

            dt = min(cfg.dt_init, cfg.cfl_safety / max(max_abs_r, 1.0))
            dt = min(dt, cfg.t_end - state.t)
            try:
                state = step(state, cfg, dt)
            except FlowBlowUpError as exc:
                state = exc.last_state
                reason = "nonfinite_state"
                break
            steps += 1

            if steps % cfg.record_every == 0:
                snapshot = _record(state, cfg, snapshot)
                traj.snapshots.append(keep(snapshot))

        if state.t > snapshot.t + _T_SLOP:
            traj.snapshots.append(keep(_record(state, cfg, snapshot)))
    except EigenSolverError as exc:
        reason = "solver_failure"
        traj.failure = {"t": state.t, "message": str(exc),
                        "best_residual": exc.best_residual}

    traj.stopping_reason = reason
    if (reason in ("area_floor", "curvature_cap", "nonfinite_state")
            and cfg.mode == "unnormalized"
            and mesh.euler_characteristic > 0):
        traj.blowup_time_estimate = (
            state.t + state.area / (4.0 * np.pi * mesh.euler_characteristic)
        )
    return traj

