"""First-variation checks for Laplace eigenvalues along the flow.

On a surface the eigenvalue rate along the unnormalized flow reduces to
d(lambda)/dt = lambda * int f^2 R dmu; the normalized flow subtracts
r * lambda.  The general dimension-n form
lambda * int f^2 R - int R |grad f|^2 + 2 int Ric(grad f, grad f)
collapses to that surface form through Ric = (R/2) g in 2D, so only the
surface form is evaluated.  This module compares it against three-point
differences of the recorded eigenvalue branches, checks the
normalization-derived integrability conditions and the curvature
evolution law, and re-exports ``spectral.perelman_lambda``, the smallest
eigenvalue of the curvature-shifted pencil 4L + M diag(R), which is
nondecreasing along the unnormalized flow.  All of them read the
curvature R and the measure dmu (``mass_diag``) that each snapshot
carries.  Branch i of a snapshot is entry i of its ``eigenvalues`` with
column i of its ``eigenvectors`` block as f.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mesh import FLOW_MODES, integrate
from .spectral import (
    TRACKING_OVERLAP_FLOOR,
    eigenvalue_clusters,
    mass_gram,
    perelman_lambda,
)

NORMALIZATION_SLACK = 1e-6
_REL_ERROR_FLOOR = 1e-12


class ClusterGaugeError(ValueError):
    """Eigenfunction derivative undefined inside a degenerate cluster."""


def _check_mode(mode):
    """Refuse a flow mode other than those in ``FLOW_MODES``."""
    if mode not in FLOW_MODES:
        raise ValueError(f"flow mode must be one of {FLOW_MODES}, "
                         f"not {mode!r}")


def surface_rate(snapshot, index, mode):
    """Surface rate of branch ``index`` along the ``mode`` flow:
    lambda * int f^2 R dmu, less r * lambda on the normalized flow."""
    _check_mode(mode)
    r_avg = snapshot.r_avg if mode == "normalized" else 0.0
    if index < 1:
        raise ValueError("variation formulas apply to nonconstant modes "
                         "(index >= 1)")
    f = snapshot.eigenvectors[:, index]
    norm = integrate(snapshot.mass_diag, f**2)
    if abs(norm - 1.0) > NORMALIZATION_SLACK:
        raise ValueError(f"eigenfunction M-norm is {norm:.9f}, off unit by "
                         f"more than {NORMALIZATION_SLACK:.0e}")
    lam = snapshot.eigenvalues[index]
    return lam * integrate(snapshot.mass_diag, f**2 * snapshot.R) - r_avg * lam


def central_window(window):
    """``(s_prev, s_mid, s_next, rate)`` of a window of three snapshots.

    ``rate(prev, mid, next)`` is the three-point derivative, second order
    in the two spacings, at the middle time of values taken at the three
    snapshots.  Spacings equal to 1e-9 relative give the central
    difference alone.  Anything but three snapshots at strictly
    increasing times is a ``ValueError``.
    """
    if len(window) != 3:
        raise ValueError(f"window holds {len(window)} snapshots, not three")
    s_prev, s_mid, s_next = window
    h1 = s_mid.t - s_prev.t
    h2 = s_next.t - s_mid.t
    if h1 <= 0 or h2 <= 0:
        raise ValueError("snapshot times must be strictly increasing")
    span = h1 + h2
    skew = 0.0 if abs(h1 - h2) <= 1e-9 * max(h1, h2) else (h1 - h2) / span

    # (h1^2 (next - mid) + h2^2 (mid - prev)) / (h1 h2 (h1 + h2)), split
    # into the central difference and a correction that vanishes at h1 = h2.
    def rate(prev, mid, after):
        central = (after - prev) / span
        if not skew:
            return central
        return central + skew * ((after - mid) / h2 - (mid - prev) / h1)

    return s_prev, s_mid, s_next, rate


def scalar_curvature_evolution_residual(window, mode):
    """Residual of the curvature evolution law of the ``mode`` flow,
    dR/dt = Delta R + R^2, less r R on the normalized flow.

    Differences R across the window and subtracts the right-hand side at
    its middle snapshot, with the geometer's Laplacian Delta_g R
    = -(L R) / (base_vertex_area * e^u).  Returns the per-vertex residual
    array; it vanishes to O(h^2) on exact flows.
    """
    _check_mode(mode)
    s_prev, s_mid, s_next, rate = central_window(window)
    r_avg = s_mid.r_avg if mode == "normalized" else 0.0
    drdt = rate(s_prev.R, s_mid.R, s_next.R)
    laplace_r = -(s_mid.mesh.stiffness @ s_mid.R) / s_mid.mass_diag
    return drdt - (laplace_r + s_mid.R**2 - r_avg * s_mid.R)


def finite_difference_rate(window, members):
    """Three-point eigenvalue rate at the window's middle time.

    ``members`` is a branch index or a cluster of indices; clusters are
    differenced through their mean eigenvalue, which is invariant under
    the arbitrary eigenbasis rotations inside a degenerate eigenspace.
    """
    *snapshots, rate = central_window(window)
    members = np.atleast_1d(members).astype(int)
    if not len(members) or members.min() < 1:
        raise ValueError("rates are defined for branch indices >= 1")
    return float(rate(*(np.mean(snap.eigenvalues[members])
                        for snap in snapshots)))


def _aligned_derivative(window, rate, members):
    """Gauge-fixed three-point ``rate`` of an eigenvalue group's block.

    Eigenvectors inside a (near-)degenerate cluster are defined only up
    to an orthogonal mixing, and the solver's choice jitters from one
    snapshot to the next.  Each neighbor block is rotated onto the
    middle one by the minimal-rotation (orthogonal Procrustes)
    alignment, which removes that arbitrariness; the diagonal identities
    checked downstream are invariant under the gauge freedom left, and
    on a tracked simple branch the rotation is exactly 1.  Returns the
    differenced block and the smallest principal-angle cosine between
    the group's eigenspaces at either neighbor.  Each overlap is taken
    under the later snapshot's mass, as ``track`` takes it, so for one
    branch the cosine is the |<f_prev, M f>| that ``track`` records.
    """
    s_prev, s_mid, s_next = window
    columns = list(members)
    target = s_mid.eigenvectors[:, columns]
    prev, after = (snap.eigenvectors[:, columns] for snap in (s_prev, s_next))
    u_svd, cos, vt_svd = np.linalg.svd(np.stack([
        mass_gram(prev, target, s_mid.mass_diag),
        mass_gram(after, target, s_next.mass_diag)]))
    rotations = u_svd @ vt_svd
    f_dot = rate(np.einsum("ip,pq->iq", prev, rotations[0]), target,
                 np.einsum("ip,pq->iq", after, rotations[1]))
    return f_dot, float(cos.min())


def _normalization_residuals(s_mid, index, f_dot, mode):
    """The two residuals of ``integrability_residuals`` for branch
    ``index`` with time derivative ``f_dot``."""
    f_mid = s_mid.eigenvectors[:, index]
    mdiag = s_mid.mass_diag
    res_first = abs(integrate(mdiag, f_dot)
                    - integrate(mdiag, f_mid * s_mid.R))
    f2r = integrate(mdiag, f_mid**2 * s_mid.R)
    ffdot = integrate(mdiag, f_mid * f_dot)
    if mode == "normalized":
        return res_first, abs(2.0 * ffdot - f2r + s_mid.r_avg)
    return res_first, abs(ffdot - 0.5 * f2r)


def integrability_residuals(window, mode, eigen_index, allow_cluster=False):
    """Residuals of the two eigenfunction normalization identities.

    The time derivative f' is the three-point rate of the eigenvector
    block of the index's eigenvalue group (a simple branch is a group of
    one) in the Procrustes gauge of ``_aligned_derivative``.  With dmu
    the middle measure:

    * first residual:  | int f' dmu - int f R dmu |
    * second residual (unnormalized): | int f' f dmu - 1/2 int f^2 R dmu |
    * second residual (normalized):   | 2 int f f' dmu - int f^2 R dmu + r |

    Inside a near-degenerate cluster the branch derivative has no
    intrinsic meaning, so the check is refused unless ``allow_cluster``
    is set: the Procrustes gauge is then the legitimate smooth-branch
    gauge of a symmetry-forced degeneracy that persists along the whole
    run.
    """
    _check_mode(mode)
    _, s_mid, _, rate = central_window(window)
    if eigen_index < 1:
        raise ValueError("integrability applies to nonconstant modes")

    members = next((cluster for cluster in eigenvalue_clusters(
        s_mid.eigenvalues) if eigen_index in cluster), [eigen_index])
    if len(members) > 1 and not allow_cluster:
        raise ClusterGaugeError(
            f"index {eigen_index} sits in the degenerate cluster "
            f"{members}; the branch derivative is gauge-ambiguous"
        )
    f_dot, _ = _aligned_derivative(window, rate, members)
    return _normalization_residuals(
        s_mid, eigen_index, f_dot[:, members.index(eigen_index)], mode)


def rate_bound_check(fd_rate, lam, dim, tol=1e-9):
    """Check fd_rate <= 2 (n-1)/n * lambda^2 + tol.

    The bound holds along the unnormalized flow on nonnegatively curved
    manifolds; model-space solitons saturate it exactly.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    bound = 2.0 * (dim - 1) / dim * lam**2
    return bool(fd_rate <= bound + tol)


@dataclass
class VariationRow:
    """One finite-difference vs closed-form comparison."""

    t: float
    index: int
    members: tuple
    is_cluster: bool
    lam: float
    fd_rate: float
    rhs_rate: float
    rel_error: float
    integ_res_1: float
    integ_res_2: float
    tracking_ok: bool


def relative_error(fd_rate, rhs_rate):
    return abs(fd_rate - rhs_rate) / max(abs(fd_rate), abs(rhs_rate),
                                         _REL_ERROR_FLOOR)


def variation_report(snapshots, mode):
    """Compare finite-difference and closed-form rates at each interior time.

    Produces one row per eigenvalue group (a cluster, or a simple branch
    as a group of one) per interior time of the consecutive
    ``snapshots`` of a ``mode`` flow, whatever the two spacings around
    it.  Rows compare the group's mean eigenvalue, and
    those whose eigenspace overlap dropped below the loss threshold at
    either neighbor are marked ``tracking_ok=False``.  Integrability
    residuals are reported only for simple, well-tracked branches (NaN
    otherwise).
    """
    _check_mode(mode)
    rows = []
    for window in zip(snapshots, snapshots[1:], snapshots[2:]):
        _, s_mid, _, rate = central_window(window)
        values = s_mid.eigenvalues
        for cluster in eigenvalue_clusters(values):
            members = tuple(cluster)
            is_cluster = len(members) > 1
            fd = finite_difference_rate(window, members)
            rhs = float(np.mean([surface_rate(s_mid, m, mode)
                                 for m in members]))
            # Per-vector overlaps jitter inside a degenerate eigenspace;
            # what tracking preserves is the span.
            f_dot, cosine = _aligned_derivative(window, rate, members)
            tracking_ok = cosine >= TRACKING_OVERLAP_FLOOR
            res1 = res2 = math.nan
            if not is_cluster and tracking_ok:
                res1, res2 = _normalization_residuals(s_mid, members[0],
                                                      f_dot[:, 0], mode)
            rows.append(VariationRow(
                t=s_mid.t,
                index=members[0],
                members=members,
                is_cluster=is_cluster,
                lam=float(np.mean(values[list(members)])),
                fd_rate=fd,
                rhs_rate=rhs,
                rel_error=relative_error(fd, rhs),
                integ_res_1=res1,
                integ_res_2=res2,
                tracking_ok=tracking_ok,
            ))
    return rows
