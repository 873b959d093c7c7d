"""First-variation checks for Laplace eigenvalues along the flow.

On a surface the eigenvalue rate along the unnormalized flow reduces to
d(lambda)/dt = lambda * int f^2 R dmu; the normalized flow subtracts
r * lambda.  The general dimension-n form
lambda * int f^2 R - int R |grad f|^2 + 2 int Ric(grad f, grad f)
collapses to that surface form through Ric = (R/2) g in 2D, so only the
surface form is evaluated.  This module compares it against central
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

from .mesh import integrate
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


def rhs_unnormalized_surface(snapshot, index):
    """Surface rate lambda * int f^2 R dmu of branch ``index``
    (unnormalized flow)."""
    if index < 1:
        raise ValueError("variation formulas apply to nonconstant modes "
                         "(index >= 1)")
    f = snapshot.eigenvectors[:, index]
    norm = integrate(snapshot.mass_diag, f**2)
    if abs(norm - 1.0) > NORMALIZATION_SLACK:
        raise ValueError(f"eigenfunction M-norm is {norm:.9f}, off unit by "
                         f"more than {NORMALIZATION_SLACK:.0e}")
    return (snapshot.eigenvalues[index]
            * integrate(snapshot.mass_diag, f**2 * snapshot.R))


def rhs_normalized_surface(snapshot, index):
    """Surface rate -r*lambda + lambda * int f^2 R dmu of branch ``index``."""
    return (rhs_unnormalized_surface(snapshot, index)
            - snapshot.r_avg * snapshot.eigenvalues[index])


def central_window(window):
    """``(s_prev, s_mid, s_next, h)`` of a window of three snapshots.

    Central differences need exactly three snapshots at one equal
    spacing ``h``; anything else is a ``ValueError``.
    """
    if len(window) != 3:
        raise ValueError(f"window holds {len(window)} snapshots, not three")
    s_prev, s_mid, s_next = window
    h1 = s_mid.t - s_prev.t
    h2 = s_next.t - s_mid.t
    if h1 <= 0 or h2 <= 0:
        raise ValueError("snapshot times must be strictly increasing")
    if abs(h1 - h2) > 1e-9 * max(h1, h2):
        raise ValueError(
            f"recording spacing is not uniform ({h1:.3e} vs {h2:.3e}); "
            "central differences need equal intervals"
        )
    return s_prev, s_mid, s_next, 0.5 * (h1 + h2)


def scalar_curvature_evolution_residual(window):
    """Residual of the curvature evolution law dR/dt = Delta R + R^2.

    Central-differences R across the window and subtracts Delta R + R^2
    at its middle snapshot, with the geometer's Laplacian Delta_g R =
    -(L R) / (base_vertex_area * e^u).  Returns the per-vertex residual
    array; it vanishes to O(h^2) on exact flows.
    """
    s_prev, s_mid, s_next, h = central_window(window)
    drdt = (s_next.R - s_prev.R) / (2.0 * h)
    laplace_r = -(s_mid.mesh.stiffness @ s_mid.R) / s_mid.mass_diag
    return drdt - (laplace_r + s_mid.R**2)


def finite_difference_rate(window, members):
    """Central-difference eigenvalue rate at the window's middle time.

    ``members`` is a branch index or a cluster of indices; clusters are
    differenced through their mean eigenvalue, which is invariant under
    the arbitrary eigenbasis rotations inside a degenerate eigenspace.
    """
    s_prev, _, s_next, h = central_window(window)
    members = np.atleast_1d(members).astype(int)
    if not len(members) or members.min() < 1:
        raise ValueError("rates are defined for branch indices >= 1")

    lam_prev = np.mean(s_prev.eigenvalues[members])
    lam_next = np.mean(s_next.eigenvalues[members])
    return float((lam_next - lam_prev) / (2.0 * h))


def _procrustes_aligned_block(block, target, mdiag):
    """Rotate ``block`` onto ``target`` under the diagonal mass inner product.

    Eigenvectors inside a (near-)degenerate cluster are defined only up
    to an orthogonal mixing, and the solver's choice jitters from one
    snapshot to the next.  The minimal-rotation (orthogonal Procrustes)
    alignment removes that arbitrariness; the diagonal identities
    checked downstream are invariant under the residual gauge freedom.
    """
    u_svd, _, vt_svd = np.linalg.svd(mass_gram(block, target, mdiag))
    return np.einsum("ip,pq->iq", block, u_svd @ vt_svd)


def integrability_residuals(window, mode, eigen_index, allow_cluster=False):
    """Residuals of the two eigenfunction normalization identities.

    The time derivative f' is the central difference of the tracked
    (sign-aligned) eigenfunctions.  With dmu the middle measure:

    * first residual:  | int f' dmu - int f R dmu |
    * second residual (unnormalized): | int f' f dmu - 1/2 int f^2 R dmu |
    * second residual (normalized):   | 2 int f f' dmu - int f^2 R dmu + r |

    Inside a near-degenerate cluster the branch derivative has no
    intrinsic meaning, so the check is refused unless ``allow_cluster``
    is set; the neighbor eigenbases are then rotated onto the middle
    one (Procrustes gauge) before differencing, which is the legitimate
    smooth-branch gauge for symmetry-forced degeneracies that persist
    along the whole run.
    """
    s_prev, s_mid, s_next, h = central_window(window)
    if eigen_index < 1:
        raise ValueError("integrability applies to nonconstant modes")

    members = (eigen_index,)
    for cluster in eigenvalue_clusters(s_mid.eigenvalues):
        if eigen_index in cluster and len(cluster) > 1:
            if not allow_cluster:
                raise ClusterGaugeError(
                    f"index {eigen_index} sits in the degenerate cluster "
                    f"{cluster}; the branch derivative is gauge-ambiguous"
                )
            members = tuple(cluster)

    f_mid = s_mid.eigenvectors[:, eigen_index]
    if len(members) > 1:
        columns = list(members)
        target = s_mid.eigenvectors[:, columns]
        sides = [_procrustes_aligned_block(snap.eigenvectors[:, columns],
                                           target, s_mid.mass_diag)
                 for snap in (s_prev, s_next)]
        col = members.index(eigen_index)
        f_dot = (sides[1][:, col] - sides[0][:, col]) / (2.0 * h)
    else:
        f_dot = (s_next.eigenvectors[:, eigen_index]
                 - s_prev.eigenvectors[:, eigen_index]) / (2.0 * h)

    mdiag = s_mid.mass_diag
    res_first = abs(integrate(mdiag, f_dot)
                    - integrate(mdiag, f_mid * s_mid.R))
    f2r = integrate(mdiag, f_mid**2 * s_mid.R)
    ffdot = integrate(mdiag, f_mid * f_dot)
    if mode == "normalized":
        res_second = abs(2.0 * ffdot - f2r + s_mid.r_avg)
    else:
        res_second = abs(ffdot - 0.5 * f2r)
    return res_first, res_second


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


def _cluster_subspace_overlap(s_a, s_b, members):
    """Smallest principal-angle cosine between two cluster eigenspaces."""
    columns = list(members)
    overlap = mass_gram(s_a.eigenvectors[:, columns],
                        s_b.eigenvectors[:, columns], s_b.mass_diag)
    return float(np.linalg.svd(overlap, compute_uv=False).min())


def variation_report(snapshots, mode):
    """Compare finite-difference and closed-form rates at each interior time.

    Produces one row per eigenvalue cluster per interior time of the
    consecutive ``snapshots`` of a ``mode`` flow; a window that
    ``central_window`` refuses is skipped.  Cluster rows use the mean
    eigenvalue on both sides of the comparison; integrability residuals
    are reported only for simple, well-tracked branches (NaN otherwise).
    Rows whose tracking overlap dropped below the loss threshold at
    either neighbor are marked ``tracking_ok=False``.
    """
    if mode == "normalized":
        rhs_fn = rhs_normalized_surface
    else:
        rhs_fn = rhs_unnormalized_surface

    rows = []
    for window in zip(snapshots, snapshots[1:], snapshots[2:]):
        try:
            s_prev, s_mid, s_next, _ = central_window(window)
        except ValueError:
            continue

        values = s_mid.eigenvalues
        for cluster in eigenvalue_clusters(values):
            members = tuple(cluster)
            is_cluster = len(members) > 1
            fd = finite_difference_rate(window, members)
            rhs = float(np.mean([rhs_fn(s_mid, m) for m in members]))
            if is_cluster:
                # Per-vector overlaps jitter inside a degenerate
                # eigenspace; what tracking preserves is the span.
                tracking_ok = all(
                    _cluster_subspace_overlap(earlier, later, members)
                    >= TRACKING_OVERLAP_FLOOR
                    for earlier, later in ((s_prev, s_mid), (s_mid, s_next))
                )
            else:
                tracking_ok = all(
                    snap.overlaps is None
                    or snap.overlaps[members[0]] >= TRACKING_OVERLAP_FLOOR
                    for snap in (s_mid, s_next)
                )
            res1 = res2 = math.nan
            if not is_cluster and tracking_ok:
                res1, res2 = integrability_residuals(window, mode, members[0])
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
