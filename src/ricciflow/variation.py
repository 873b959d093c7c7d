"""First-variation checks for Laplace eigenvalues along the flow.

On a surface the eigenvalue rate along the unnormalized flow reduces to
d(lambda)/dt = lambda * int f^2 R dmu; the normalized flow subtracts
r * lambda.  The general dimension-n form
lambda * int f^2 R - int R |grad f|^2 + 2 int Ric(grad f, grad f)
collapses to that surface form through Ric = (R/2) g in 2D, so only the
surface form is evaluated.  This module compares it against finite
differences of the recorded eigenvalue branches, checks the
normalization-derived integrability conditions, and exposes the
curvature-shifted pencil eigenvalue 4L + M diag(R) whose smallest
eigenvalue is nondecreasing along the unnormalized flow.  All of them
read the curvature R and the measure dmu (``mass_diag``) that each
snapshot carries.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .flow import central_window
from .mesh import integrate
from .spectral import (
    DEFAULT_TOL,
    TRACKING_OVERLAP_FLOOR,
    EigenSolverError,
    _relative_residuals,
    eigenvalue_clusters,
    lowest_pairs,
    mass_gram,
    shift_invert,
)

NORMALIZATION_SLACK = 1e-6
_REL_ERROR_FLOOR = 1e-12
_PERELMAN_V0_SEED = 91125


class ClusterGaugeError(ValueError):
    """Eigenfunction derivative undefined inside a degenerate cluster."""


def _require_nonconstant(pair):
    if pair.index < 1:
        raise ValueError("variation formulas apply to nonconstant modes "
                         "(index >= 1)")


def _check_normalization(snapshot, pair):
    norm = integrate(snapshot.mass_diag, pair.f**2)
    if abs(norm - 1.0) > NORMALIZATION_SLACK:
        raise ValueError(
            f"eigenfunction M-norm is {norm:.9f}, off unit by more than "
            f"{NORMALIZATION_SLACK:.0e}"
        )


def rhs_unnormalized_surface(snapshot, pair):
    """Surface eigenvalue rate lambda * int f^2 R dmu (unnormalized flow)."""
    _require_nonconstant(pair)
    _check_normalization(snapshot, pair)
    return pair.lam * integrate(snapshot.mass_diag, pair.f**2 * snapshot.R)


def rhs_normalized_surface(snapshot, pair):
    """Surface eigenvalue rate -r*lambda + lambda * int f^2 R dmu."""
    return rhs_unnormalized_surface(snapshot, pair) - snapshot.r_avg * pair.lam


def finite_difference_rate(traj, t_index, members):
    """Central-difference eigenvalue rate at a recorded interior time.

    ``members`` is a branch index or a cluster of indices; clusters are
    differenced through their mean eigenvalue, which is invariant under
    the arbitrary eigenbasis rotations inside a degenerate eigenspace.
    """
    s_prev, _, s_next, h = central_window(traj, t_index)
    if np.isscalar(members):
        members = (int(members),)
    members = tuple(int(m) for m in members)
    if not members or min(members) < 1:
        raise ValueError("rates are defined for branch indices >= 1")

    lam_prev = np.mean([s_prev.eigenpairs[m].lam for m in members])
    lam_next = np.mean([s_next.eigenpairs[m].lam for m in members])
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


def integrability_residuals(traj, t_index, eigen_index, allow_cluster=False):
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
    s_prev, s_mid, s_next, h = central_window(traj, t_index)
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

    f_mid = s_mid.eigenpairs[eigen_index].f
    if len(members) > 1:
        target = np.column_stack([s_mid.eigenpairs[m].f for m in members])
        sides = []
        for snap in (s_prev, s_next):
            block = np.column_stack([snap.eigenpairs[m].f for m in members])
            sides.append(_procrustes_aligned_block(block, target,
                                                   s_mid.mass_diag))
        col = members.index(eigen_index)
        f_dot = (sides[1][:, col] - sides[0][:, col]) / (2.0 * h)
    else:
        f_dot = (s_next.eigenpairs[eigen_index].f
                 - s_prev.eigenpairs[eigen_index].f) / (2.0 * h)

    mdiag = s_mid.mass_diag
    res_first = abs(integrate(mdiag, f_dot)
                    - integrate(mdiag, f_mid * s_mid.R))
    f2r = integrate(mdiag, f_mid**2 * s_mid.R)
    ffdot = integrate(mdiag, f_mid * f_dot)
    if traj.mode == "normalized":
        res_second = abs(2.0 * ffdot - f2r + s_mid.r_avg)
    else:
        res_second = abs(ffdot - 0.5 * f2r)
    return res_first, res_second


def perelman_lambda(mesh, snapshot, tol=DEFAULT_TOL):
    """Smallest eigenvalue of the pencil (4L + M diag(R)) f = mu M f.

    Discretization of the lowest eigenvalue of -4 Delta + R, which is
    nondecreasing along the unnormalized flow.  R is ``snapshot.R``.
    The pencil is solved through ``spectral.lowest_pairs`` and
    ``spectral.shift_invert``, like the Laplace pencil, whose
    nested-dissection order it reuses.  The pair must meet the same
    contract, ||A f - mu M f|| <= tol * ||M f||; otherwise, or when
    Lanczos does not converge, ``EigenSolverError`` is raised with
    that relative residual (or None) as ``best_residual``.
    """
    mdiag = snapshot.mass_diag
    pencil = 4.0 * mesh.stiffness + sparse.diags(mdiag * snapshot.R)

    # Rayleigh quotient >= min(R), so this shift sits strictly below
    # the whole spectrum and shift-invert targets the bottom eigenvalue.
    sigma = snapshot.R_min - 1.0
    op_inv = shift_invert(pencil - sigma * sparse.diags(mdiag))
    vals, vecs = lowest_pairs(pencil, mdiag, sigma, op_inv, 1,
                              _PERELMAN_V0_SEED, "curvature-shifted pencil")
    worst = float(_relative_residuals(pencil, mdiag, vals, vecs)[0])
    if worst > tol:
        raise EigenSolverError(
            f"curvature-shifted pencil: residual {worst:.3e} exceeds "
            f"tolerance {tol:.1e}", best_residual=worst)
    return float(vals[0])


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

    t_index: int
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
    block_a = np.column_stack([s_a.eigenpairs[m].f for m in members])
    block_b = np.column_stack([s_b.eigenpairs[m].f for m in members])
    overlap = mass_gram(block_a, block_b, s_b.mass_diag)
    return float(np.linalg.svd(overlap, compute_uv=False).min())


def variation_report(traj):
    """Compare finite-difference and closed-form rates at each interior time.

    Produces one row per eigenvalue cluster per interior snapshot.
    Cluster rows use the mean eigenvalue on both sides of the
    comparison; integrability residuals are reported only for simple,
    well-tracked branches (NaN otherwise).  Rows whose tracking overlap
    dropped below the loss threshold at either neighbor are marked
    ``tracking_ok=False``.
    """
    if traj.mode == "normalized":
        rhs_fn = rhs_normalized_surface
    else:
        rhs_fn = rhs_unnormalized_surface

    rows = []
    for t_index in range(1, len(traj.snapshots) - 1):
        try:
            s_prev, s_mid, s_next, _ = central_window(traj, t_index)
        except ValueError:
            continue

        values = s_mid.eigenvalues
        for cluster in eigenvalue_clusters(values):
            members = tuple(cluster)
            is_cluster = len(members) > 1
            fd = finite_difference_rate(traj, t_index, members)
            rhs = float(np.mean([rhs_fn(s_mid, s_mid.eigenpairs[m])
                                 for m in members]))
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
                res1, res2 = integrability_residuals(traj, t_index, members[0])
            rows.append(VariationRow(
                t_index=t_index,
                t=s_mid.t,
                index=members[0],
                members=members,
                is_cluster=is_cluster,
                lam=float(np.mean([values[m] for m in members])),
                fd_rate=fd,
                rhs_rate=rhs,
                rel_error=relative_error(fd, rhs),
                integ_res_1=res1,
                integ_res_2=res2,
                tracking_ok=tracking_ok,
            ))
    return rows
