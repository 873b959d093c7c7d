"""Generalized Laplace eigensolver and eigenpair tracking.

Solves L f = lambda M f for the smallest eigenvalues of the cotangent
stiffness / lumped mass pencil via shift-inverted Lanczos iteration, and
keeps eigenbranch identities consistent between nearby metrics by
overlap matching.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

# Negative shift keeps L - sigma*M positive definite for every pencil,
# so the shift-invert factorization never hits a singular matrix.
_SIGMA = -1e-2
_V0_SEED = 20170
# Extra pairs requested beyond k, tried in order until the contract holds.
_GUARD_PAIRS = (0, 1, 2)

DEFAULT_TOL = 1e-10
CLUSTER_REL_GAP = 1e-6
TRACKING_OVERLAP_FLOOR = 0.5


class EigenSolverError(RuntimeError):
    """Eigensolver failed to converge or missed its residual contract."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass
class Eigenpair:
    """One generalized eigenpair; f is normalized to unit M-norm."""

    index: int
    lam: float
    f: np.ndarray


@dataclass
class SpectrumSnapshot:
    """Spectrum and per-vertex scalar curvature R of one recorded flow time.

    The mesh is not carried; it belongs to the trajectory.
    """

    t: float
    u: np.ndarray
    eigenpairs: list
    area: float
    r_avg: float
    R: np.ndarray
    overlaps: np.ndarray = None
    tracking_warnings: list = field(default_factory=list)

    @property
    def eigenvalues(self):
        return np.array([p.lam for p in self.eigenpairs])

    @property
    def R_min(self):
        return float(self.R.min())

    @property
    def R_max(self):
        return float(self.R.max())


def _start_vector(n):
    # Fixed pseudo-random start makes repeated solves bit-identical and
    # avoids seeding Lanczos with the constant eigenvector.
    return np.random.default_rng(_V0_SEED).standard_normal(n)


def solve_spectrum(stiffness, mass, k, tol=DEFAULT_TOL):
    """Compute eigenpairs 0..k of L f = lambda M f, sorted ascending.

    Index 0 is the constant mode with eigenvalue ~0; it is returned as
    the exact constant with unit M-norm.  Higher indices are projected
    M-orthogonal to constants and normalized to unit M-norm.

    The first attempt asks ARPACK for exactly k + 1 pairs.  When that
    set ends inside a degenerate cluster (round spheres, flat tori),
    the cut pair can come back short of the residual contract.  Only
    then is the pencil solved again with one, then two, guard pairs
    beyond k (the shift-invert remedy for clustered spectra in the
    ARPACK Users' Guide); pairs 0..k are kept and checked again.  A
    guard count is skipped when k + 1 + guards would reach V, since
    ARPACK needs fewer requested pairs than vertices.

    Parameters
    ----------
    stiffness, mass : sparse matrices
        Positive semidefinite stiffness and positive diagonal mass.
    k : int
        Largest eigenpair index; k + 2 <= V is required by the
        underlying Lanczos factorization.
    tol : float
        Residual acceptance threshold: each pair must satisfy
        ||L f - lam M f|| <= tol * ||M f||.  At least 1e-14.

    Raises
    ------
    EigenSolverError
        On non-convergence within the iteration cap, a missing constant
        mode, or when every attempt leaves a residual above ``tol``.
        ``best_residual`` is the smallest worst-pair residual over the
        attempts, or, on non-convergence, the worst residual among the
        pairs ARPACK did converge.
    """
    n = stiffness.shape[0]
    if k < 1 or k + 2 > n:
        raise ValueError(f"need 1 <= k <= V - 2, got k={k} with V={n}")
    if tol < 1e-14:
        raise ValueError("tol below 1e-14 is not achievable in double precision")

    mdiag = np.asarray(mass.diagonal(), dtype=np.float64)
    misses = []
    for guards in _GUARD_PAIRS:
        if k + 1 + guards >= n:
            break
        pairs = _solve_once(stiffness, mass, mdiag, k, guards, tol)
        worst = max(_relative_residual(stiffness, mdiag, p.lam, p.f)
                    for p in pairs)
        if worst <= tol:
            return pairs
        misses.append(worst)
    raise EigenSolverError(
        f"residual {min(misses):.3e} exceeds tolerance {tol:.1e} "
        f"after {len(misses)} attempt(s)",
        best_residual=min(misses),
    )


def _relative_residual(stiffness, mdiag, lam, f):
    """||L f - lam M f|| / ||M f|| for one candidate pair."""
    mf = mdiag * f
    return float(np.linalg.norm(stiffness @ f - lam * mf) / np.linalg.norm(mf))


def _solve_once(stiffness, mass, mdiag, k, guards, tol):
    """One shift-invert Lanczos solve for k + 1 + guards pairs.

    Returns pairs 0..k, normalized as ``solve_spectrum`` documents,
    without checking their residuals; the guard pairs are dropped.
    """
    n = stiffness.shape[0]
    try:
        vals, vecs = eigsh(
            stiffness,
            k=k + 1 + guards,
            M=mass,
            sigma=_SIGMA,
            which="LM",
            v0=_start_vector(n),
            maxiter=10 * n,
            tol=0,
        )
    except ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            best = max(_relative_residual(stiffness, mdiag, lam, f)
                       for lam, f in zip(exc.eigenvalues, exc.eigenvectors.T))
        raise EigenSolverError(
            f"Lanczos iteration did not converge within {10 * n} iterations",
            best_residual=best,
        ) from exc
    except ArpackError as exc:
        raise EigenSolverError(f"eigensolver failure: {exc}") from exc

    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    area = mdiag.sum()

    if vals[0] > tol:
        raise EigenSolverError(
            f"constant mode missing: smallest eigenvalue {vals[0]:.3e} > tol"
        )

    pairs = [Eigenpair(0, float(max(vals[0], 0.0)),
                       np.full(n, 1.0 / np.sqrt(area)))]
    for i in range(1, k + 1):
        f = vecs[:, i].copy()
        f -= (mdiag @ f) / area
        f /= np.sqrt(mdiag @ f**2)
        if f[np.argmax(np.abs(f))] < 0:
            f = -f
        pairs.append(Eigenpair(i, float(vals[i]), f))
    return pairs


def rayleigh_quotient(f, stiffness, mass):
    """(f' L f) / (f' M f); rejects vectors with vanishing M-norm."""
    f = np.asarray(f, dtype=np.float64)
    den = float(f @ (mass @ f))
    if den <= 1e-300:
        raise ValueError("vector has zero M-norm")
    return float(f @ (stiffness @ f)) / den


def track(prev, curr_raw, mass):
    """Align freshly solved eigenpairs with a previous snapshot.

    Matches pairs by greedy maximal matching on |<f_prev, M f_curr>| and
    flips signs so each matched overlap is positive.  The returned list
    is ordered by the previous snapshot's indices, so eigenbranches keep
    their identity through near-degenerate crossings.

    Returns
    -------
    (pairs, overlaps)
        Re-indexed eigenpairs and the matched |overlap| per index.
        Overlaps below ``TRACKING_OVERLAP_FLOOR`` indicate tracking
        loss; callers record a warning but continue.
    """
    if len(prev.eigenpairs) != len(curr_raw):
        raise ValueError("snapshots carry different eigenpair counts")
    n_pairs = len(curr_raw)
    basis_prev = np.column_stack([p.f for p in prev.eigenpairs])
    basis_curr = np.column_stack([p.f for p in curr_raw])
    mdiag = np.asarray(mass.diagonal(), dtype=np.float64)
    overlap = basis_prev.T @ (basis_curr * mdiag[:, None])
    score = np.abs(overlap)

    match = np.full(n_pairs, -1)
    row_used = np.zeros(n_pairs, dtype=bool)
    col_used = np.zeros(n_pairs, dtype=bool)
    matched = 0
    for flat in np.argsort(-score, axis=None, kind="stable"):
        i, j = divmod(int(flat), n_pairs)
        if row_used[i] or col_used[j]:
            continue
        match[i] = j
        row_used[i] = True
        col_used[j] = True
        matched += 1
        if matched == n_pairs:
            break

    pairs = []
    overlaps = np.empty(n_pairs)
    for i in range(n_pairs):
        j = match[i]
        sign = 1.0 if overlap[i, j] >= 0 else -1.0
        pairs.append(Eigenpair(index=i, lam=curr_raw[j].lam,
                               f=sign * curr_raw[j].f))
        overlaps[i] = score[i, j]
    return pairs, overlaps


def eigenvalue_clusters(values, rel_gap=CLUSTER_REL_GAP, first_index=1):
    """Group eigenvalue indices into near-degenerate clusters.

    Consecutive eigenvalues whose relative gap is below ``rel_gap``
    belong to one cluster.  Index 0 (the constant mode) is excluded by
    default.
    """
    values = np.asarray(values, dtype=np.float64)
    groups = []
    current = None
    for i in range(first_index, len(values)):
        if current is None:
            current = [i]
        else:
            lo, hi = values[i - 1], values[i]
            scale = max(abs(lo), abs(hi), 1e-300)
            if (hi - lo) <= rel_gap * scale:
                current.append(i)
            else:
                groups.append(current)
                current = [i]
    if current is not None:
        groups.append(current)
    return groups
