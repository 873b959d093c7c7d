"""Generalized Laplace eigensolver and eigenbranch tracking.

Solves L f = lambda M f for the smallest eigenvalues of the cotangent
stiffness / lumped mass pencil via shift-inverted Lanczos iteration, and
keeps eigenbranch identities consistent between nearby metrics by
overlap matching.  M is passed as its per-vertex diagonal, and a
spectrum is a value array with one eigenvector block, a column per
value; ``flow.SpectrumSnapshot`` keeps one beside the metric it was
solved on.  Both pencils are factored by ``shift_invert``, at most once
per solve, in a nested-dissection order computed once per sparsity
pattern.  As M is diagonal, ARPACK runs in standard mode on one
symmetric operator (``symmetric_inverse``) with the constant mode
deflated; the Perelman pencil 4L + M diag(R) is solved for its bottom
eigenvalue by LOBPCG alone (``perelman_lambda``), preconditioned by
that pencil's factor.

The package's own products of per-vertex eigenvector blocks are
elementwise reductions (``mass_gram``, ``_relative_residuals``), never
BLAS calls: a length-V dot product crosses OpenBLAS's threading
threshold on fine meshes, and waking NumPy's BLAS thread pool right
after ARPACK, while SciPy's own pool still spins, costs far more than
the product itself.  SciPy's LOBPCG internals are outside this rule.
"""

import warnings

import numpy as np
import scipy.sparse.linalg as sparse_linalg
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    eigsh,
    lobpcg,
)

# Negative shift keeps L - sigma*M positive definite for every pencil,
# so the shift-invert factorization never hits a singular matrix.
_SIGMA = -1e-2
_V0_SEED = 20170
# Extra pairs requested beyond k, tried in order until the contract holds.
_GUARD_PAIRS = (0, 1, 2)
# Parts this small are not dissected further; they keep vertex order.
_LEAF_SIZE = 12
# Cap on ``perelman_lambda``'s LOBPCG operator solves: the most that met
# the contract over 279 rough and smooth conformal factors was 776
# (icosphere 5, white noise of amplitude 0.5; the sweep is in CHANGES.md).
_LOBPCG_STEPS = 1000

DEFAULT_TOL = 1e-10
CLUSTER_REL_GAP = 1e-6
TRACKING_OVERLAP_FLOOR = 0.5


class EigenSolverError(RuntimeError):
    """Eigensolver failed to converge or missed its residual contract."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


def _start_vector(n):
    # Fixed pseudo-random start makes repeated solves bit-identical.
    return np.random.default_rng(_V0_SEED).standard_normal(n)


def _check_tol(tol):
    # Written so that a NaN tolerance fails too.
    if not tol >= 1e-14:
        raise ValueError(f"tol must be at least 1e-14 (double precision), "
                         f"got {tol}")


def solve_spectrum(stiffness, mass_diag, k, tol=DEFAULT_TOL):
    """Eigenpairs 0..k of L f = lambda M f, M = diag(mass_diag), ascending.

    Returns ``(eigenvalues, eigenvectors)``: the (k + 1,) values and the
    (V, k + 1) block whose column i belongs to ``eigenvalues[i]``.  Pair
    0 is exactly ``(0.0, c)``, c = 1/sqrt(sum M) the constant with unit
    M-norm; columns 1..k are M-orthogonal to c, of unit M-norm, and
    signed so that their largest-magnitude entry is positive.

    ``L - sigma M`` is factored once (see ``shift_invert``), and every
    attempt reuses that factor through one symmetric operator with c
    deflated (see ``symmetric_inverse``).  ARPACK is asked for the
    k + guards nonconstant pairs only.

    The first attempt has no guard pairs.  When its set ends inside a
    degenerate cluster (round spheres, flat tori), the cut pair can come
    back short of the residual contract.  Only then is the pencil solved
    again with one, then two, guard pairs beyond k (the shift-invert
    remedy for clustered spectra in the ARPACK Users' Guide); pairs 0..k
    are kept and checked again.  A guard count is skipped when
    k + 1 + guards would reach V.

    Parameters
    ----------
    stiffness : sparse matrix
        Positive semidefinite stiffness L.
    mass_diag : (V,) array
        Lumped mass diagonal, finite and positive; anything else raises
        ``ValueError`` before the pencil is factored.
    k : int
        Largest eigenpair index; k + 2 <= V is required by the
        underlying Lanczos factorization.
    tol : float
        Residual acceptance threshold: each pair, pair 0 included, must
        satisfy ||L f - lam M f|| <= tol * ||M f||.  At least 1e-14.

    Raises
    ------
    EigenSolverError
        On non-convergence within the iteration cap, or when every
        attempt leaves a residual above ``tol`` (at pair 0 for a
        stiffness that does not annihilate constants).
        ``best_residual`` is the smallest worst-pair residual over the
        attempts, or, on non-convergence, the worst residual among the
        pairs ARPACK did converge.
    """
    n = stiffness.shape[0]
    if k < 1 or k + 2 > n:
        raise ValueError(f"need 1 <= k <= V - 2, got k={k} with V={n}")
    _check_tol(tol)
    # Written so that NaN and infinite entries fail too.
    if not (isinstance(mass_diag, np.ndarray) and mass_diag.shape == (n,)
            and np.all((mass_diag > 0) & (mass_diag < np.inf))):
        raise ValueError(f"mass_diag must be a finite, positive ({n},) array")
    mdiag = mass_diag
    const = np.full((n, 1), 1.0 / np.sqrt(mdiag.sum()))
    solve = shift_invert(stiffness - _SIGMA * sparse.diags(mdiag))
    operator = symmetric_inverse(solve, mdiag)
    misses = []
    for guards in _GUARD_PAIRS:
        if k + 1 + guards >= n:
            break
        vals, vecs = lowest_pairs(stiffness, mdiag, operator, k + guards)
        vals = np.concatenate([[0.0], vals[:k]])
        block = np.asfortranarray(np.hstack([const, vecs[:, :k]]))
        modes = block[:, 1:]
        # Pairwise column sums; a sequential one leaves ~1e-15 in ~0.
        modes -= const * np.sum(const * mdiag[:, None] * modes, axis=0)
        modes /= np.sqrt(np.diagonal(mass_gram(modes, modes, mdiag)))
        peaks = np.argmax(np.abs(modes), axis=0)
        modes *= np.where(modes[peaks, np.arange(k)] < 0, -1.0, 1.0)
        worst = float(_relative_residuals(stiffness, mdiag, vals, block).max())
        if worst <= tol:
            return vals, block
        misses.append(worst)
    raise EigenSolverError(
        f"residual {min(misses):.3e} exceeds tolerance {tol:.1e} "
        f"after {len(misses)} attempt(s)",
        best_residual=min(misses),
    )


def mass_gram(a, b, mdiag):
    """a^T diag(mdiag) b for per-vertex blocks a (V, p) and b (V, q).

    The M-weighted inner products of eigenvector blocks, summed by
    ``np.einsum`` at its default (unoptimized) setting, which never
    dispatches to BLAS.
    """
    return np.einsum("ip,iq->pq", a, mdiag[:, None] * b)


def _relative_residuals(matrix, mdiag, vals, block):
    """||A f - lam M f|| / ||M f|| for each column f of ``block``.

    One sparse product for the whole block; column norms are reductions.
    """
    mf = mdiag[:, None] * block
    residual = matrix @ block - mf * vals
    return np.sqrt(np.einsum("ip,ip->p", residual, residual)
                   / np.einsum("ip,ip->p", mf, mf))


def symmetric_inverse(solve, mdiag):
    """S = P M^1/2 (L - sigma M)^-1 M^1/2 P, M = diag(mdiag), for
    ``lowest_pairs``, from the ``shift_invert`` solve of L - sigma M.

    With g = M^1/2 f, L f = lam M f is the standard symmetric problem
    S g = theta g, theta = 1 / (lam - sigma) (ARPACK Users' Guide,
    Lehoucq, Sorensen and Yang, SIAM 1998, 4.2).  P = I - q q^T deflates
    the constant mode, q = M^1/2 c for the unit constant c.
    """
    n, root = len(mdiag), np.sqrt(mdiag)
    q = root / np.sqrt(mdiag.sum())

    def project(x):
        return x - q * np.einsum("i,i->", q, x)

    def matvec(x):
        return project(root * solve(root * project(x.reshape(n))))

    return LinearOperator((n, n), matvec=matvec, dtype=np.float64)


def lowest_pairs(stiffness, mdiag, operator, nev):
    """The ``nev`` nonconstant eigenpairs of L f = lam diag(mdiag) f
    nearest ``_SIGMA``, by shift-invert Lanczos, as ascending
    ``(vals, vecs)``.

    ``operator`` is the pencil's ``symmetric_inverse`` S, built by the
    caller so one factorization serves several calls.  ARPACK's largest
    theta of S map back as lam = sigma + 1/theta, f = g / sqrt(mdiag).
    The start vector is sqrt(mdiag) times ``_start_vector``.  Residuals
    are not checked here.  On non-convergence the ``EigenSolverError``
    carries the worst relative residual of the pairs ARPACK did
    converge, or None.
    """
    n, root = stiffness.shape[0], np.sqrt(mdiag)[:, None]
    # tol=0 (machine precision) is load-bearing: the residual contract
    # cannot see a pair that never came back.  On the 48 x 48 torus at
    # u = 0, nev = 8 and tol = 1e-11 return 1, 1, 1, 1, 2, 2, 2, 3.98
    # times lambda_1 (one copy of the 4-fold shell at 2 is missing), with
    # a worst residual of 5.7e-12, inside the 1e-10 contract.
    try:
        theta, g = eigsh(operator, k=nev, which="LA",
                         v0=root[:, 0] * _start_vector(n),
                         maxiter=10 * n, tol=0)
    except ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            best = float(_relative_residuals(
                stiffness, mdiag, _SIGMA + 1.0 / exc.eigenvalues,
                exc.eigenvectors / root).max())
        raise EigenSolverError(
            f"Laplace pencil: Lanczos did not converge within {10 * n} "
            f"iterations ({exc})", best_residual=best) from exc
    except ArpackError as exc:
        raise EigenSolverError(f"Laplace pencil: ARPACK error: {exc}") from exc
    vals = _SIGMA + 1.0 / theta
    order = np.argsort(vals)
    return vals[order], g[:, order] / root


def perelman_lambda(snapshot, tol=DEFAULT_TOL):
    """Smallest eigenvalue mu of the pencil (4L + M diag(R)) f = mu M f.

    Discretization of the lowest eigenvalue of -4 Delta + R, which is
    nondecreasing along the unnormalized flow.  L, R and M are the
    snapshot's own stiffness, curvature and mass diagonal.  The constant
    of unit M-norm is tried first, and its Rayleigh quotient is returned
    when it meets the contract, so a pencil whose bottom eigenvector is
    the constant (zero curvature) is solved without a factorization.
    Otherwise the pencil shifted by R_min - 1 is factored once (see
    ``shift_invert``, which reuses the Laplace pencil's order), and mu
    comes from one call of SciPy's single-vector LOBPCG (A. V. Knyazev,
    SIAM J. Sci. Comput. 23(2), 2001), started from the constant and
    preconditioned by that factor, with at most ``_LOBPCG_STEPS``
    operator solves.  The pair must meet ||A f - mu M f|| <= tol * ||M f||
    for f of unit M-norm; otherwise ``EigenSolverError`` is raised with
    the relative residual of LOBPCG's best iterate as ``best_residual``.
    """
    _check_tol(tol)
    mdiag = snapshot.mass_diag
    pencil = 4.0 * snapshot.mesh.stiffness + sparse.diags(mdiag * snapshot.R)

    def quotient_and_residual(f):
        mu = float(np.einsum("i,i->", f, pencil @ f))
        return mu, float(_relative_residuals(pencil, mdiag, np.array([mu]),
                                             f[:, None])[0])

    f = np.full(len(mdiag), 1.0 / np.sqrt(mdiag.sum()))
    mu, residual = quotient_and_residual(f)
    if residual <= tol:
        return mu
    # Rayleigh quotient >= min(R), so this shift sits strictly below
    # the whole spectrum and the shifted pencil is positive definite.
    solve = shift_invert(pencil - (snapshot.R_min - 1.0) * sparse.diags(mdiag))
    with warnings.catch_warnings():
        # A miss is judged by the contract, not by LOBPCG's warning.
        warnings.simplefilter("ignore", UserWarning)
        # LOBPCG's stopping test is absolute; a unit M-norm f has
        # ||M f|| >= sqrt(min m), so meeting it meets the contract.  SciPy
        # applies the preconditioner at most maxiter + 1 times.
        _, block = lobpcg(pencil, np.ones((len(mdiag), 1)),
                          B=sparse.diags(mdiag), M=solve,
                          tol=tol * np.sqrt(mdiag.min()),
                          largest=False, maxiter=_LOBPCG_STEPS - 1)
    f = block[:, 0] / np.sqrt(mass_gram(block, block, mdiag)[0, 0])
    mu, residual = quotient_and_residual(f)
    if residual > tol:
        raise EigenSolverError(
            f"curvature-shifted pencil: residual {residual:.3e} exceeds "
            f"tolerance {tol:.1e} within {_LOBPCG_STEPS} LOBPCG solves",
            best_residual=residual)
    return mu


def shift_invert(pencil):
    """Solve b -> pencil^-1 b, for a (V,) vector or a (V, p) block.

    ``pencil`` is a symmetric positive definite sparse matrix, already
    shifted.  It is factored once, as P pencil P^T in the nested-dissection
    order of its sparsity pattern with no further column ordering, and
    each application solves x[order] = lu.solve(b[order]).  The order is
    computed at the first factorization of a pattern and kept for the
    next pencil with the same ``indptr`` and ``indices``: connectivity
    never changes along a conformal flow, and the Laplace and Perelman
    pencils share the stiffness pattern.
    """
    global _ORDERING
    pencil = sparse.csr_matrix(pencil)
    pencil.sum_duplicates()
    if _ORDERING is None or not _ORDERING.matches(pencil):
        _ORDERING = _PatternOrdering(pencil)
    order = _ORDERING.order
    # Looked up at call time, so a wrapper installed on scipy's splu after
    # this module is imported (as the benchmark tracer does) sees the call.
    lu = sparse_linalg.splu(_ORDERING.permute(pencil), permc_spec="NATURAL")

    def solve(rhs):
        x = np.empty_like(rhs)
        x[order] = lu.solve(rhs[order])
        return x

    return solve


class _PatternOrdering:
    """Nested-dissection order of one CSR pattern, with the entry map
    that lays a matrix of that pattern out as P A P^T in CSC form."""

    def __init__(self, pattern):
        n = pattern.shape[0]
        self.indptr = pattern.indptr.copy()
        self.indices = pattern.indices.copy()
        self.order = nested_dissection(pattern)
        position = np.empty(n, dtype=self.indices.dtype)
        position[self.order] = np.arange(n)
        rows = position[np.repeat(np.arange(n), np.diff(self.indptr))]
        cols = position[self.indices]
        self.take = np.lexsort((rows, cols))
        self.permuted_indices = rows[self.take]
        self.permuted_indptr = np.zeros(n + 1, dtype=self.indptr.dtype)
        np.cumsum(np.bincount(cols, minlength=n), out=self.permuted_indptr[1:])

    def matches(self, pattern):
        return (np.array_equal(pattern.indptr, self.indptr)
                and np.array_equal(pattern.indices, self.indices))

    def permute(self, matrix):
        return sparse.csc_matrix(
            (matrix.data.take(self.take), self.permuted_indices,
             self.permuted_indptr), shape=matrix.shape)


_ORDERING = None


def nested_dissection(pattern):
    """Fill-reducing elimination order of a symmetric sparsity pattern.

    Graph nested dissection (A. George, SIAM J. Numer. Anal. 10(2),
    1973) with level-set separators: each connected part larger than
    ``_LEAF_SIZE`` is cut at the median breadth-first level from a
    pseudo-peripheral vertex, and what is left is dissected in turn.
    All parts of one depth are cut together, and the parts are found
    again as the connected components left after removing the
    separators, so no vertex coordinates are used.  Deeper parts come
    first and every separator follows the parts it splits.

    Returns ``order``: row and column i of the permuted matrix are row
    and column ``order[i]`` of the original.
    """
    pattern = sparse.csr_matrix(pattern)
    n = pattern.shape[0]
    all_rows = np.repeat(np.arange(n), np.diff(pattern.indptr))
    all_cols = pattern.indices
    depth = np.zeros(n, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    cut = 0
    while live.any():
        cut += 1
        keep = live[all_rows] & live[all_cols]
        graph = sparse.csr_matrix(
            (np.ones(keep.sum()), (all_rows[keep], all_cols[keep])),
            shape=(n, n))
        _, part = csgraph.connected_components(graph, connection="strong")
        small = live & (np.bincount(part)[part] <= _LEAF_SIZE)
        depth[small] = cut
        live &= ~small
        members = np.flatnonzero(live)
        if not len(members):
            break
        level = _peripheral_levels(graph, part[members], members)
        separator = members[level == _group_median(part[members], level)]
        depth[separator] = cut
        live[separator] = False
    return np.argsort(-depth, kind="stable")


def _bfs_levels(graph, roots):
    """Breadth-first level of every vertex below its nearest root."""
    return csgraph.dijkstra(graph, indices=roots, unweighted=True,
                            min_only=True)


def _first_per_group(groups, keys):
    """Index of the smallest ``keys`` entry in each group (ties: first)."""
    order = np.lexsort((keys, groups))
    _, first = np.unique(groups[order], return_index=True)
    return order[first]


def _group_max(groups, values):
    """Largest ``values`` entry of each group, indexed by group id."""
    top = np.full(groups.max() + 1, -np.inf)
    np.maximum.at(top, groups, values)
    return top


def _group_median(groups, values):
    """Per member, the median value of its group (upper median)."""
    order = np.lexsort((values, groups))
    ids, first, count = np.unique(groups[order], return_index=True,
                                  return_counts=True)
    median = np.zeros(groups.max() + 1)
    median[ids] = values[order][first + count // 2]
    return median[groups]


def _peripheral_levels(graph, groups, members):
    """Breadth-first levels of ``members`` in each group (a connected part
    of ``graph``) from a pseudo-peripheral vertex of that group.

    George and Liu's search: start at a vertex of least degree and move
    to a least-degree vertex of the last level while that lengthens the
    level structure.
    """
    degree = np.diff(graph.indptr)[members]
    roots = members[_first_per_group(groups, degree)]
    level = _bfs_levels(graph, roots)[members]
    while True:
        far = _group_max(groups, level)
        at_far = np.flatnonzero(level == far[groups])
        roots = members[at_far[_first_per_group(groups[at_far],
                                                degree[at_far])]]
        candidate = _bfs_levels(graph, roots)[members]
        longer = _group_max(groups, candidate) > far
        if not longer.any():
            return level
        take = longer[groups]
        level[take] = candidate[take]


def rayleigh_quotient(f, stiffness, mass_diag):
    """(f' L f) / (f' M f), M = diag(mass_diag); rejects zero M-norm."""
    f = np.asarray(f, dtype=np.float64)
    den = float(np.sum(f * (mass_diag * f)))
    if den <= 1e-300:
        raise ValueError("vector has zero M-norm")
    return float(np.sum(f * (stiffness @ f))) / den


def track(prev_vectors, values, vectors, mass_diag):
    """Align a freshly solved spectrum with the previous snapshot's block.

    Matches the columns of ``vectors`` to those of ``prev_vectors`` by
    greedy maximal matching on |<f_prev, M f_curr>|, with M the current
    mass diagonal ``mass_diag``, and flips signs so each matched overlap
    is positive.  The result is ordered by the previous snapshot's
    columns, so eigenbranches keep their identity through
    near-degenerate crossings.

    Returns
    -------
    (values, vectors, overlaps)
        The re-indexed eigenvalues and sign-aligned eigenvector block,
        and the matched |overlap| per index.  Overlaps below
        ``TRACKING_OVERLAP_FLOOR`` indicate tracking loss; callers
        record a warning but continue.
    """
    if prev_vectors.shape != vectors.shape:
        raise ValueError("snapshots carry different eigenpair counts")
    n_pairs = vectors.shape[1]
    overlap = mass_gram(prev_vectors, vectors, mass_diag)
    score = np.abs(overlap)

    match = np.full(n_pairs, -1)
    col_used = np.zeros(n_pairs, dtype=bool)
    for flat in np.argsort(-score, axis=None, kind="stable"):
        i, j = divmod(int(flat), n_pairs)
        if match[i] < 0 and not col_used[j]:
            match[i] = j
            col_used[j] = True

    rows = np.arange(n_pairs)
    signs = np.where(overlap[rows, match] >= 0, 1.0, -1.0)
    return values[match], vectors[:, match] * signs, score[rows, match]


def eigenvalue_clusters(values):
    """Group eigenvalue indices 1.. into near-degenerate clusters.

    Sorted stably, consecutive eigenvalues whose relative gap is below
    ``CLUSTER_REL_GAP`` belong to one cluster, so ``values`` may come in
    tracked order, which leaves sorted order once two branches cross.
    Clusters list their indices in increasing order and come in order of
    their smallest index.  Index 0 (the constant mode) is excluded.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values[1:], kind="stable") + 1
    lo, hi = values[order[:-1]], values[order[1:]]
    scale = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1e-300)
    starts = np.flatnonzero(~(hi - lo <= CLUSTER_REL_GAP * scale)) + 1
    groups = np.split(order, starts) if len(order) else []
    return sorted(sorted(group.tolist()) for group in groups)
