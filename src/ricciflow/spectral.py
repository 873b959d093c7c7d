"""Generalized Laplace eigensolver and eigenpair tracking.

Solves L f = lambda M f for the smallest eigenvalues of the cotangent
stiffness / lumped mass pencil via shift-inverted Lanczos iteration, and
keeps eigenbranch identities consistent between nearby metrics by
overlap matching.  Both pencils are factored by ``shift_invert``, at
most once per solve, in a nested-dissection order that is computed once
per sparsity pattern.  The bottom pair of the Perelman pencil in
``variation`` comes from ``bottom_pair``: LOBPCG preconditioned by that
pencil's shift-invert operator, with the Lanczos call the Laplace pencil
uses (``lowest_pairs``) as its fallback.

Products of per-vertex eigenvector blocks are elementwise reductions
(``mass_gram``, ``_relative_residuals``), never BLAS calls: a length-V
dot product crosses OpenBLAS's threading threshold on fine meshes, and
waking NumPy's BLAS thread pool right after ARPACK, while SciPy's own
pool still spins, costs far more than the product itself.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as sparse_linalg
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse import csgraph
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    eigsh,
)

# Negative shift keeps L - sigma*M positive definite for every pencil,
# so the shift-invert factorization never hits a singular matrix.
_SIGMA = -1e-2
_V0_SEED = 20170
# Extra pairs requested beyond k, tried in order until the contract holds.
_GUARD_PAIRS = (0, 1, 2)
# Parts this small are not dissected further; they keep vertex order.
_LEAF_SIZE = 12
# Rayleigh-Ritz steps of ``bottom_pair``'s LOBPCG before it falls back
# to Lanczos; the perturbed spheres of perfbench/workloads.json take 3-9.
_LOBPCG_STEPS = 12

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

    ``mass_diag`` is the lumped mass diagonal base_vertex_area * e^u that
    the spectrum was solved with.  The mesh is not carried; it belongs
    to the trajectory.
    """

    t: float
    u: np.ndarray
    eigenpairs: list
    area: float
    r_avg: float
    R: np.ndarray
    mass_diag: np.ndarray
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


def _start_vector(n, seed=_V0_SEED):
    # Fixed pseudo-random start makes repeated solves bit-identical.
    return np.random.default_rng(seed).standard_normal(n)


def solve_spectrum(stiffness, mass, k, tol=DEFAULT_TOL):
    """Compute eigenpairs 0..k of L f = lambda M f, sorted ascending.

    Pair 0 is exactly ``(0.0, c)``, c = 1/sqrt(sum M) the constant with
    unit M-norm; higher indices are M-orthogonal to c, unit M-norm.

    ``L - sigma M`` is factored once (see ``shift_invert``), and every
    attempt reuses that factor with c deflated: right-hand sides are
    projected off M c and solutions M-orthogonally off c.  ARPACK is
    asked for the k + guards nonconstant pairs only.

    The first attempt has no guard pairs.  When its set ends inside a
    degenerate cluster (round spheres, flat tori), the cut pair can come
    back short of the residual contract.  Only then is the pencil solved
    again with one, then two, guard pairs beyond k (the shift-invert
    remedy for clustered spectra in the ARPACK Users' Guide); pairs 0..k
    are kept and checked again.  A guard count is skipped when
    k + 1 + guards would reach V.

    Parameters
    ----------
    stiffness, mass : sparse matrices
        Positive semidefinite stiffness and positive diagonal mass.
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
    if tol < 1e-14:
        raise ValueError("tol below 1e-14 is not achievable in double precision")

    mdiag = np.asarray(mass.diagonal(), dtype=np.float64)
    area = mdiag.sum()
    const = np.full((n, 1), 1.0 / np.sqrt(area))
    factor = shift_invert(stiffness - _SIGMA * mass)

    def deflated_solve(rhs):
        # P (L - sigma M)^-1 P^T rhs, P x = x - c c^T M x, c c^T = 1/area.
        rhs = rhs.reshape(n)
        x = factor.matvec(rhs - mdiag * (np.einsum("i->", rhs) / area))
        return x - np.einsum("i,i->", mdiag, x) / area

    op_inv = LinearOperator((n, n), matvec=deflated_solve, dtype=np.float64)
    misses = []
    for guards in _GUARD_PAIRS:
        if k + 1 + guards >= n:
            break
        vals, block = _solve_once(stiffness, mdiag, op_inv, const, k, guards)
        worst = float(_relative_residuals(stiffness, mdiag, vals, block).max())
        if worst <= tol:
            # Each pair owns its vector: columns viewing one shared block
            # would keep the whole block alive for as long as any pair.
            return [Eigenpair(i, float(lam), block[:, i].copy())
                    for i, lam in enumerate(vals)]
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


def lowest_pairs(pencil, mdiag, sigma, op_inv, nev, seed, what):
    """The ``nev`` eigenpairs of pencil f = lam diag(mdiag) f nearest
    ``sigma``, by shift-invert Lanczos, as ascending ``(vals, vecs)``.

    ``op_inv`` applies (pencil - sigma M)^-1 (see ``shift_invert``); the
    caller builds it, so one factorization serves several calls.  The
    start vector is drawn from ``seed``.  Residuals are not checked
    here.  On non-convergence the ``EigenSolverError`` carries the
    worst relative residual of the pairs ARPACK did converge, or None;
    ``what`` names the pencil in the message.
    """
    n = pencil.shape[0]
    try:
        vals, vecs = eigsh(pencil, k=nev, M=sparse.diags(mdiag), sigma=sigma,
                           OPinv=op_inv, which="LM", v0=_start_vector(n, seed),
                           maxiter=10 * n, tol=0)
    except ArpackNoConvergence as exc:
        best = None
        if exc.eigenvalues is not None and len(exc.eigenvalues):
            best = float(_relative_residuals(pencil, mdiag, exc.eigenvalues,
                                             exc.eigenvectors).max())
        raise EigenSolverError(
            f"{what}: Lanczos iteration did not converge within {10 * n} "
            f"iterations ({exc})", best_residual=best) from exc
    except ArpackError as exc:
        raise EigenSolverError(f"{what}: eigensolver failure: {exc}") from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def bottom_pair(pencil, mdiag, sigma, tol, seed, what):
    """Smallest eigenpair ``(mu, f)`` of pencil f = mu diag(mdiag) f.

    ``pencil`` is symmetric and ``sigma`` lies strictly below its
    spectrum.  The pair comes from ``_lobpcg``, preconditioned by the
    shift-invert operator of ``pencil - sigma M`` (see ``shift_invert``).
    That operator is built only once the constant start vector has
    missed the contract, so a pencil whose bottom eigenvector is the
    constant (zero curvature) is solved without a factorization.  When
    LOBPCG misses, the same operator serves ``lowest_pairs`` with
    ``seed``.  f has unit M-norm, and the pair meets
    ||A f - mu M f|| <= tol * ||M f||; otherwise, or when Lanczos does
    not converge, ``EigenSolverError`` is raised with that relative
    residual (or None) as ``best_residual``; ``what`` names the pencil.
    """
    operator = functools.cache(
        lambda: shift_invert(pencil - sigma * sparse.diags(mdiag)))
    pair = _lobpcg(pencil, mdiag, operator, tol)
    if pair is not None:
        return pair
    vals, vecs = lowest_pairs(pencil, mdiag, sigma, operator(), 1, seed, what)
    worst = float(_relative_residuals(pencil, mdiag, vals, vecs)[0])
    if worst > tol:
        raise EigenSolverError(
            f"{what}: residual {worst:.3e} exceeds tolerance {tol:.1e}",
            best_residual=worst)
    return float(vals[0]), vecs[:, 0]


def _lobpcg(pencil, mdiag, operator, tol):
    """Bottom pair of pencil f = mu diag(mdiag) f by single-vector LOBPCG
    (A. V. Knyazev, SIAM J. Sci. Comput. 23(2), 2001), or None when it
    misses ``tol`` within ``_LOBPCG_STEPS`` steps.

    The iterate x starts as the constant vector, and it is returned with
    unit M-norm and its Rayleigh quotient mu as soon as that pair meets
    the contract; the start is checked before anything is factored.
    Otherwise ``operator()`` gives the preconditioner T, and each step
    is a Rayleigh-Ritz projection onto span{x, T r, p}, with r the
    residual of x and p the previous step's change of x.  mu and r are
    recomputed from ``pencil @ x`` after every step, not updated from
    the projection, so the contract is checked on the pair returned.
    """
    x = np.ones(len(mdiag))
    update = None
    for step in range(_LOBPCG_STEPS + 1):
        x /= np.sqrt(mass_gram(x[:, None], x[:, None], mdiag)[0, 0])
        ax = pencil @ x
        mu = float(np.einsum("i,i->", x, ax))
        if _relative_residuals(pencil, mdiag, np.array([mu]),
                               x[:, None])[0] <= tol:
            return mu, x
        if step == _LOBPCG_STEPS:
            return None
        directions = [x, operator().matvec(ax - mu * (mdiag * x))]
        if update is not None:
            directions.append(update)
        basis = _mass_orthonormal(directions, mdiag)
        gram = np.einsum("ip,iq->pq", basis, pencil @ basis)
        _, coef = eigh(gram, subset_by_index=[0, 0])
        x = np.einsum("ip,p->i", basis, coef[:, 0])
        update = np.einsum("ip,p->i", basis[:, 1:], coef[1:, 0])


def _mass_orthonormal(directions, mdiag):
    """M-orthonormal (V, p) basis of ``directions``, taken in order.

    Each direction is projected off the basis so far by two classical
    Gram-Schmidt passes: one pass leaves the basis orthogonal only up to
    the cancellation in that projection, and a second restores it to
    working precision ("twice is enough").
    """
    basis = np.empty((len(mdiag), 0))
    for v in directions:
        v = v[:, None]
        for _ in range(2):
            v = v - np.einsum("ip,pq->iq", basis, mass_gram(basis, v, mdiag))
        basis = np.hstack([basis, v / np.sqrt(mass_gram(v, v, mdiag))])
    return basis


def _solve_once(stiffness, mdiag, op_inv, const, k, guards):
    """One shift-invert Lanczos solve for k + guards nonconstant pairs.

    Returns ``(vals, block)`` for pairs 0..k: pair 0 is ``(0.0, const)``
    (``const`` the (V, 1) constant column that ``op_inv`` deflates), and
    columns 1..k are normalized as ``solve_spectrum`` documents.
    Residuals are not checked; the guard pairs are dropped.
    """
    vals, vecs = lowest_pairs(stiffness, mdiag, _SIGMA, op_inv, k + guards,
                              _V0_SEED, "Laplace pencil")

    # Columns 1..k are projected M-orthogonal to the constant, scaled to
    # unit M-norm, and signed so that their largest-magnitude entry is
    # positive.
    block = np.asfortranarray(np.hstack([const, vecs[:, :k]]))
    modes = block[:, 1:]
    modes -= const * mass_gram(const, modes, mdiag)
    modes /= np.sqrt(np.diagonal(mass_gram(modes, modes, mdiag)))
    peaks = np.argmax(np.abs(modes), axis=0)
    modes *= np.where(modes[peaks, np.arange(k)] < 0, -1.0, 1.0)
    return np.concatenate([[0.0], vals[:k]]), block


def shift_invert(pencil):
    """Operator b -> pencil^-1 b, for ``eigsh``'s ``OPinv``.

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

    return LinearOperator(pencil.shape, matvec=solve, dtype=np.float64)


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


def rayleigh_quotient(f, stiffness, mass):
    """(f' L f) / (f' M f); rejects vectors with vanishing M-norm."""
    f = np.asarray(f, dtype=np.float64)
    den = float(np.sum(f * (mass @ f)))
    if den <= 1e-300:
        raise ValueError("vector has zero M-norm")
    return float(np.sum(f * (stiffness @ f))) / den


def track(prev, curr_raw, mass_diag):
    """Align freshly solved eigenpairs with a previous snapshot.

    Matches pairs by greedy maximal matching on |<f_prev, M f_curr>|,
    with M the current mass diagonal ``mass_diag``, and flips signs so
    each matched overlap is positive.  The returned list is ordered by
    the previous snapshot's indices, so eigenbranches keep their
    identity through near-degenerate crossings.

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
    overlap = mass_gram(basis_prev, basis_curr, mass_diag)
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


def eigenvalue_clusters(values):
    """Group eigenvalue indices 1.. into near-degenerate clusters.

    Consecutive eigenvalues whose relative gap is below
    ``CLUSTER_REL_GAP`` belong to one cluster.  Index 0 (the constant
    mode) is excluded.
    """
    values = np.asarray(values, dtype=np.float64)
    groups = []
    current = None
    for i in range(1, len(values)):
        if current is None:
            current = [i]
        else:
            lo, hi = values[i - 1], values[i]
            scale = max(abs(lo), abs(hi), 1e-300)
            if (hi - lo) <= CLUSTER_REL_GAP * scale:
                current.append(i)
            else:
                groups.append(current)
                current = [i]
    if current is not None:
        groups.append(current)
    return groups
