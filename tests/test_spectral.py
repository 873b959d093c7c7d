import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigh
from scipy.sparse import diags, identity
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from scipy.sparse.linalg import norm as sparse_norm

import ricciflow.spectral as spectral
import ricciflow.variation as variation
from ricciflow.cli import conformal_bump
from ricciflow.config import PerturbationSpec
from ricciflow.mesh import (
    Mesh,
    build_flat_torus,
    build_icosphere,
    scalar_curvature,
    total_area,
)
from ricciflow.modelspaces import exact_spectrum, flat_torus, round_sphere
from ricciflow.spectral import (
    EigenSolverError,
    SpectrumSnapshot,
    eigenvalue_clusters,
    rayleigh_quotient,
    solve_spectrum,
    track,
)
from ricciflow.variation import perelman_lambda


def sphere_pencil(subdivisions=3, radius=1.0):
    mesh = build_icosphere(subdivisions, radius)
    return mesh, mesh.stiffness, mesh.base_vertex_area


def snapshot_from_spectrum(mesh, values, vectors, u=None):
    u = np.zeros(mesh.n_vertices) if u is None else u
    return SpectrumSnapshot(
        t=0.0, u=u, eigenvalues=values, eigenvectors=vectors,
        area=total_area(mesh, u), r_avg=0.0, R=np.zeros(mesh.n_vertices),
        mass_diag=mesh.base_vertex_area * np.exp(u),
    )


# ---------------------------------------------------------------------------
# solve_spectrum against exact spectra


def test_sphere_spectrum_first_shells():
    oracle = exact_spectrum(round_sphere(2, 1.0), 3)
    lam1_exact = oracle.entries[1][0]   # 2, multiplicity 3
    lam4_exact = oracle.entries[2][0]   # 6, multiplicity 5
    mesh, stiffness, mdiag = sphere_pencil(3)
    vals, _ = solve_spectrum(stiffness, mdiag, k=4)
    for lam in vals[1:4]:
        assert abs(lam - lam1_exact) < 0.01 * lam1_exact
    assert abs(vals[4] - lam4_exact) < 0.02 * lam4_exact


def test_torus_spectrum_first_shell():
    oracle = exact_spectrum(flat_torus(np.eye(2)), 2)
    lam1_exact = oracle.entries[1][0]   # 4 pi^2, multiplicity 4
    mesh = build_flat_torus(32, 32, 1.0, 1.0)
    vals, _ = solve_spectrum(mesh.stiffness, mesh.base_vertex_area, k=3)
    assert abs(vals[1] - lam1_exact) < 0.01 * lam1_exact
    # First dual-lattice shell: the discrete multiplicity survives.
    assert abs(vals[2] - vals[1]) < 1e-9 * lam1_exact
    assert abs(vals[3] - vals[1]) < 1e-9 * lam1_exact


def test_constant_mode():
    mesh, stiffness, mdiag = sphere_pencil(2)
    vals, vecs = solve_spectrum(stiffness, mdiag, k=1)
    assert vals.shape == (2,) and vecs.shape == (mesh.n_vertices, 2)
    assert vals[0] <= 1e-10
    area = total_area(mesh, np.zeros(mesh.n_vertices))
    assert_allclose(vecs[:, 0], 1.0 / math.sqrt(area), rtol=1e-12)


def test_eigenvalues_nondecreasing():
    _, stiffness, mdiag = sphere_pencil(2)
    values, _ = solve_spectrum(stiffness, mdiag, k=8)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_eigenpair_normalization_contract():
    mesh, stiffness, mdiag = sphere_pencil(2)
    _, vecs = solve_spectrum(stiffness, mdiag, k=5)
    for f in vecs[:, 1:].T:
        assert abs(mdiag @ f - 0.0) < 1e-8          # int f dmu = 0
        assert abs(mdiag @ f**2 - 1.0) < 1e-8       # int f^2 dmu = 1


def test_residual_contract():
    _, stiffness, mdiag = sphere_pencil(2)
    vals, vecs = solve_spectrum(stiffness, mdiag, k=5, tol=1e-10)
    for lam, f in zip(vals, vecs.T):
        mf = mdiag * f
        residual = np.linalg.norm(stiffness @ f - lam * mf)
        assert residual <= 1e-10 * np.linalg.norm(mf)


def test_gram_matrix_is_identity():
    _, stiffness, mdiag = sphere_pencil(2)
    _, basis = solve_spectrum(stiffness, mdiag, k=6)
    gram = basis.T @ (mdiag[:, None] * basis)
    assert np.max(np.abs(gram - np.eye(7))) < 1e-8


def test_solver_is_deterministic():
    _, stiffness, mdiag = sphere_pencil(2)
    first = solve_spectrum(stiffness, mdiag, k=4)
    second = solve_spectrum(stiffness, mdiag, k=4)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_mass_scaling_law():
    # Replacing M by c*M divides every nonzero eigenvalue by c.
    _, stiffness, mdiag = sphere_pencil(2)
    c = 2.5
    base, _ = solve_spectrum(stiffness, mdiag, k=4)
    scaled, _ = solve_spectrum(stiffness, c * mdiag, k=4)
    for lo, hi in zip(base[1:], scaled[1:]):
        assert_allclose(hi, lo / c, rtol=1e-9)


def relative_residual(stiffness, mdiag, lam, f):
    mf = mdiag * f
    return np.linalg.norm(stiffness @ f - lam * mf) / np.linalg.norm(mf)


def test_cut_clusters_meet_residual_contract():
    # Each of these calls asks for a pair set that ends inside the 3- or
    # 5-fold icosphere cluster or the 4-fold torus cluster.  ARPACK
    # misses the contract on a first solve for ico2 (c, k) = (0.3, 1),
    # (0.7, 5), (2.5, 4), (2.5, 6) and torus (0.7, 6); the guard-pair
    # retry must recover every one of them.
    torus = build_flat_torus(16, 16, 1.0, 1.0)
    ico = build_icosphere(2, 1.0)
    cases = [(ico, c, k) for c in (0.3, 0.7, 1.0, 2.5) for k in range(1, 10)]
    cases += [(torus, 0.7, k) for k in range(1, 9)]
    misses = []
    for mesh, c, k in cases:
        mdiag = c * mesh.base_vertex_area
        vals, vecs = solve_spectrum(mesh.stiffness, mdiag, k=k, tol=1e-10)
        assert vals.shape == (k + 1,) and vecs.shape[1] == k + 1
        worst = max(relative_residual(mesh.stiffness, mdiag, lam, f)
                    for lam, f in zip(vals, vecs.T))
        if worst > 1e-10:
            misses.append((mesh.n_vertices, c, k, worst))
    assert misses == []


@pytest.mark.parametrize("k, attempts", [(3, 3), (61, 2), (62, 1)])
def test_unreachable_tol_reports_relative_residual(k, attempts):
    # 64 vertices: guard pairs that would request V pairs are skipped.
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    with pytest.raises(EigenSolverError,
                       match=f"exceeds tolerance .* after {attempts} attempt"
                       ) as info:
        solve_spectrum(mesh.stiffness, mesh.base_vertex_area, k=k, tol=1e-14)
    best = info.value.best_residual
    assert math.isfinite(best)
    assert 1e-14 < best < 1e-8


def test_no_convergence_reports_converged_pair_residuals(monkeypatch):
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    mdiag = mesh.base_vertex_area
    vals, vecs = spectral.eigsh(mesh.stiffness, k=3, M=diags(mdiag),
                                sigma=-1e-2)
    # Mix the constant mode into the second converged vector so that its
    # residual is the worst, and far from any eigenvalue.
    vecs[:, 1] += 1e-3 * vecs[:, 0]
    expected = max(relative_residual(mesh.stiffness, mdiag, lam, f)
                   for lam, f in zip(vals, vecs.T))

    def no_convergence(*args, **kwargs):
        # The same pairs as ARPACK's standard form sees them:
        # theta = 1 / (lam - sigma) and g = M^1/2 f.
        raise ArpackNoConvergence("no convergence", 1.0 / (vals + 1e-2),
                                  np.sqrt(mdiag)[:, None] * vecs)

    monkeypatch.setattr(spectral, "eigsh", no_convergence)
    with pytest.raises(EigenSolverError, match="did not converge") as info:
        solve_spectrum(mesh.stiffness, mdiag, k=3)
    assert_allclose(info.value.best_residual, expected, rtol=1e-12)
    assert info.value.best_residual > 1e-6    # not min |eigenvalue| ~ 0

    def nothing_converged(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0),
                                  np.zeros((mesh.n_vertices, 0)))

    monkeypatch.setattr(spectral, "eigsh", nothing_converged)
    with pytest.raises(EigenSolverError) as info:
        solve_spectrum(mesh.stiffness, mdiag, k=3)
    assert info.value.best_residual is None


def test_shifted_stiffness_misses_the_contract_at_the_constant_mode():
    # A shifted stiffness does not annihilate constants, so the exact
    # constant pair 0 misses the residual contract like any other pair
    # would, and the error carries that residual.
    mesh, stiffness, mdiag = sphere_pencil(1)
    shifted = stiffness + identity(stiffness.shape[0], format="csr")
    with pytest.raises(EigenSolverError,
                       match="exceeds tolerance .* after 3 attempt") as info:
        solve_spectrum(shifted, mdiag, k=2)
    const = np.full(mesh.n_vertices, 1.0 / math.sqrt(mdiag.sum()))
    assert_allclose(info.value.best_residual,
                    relative_residual(shifted, mdiag, 0.0, const), rtol=1e-12)


SMALL_CLOSED_MESHES = pytest.mark.parametrize(
    "mesh", [build_icosphere(2, 1.0), build_flat_torus(8, 8, 1.0, 1.0)],
    ids=["ico2", "torus8"])


@SMALL_CLOSED_MESHES
def test_constant_pair_is_exact(mesh):
    mdiag = mesh.base_vertex_area
    vals, vecs = solve_spectrum(mesh.stiffness, mdiag, k=4)
    assert vals[0] == 0.0
    assert np.all(vecs[:, 0] == 1.0 / np.sqrt(mdiag.sum()))


@SMALL_CLOSED_MESHES
def test_lanczos_sees_only_the_deflated_operator(mesh, monkeypatch):
    # Each attempt asks ARPACK for k + guards pairs, none of them the
    # constant, through an operator whose range, mapped back by
    # f = g / sqrt(m), is M-orthogonal to it.
    k = 4
    mdiag = mesh.base_vertex_area
    const = np.full(mesh.n_vertices, 1.0 / math.sqrt(mdiag.sum()))
    real_eigsh = spectral.eigsh
    requested, operators = [], []

    def first_attempts_miss(*args, **kwargs):
        requested.append(kwargs["k"])
        operators.append(args[0])
        vals, vecs = real_eigsh(*args, **kwargs)
        if len(requested) < len(spectral._GUARD_PAIRS):
            # The smallest eigenvalue is the largest theta.
            noise = np.random.default_rng(0).standard_normal(len(vecs))
            vecs[:, np.argmax(vals)] += 1e-3 * noise
        return vals, vecs

    monkeypatch.setattr(spectral, "eigsh", first_attempts_miss)
    vals, vecs = solve_spectrum(mesh.stiffness, mdiag, k=k)
    assert vals.shape == (k + 1,) and vecs.shape[1] == k + 1
    assert requested == [k + guards for guards in spectral._GUARD_PAIRS]
    rhs = np.random.default_rng(1).standard_normal((mesh.n_vertices, 3))
    for op in operators:
        for b in rhs.T:
            x = op.matvec(b) / np.sqrt(mdiag)
            assert abs(mdiag @ (const * x)) <= 1e-14 * math.sqrt(mdiag @ x**2)


def test_guard_retries_reuse_one_factorization(monkeypatch):
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    real_eigsh, real_splu = spectral.eigsh, spectral.sparse_linalg.splu
    operators, factorizations = [], []

    def first_attempt_misses(*args, **kwargs):
        operators.append(args[0])
        vals, vecs = real_eigsh(*args, **kwargs)
        if len(operators) == 1:
            # The largest eigenvalue is the smallest theta = 1/(lam - sigma).
            noise = np.random.default_rng(0).standard_normal(len(vecs))
            vecs[:, np.argmin(vals)] += 1e-3 * noise
        return vals, vecs

    def counting_splu(*args, **kwargs):
        factorizations.append(args[0].shape)
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", first_attempt_misses)
    monkeypatch.setattr(spectral.sparse_linalg, "splu", counting_splu)
    vals, _ = solve_spectrum(mesh.stiffness, mesh.base_vertex_area, k=3)
    assert len(operators) == 2              # the first attempt was retried
    assert operators[0] is operators[1]
    assert factorizations == [(64, 64)]
    assert len(vals) == 4


def test_both_pencils_share_one_ordering(monkeypatch):
    mesh = build_icosphere(2, 1.0)
    real = spectral.nested_dissection
    calls = []

    def counting(pattern):
        calls.append(pattern.shape)
        return real(pattern)

    monkeypatch.setattr(spectral, "_ORDERING", None)
    monkeypatch.setattr(spectral, "nested_dissection", counting)
    rng = np.random.default_rng(3)
    for _ in range(3):
        u = 0.2 * rng.standard_normal(mesh.n_vertices)
        vals, vecs = solve_spectrum(mesh.stiffness,
                                    mesh.base_vertex_area * np.exp(u), k=4)
        snap = snapshot_from_spectrum(mesh, vals, vecs, u)
        snap.R = 1.0 + rng.standard_normal(mesh.n_vertices)
        perelman_lambda(mesh, snap)
    assert calls == [(mesh.n_vertices, mesh.n_vertices)]


def jittered_icosphere(subdivisions, seed):
    base = build_icosphere(subdivisions, 1.0)
    rng = np.random.default_rng(seed)
    spacing = base.corner_lengths.mean()
    return Mesh(base.vertices
                + 0.2 * spacing * rng.standard_normal(base.vertices.shape),
                base.faces)


def two_spheres(subdivisions):
    one = build_icosphere(subdivisions, 1.0)
    return Mesh(np.vstack([one.vertices, one.vertices + 3.0]),
                np.vstack([one.faces, one.faces + one.n_vertices]))


CONNECTED_MESHES = st.one_of(
    st.builds(build_icosphere, st.integers(0, 3), st.just(1.0)),
    st.builds(build_flat_torus, st.integers(3, 20), st.integers(3, 20),
              st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    st.builds(jittered_icosphere, st.integers(1, 2), st.integers(0, 2**32 - 1)),
)
ORDERING_MESHES = st.one_of(CONNECTED_MESHES,
                            st.builds(two_spheres, st.integers(0, 2)))


@given(mesh=ORDERING_MESHES, k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_nested_dissection_operator_properties(mesh, k, seed):
    n = mesh.n_vertices
    rng = np.random.default_rng(seed)
    mdiag = mesh.base_vertex_area * np.exp(0.3 * rng.standard_normal(n))
    pencil = (mesh.stiffness - spectral._SIGMA * diags(mdiag)).tocsr()

    order = spectral.nested_dissection(pencil)
    assert np.array_equal(np.sort(order), np.arange(n))

    # Normwise backward error of the solve.  A plain ||Ax - b|| <= 1e-12 ||b||
    # is out of reach for any LU once cond(pencil) passes ~1e4, as it does
    # on thin tori.
    b = rng.standard_normal(n)
    x = spectral.shift_invert(pencil)(b)
    scale = sparse_norm(pencil) * np.linalg.norm(x) + np.linalg.norm(b)
    assert np.linalg.norm(pencil @ x - b) <= 1e-12 * scale

    # Reference: scipy's own shift-invert path (COLAMD-ordered splu),
    # with two guard pairs so a cut cluster cannot spoil it.
    ref = np.sort(eigsh(mesh.stiffness, k=min(k + 3, n - 1), M=diags(mdiag),
                        sigma=spectral._SIGMA, which="LM",
                        v0=spectral._start_vector(n), tol=0,
                        maxiter=10 * n)[0])
    got, _ = solve_spectrum(mesh.stiffness, mdiag, k)
    # Zero eigenvalues (one per component) compare on the spectrum's scale.
    assert_allclose(got[1:], ref[1:k + 1], rtol=1e-12, atol=1e-12 * ref[-1])


@given(mesh=CONNECTED_MESHES, p=st.integers(1, 8), q=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_mass_gram_matches_dense_reference(mesh, p, q, seed):
    n = mesh.n_vertices
    rng = np.random.default_rng(seed)
    mdiag = mesh.base_vertex_area * np.exp(0.3 * rng.standard_normal(n))
    a = rng.standard_normal((n, p))
    b = rng.standard_normal((n, q))
    reference = a.T @ np.diag(mdiag) @ b
    # Relative to the magnitude summed in each entry, so entries that
    # cancel to near zero are held to the same standard.
    scale = np.abs(a).T @ np.diag(mdiag) @ np.abs(b)
    gram = spectral.mass_gram(a, b, mdiag)
    assert gram.shape == (p, q)
    assert np.all(np.abs(gram - reference) <= 1e-13 * scale)


@given(mesh=CONNECTED_MESHES, k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_block_normalization_and_residuals(mesh, k, seed):
    n = mesh.n_vertices
    k = min(k, n - 2)
    rng = np.random.default_rng(seed)
    mdiag = mesh.base_vertex_area * np.exp(0.3 * rng.standard_normal(n))
    real_eigsh = spectral.eigsh

    def contaminated(*args, **kwargs):
        # Constant offsets, scales and signs that the block normalization
        # must remove; the offsets alone break the residual contract.
        # Lanczos works on g = M^1/2 f, so a constant offset of f is an
        # offset along sqrt(m) there.
        vals, vecs = real_eigsh(*args, **kwargs)
        m = vecs.shape[1]
        offsets = np.sqrt(mdiag)[:, None] * rng.uniform(-1.0, 1.0, m)
        return vals, ((vecs + offsets)
                      * rng.uniform(0.5, 3.0, m) * rng.choice([-1.0, 1.0], m))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "eigsh", contaminated)
        solved = solve_spectrum(mesh.stiffness, mdiag, k)
    area = mdiag.sum()
    for f in solved[1].T:
        assert f[np.argmax(np.abs(f))] > 0
        assert abs(mdiag @ f**2 - 1.0) <= 1e-12
    for f in solved[1][:, 1:].T:
        assert abs(mdiag @ f) <= 1e-12 * math.sqrt(area)

    # Per-column reference norms, on the solved pairs and on a random
    # block far from any eigenpair.
    for vals, block in (
            solved,
            (rng.standard_normal(k + 1), rng.standard_normal((n, k + 1)))):
        reference = [relative_residual(mesh.stiffness, mdiag, lam, f)
                     for lam, f in zip(vals, block.T)]
        got = spectral._relative_residuals(mesh.stiffness, mdiag, vals, block)
        assert_allclose(got, reference, rtol=1e-13)


@given(mesh=CONNECTED_MESHES, k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_symmetric_inverse_is_the_standard_form_of_the_pencil(mesh, k, seed):
    n = mesh.n_vertices
    k = min(k, n - 2)
    rng = np.random.default_rng(seed)
    mdiag = mesh.base_vertex_area * np.exp(0.3 * rng.standard_normal(n))
    solve = spectral.shift_invert(mesh.stiffness
                                  - spectral._SIGMA * diags(mdiag))
    plain = spectral.symmetric_inverse(solve, mdiag)
    deflated = spectral.symmetric_inverse(solve, mdiag, deflate=True)

    x, y = rng.standard_normal((2, n))
    for op in (plain, deflated):
        sx, sy = op.matvec(x), op.matvec(y)
        assert abs(x @ sy - y @ sx) <= 1e-12 * abs(x) @ abs(sy)

    q = np.sqrt(mdiag) / np.sqrt(mdiag.sum())
    assert (np.linalg.norm(deflated.matvec(q))
            <= 1e-12 * np.linalg.norm(plain.matvec(q)))

    vals, _ = spectral.lowest_pairs(mesh.stiffness, mdiag, spectral._SIGMA,
                                    deflated, k, spectral._V0_SEED, "test")
    reference = eigh(mesh.stiffness.toarray(), np.diag(mdiag),
                     eigvals_only=True)
    assert_allclose(vals, reference[1:k + 1], rtol=1e-10)


def test_solve_spectrum_input_guards():
    _, stiffness, mdiag = sphere_pencil(0)
    with pytest.raises(ValueError, match="k"):
        solve_spectrum(stiffness, mdiag, k=0)
    with pytest.raises(ValueError, match="k"):
        solve_spectrum(stiffness, mdiag, k=11)
    with pytest.raises(ValueError, match="tol"):
        solve_spectrum(stiffness, mdiag, k=1, tol=1e-15)


BAD_MASS_DIAGONALS = {
    # The call form that passed the whole sparse mass matrix.
    "sparse_matrix": lambda mdiag: diags(mdiag),
    "wrong_length": lambda mdiag: mdiag[:-1],
    "zero_entry": lambda mdiag: np.where(np.arange(len(mdiag)) == 3, 0.0,
                                         mdiag),
    "nan_entry": lambda mdiag: np.where(np.arange(len(mdiag)) == 3, np.nan,
                                        mdiag),
}


@pytest.mark.parametrize("case", sorted(BAD_MASS_DIAGONALS))
def test_solve_spectrum_rejects_bad_mass_diag_before_factoring(case,
                                                               monkeypatch):
    _, stiffness, mdiag = sphere_pencil(1)
    counts = counted_lu(monkeypatch)
    with pytest.raises(ValueError, match="mass_diag"):
        solve_spectrum(stiffness, BAD_MASS_DIAGONALS[case](mdiag), k=2)
    assert counts == {"factorizations": 0, "solves": 0}


# ---------------------------------------------------------------------------
# Perelman pencil 4L + M diag(R): LOBPCG, with Lanczos as its fallback


def curvature_snapshot(mesh, u):
    snap = snapshot_from_spectrum(mesh, np.zeros(0),
                                  np.zeros((mesh.n_vertices, 0)), u)
    snap.R = scalar_curvature(mesh, u)
    return snap


def missed_lobpcg(pencil, start, **kwargs):
    """Stand-in for SciPy's lobpcg: a column that misses the contract."""
    return np.zeros(1), np.random.default_rng(0).standard_normal(start.shape)


PERELMAN_MESHES = st.one_of(
    st.builds(build_icosphere, st.integers(0, 2), st.just(1.0)),
    st.builds(build_flat_torus, st.integers(3, 12), st.integers(3, 12),
              st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    st.builds(jittered_icosphere, st.integers(1, 2), st.integers(0, 2**32 - 1)),
)


@example(mesh=build_flat_torus(6, 6, 1.0, 1.0), amplitude=0.0, seed=0)
@given(mesh=PERELMAN_MESHES, amplitude=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_perelman_lambda_is_the_checked_bottom_of_the_pencil(mesh, amplitude,
                                                             seed):
    u = amplitude * np.random.default_rng(seed).standard_normal(mesh.n_vertices)
    snap = curvature_snapshot(mesh, u)
    mdiag, R = snap.mass_diag, snap.R
    pencil = 4.0 * mesh.stiffness + diags(mdiag * R)
    real_bottom_pair = variation.bottom_pair
    solved = []

    def recording(*args, **kwargs):
        solved.append(real_bottom_pair(*args, **kwargs))
        return solved[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(variation, "bottom_pair", recording)
        mu = perelman_lambda(mesh, snap)

    reference = eigh(pencil.toarray(), np.diag(mdiag), eigvals_only=True,
                     subset_by_index=[0, 0])[0]
    # On a flat torus at u = 0, R is 0 and so is mu; its roundoff is on
    # the scale of the pencil, not of R.
    assert_allclose(mu, reference, rtol=1e-10,
                    atol=1e-10 * max(np.abs(R).max(), 1.0))
    (recorded, f), = solved
    assert mu == recorded
    assert (np.linalg.norm(pencil @ f - mu * mdiag * f)
            <= spectral.DEFAULT_TOL * np.linalg.norm(mdiag * f))


def test_perelman_residual_miss_is_an_error():
    mesh = build_icosphere(2, 1.0)
    snap = curvature_snapshot(mesh, 0.2 * np.random.default_rng(5)
                              .standard_normal(mesh.n_vertices))
    real_eigsh = spectral.eigsh

    def perturbed(*args, **kwargs):
        vals, vecs = real_eigsh(*args, **kwargs)
        return vals, vecs + 1e-4 * np.random.default_rng(0).standard_normal(
            vecs.shape)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "lobpcg", missed_lobpcg)
        patch.setattr(spectral, "eigsh", perturbed)
        with pytest.raises(EigenSolverError, match="^curvature-shifted pencil"
                           ".*exceeds tolerance") as info:
            perelman_lambda(mesh, snap)
    best = info.value.best_residual
    assert isinstance(best, float)
    assert best > spectral.DEFAULT_TOL


def counted_lu(monkeypatch):
    """Patch splu to record factorizations and the solves of each factor."""
    real_splu = spectral.sparse_linalg.splu
    counts = {"factorizations": 0, "solves": 0}

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            counts["solves"] += 1
            return self.lu.solve(rhs)

    def counting_splu(*args, **kwargs):
        counts["factorizations"] += 1
        return CountingLU(real_splu(*args, **kwargs))

    monkeypatch.setattr(spectral.sparse_linalg, "splu", counting_splu)
    return counts


@pytest.mark.parametrize("mesh", [build_flat_torus(6, 6, 1.0, 1.0),
                                  build_flat_torus(8, 12, 0.7, 1.9),
                                  build_flat_torus(5, 17, 2.0, 0.5),
                                  build_flat_torus(48, 48, 1.0, 1.0)])
def test_flat_torus_perelman_needs_no_factorization(mesh, monkeypatch):
    counts = counted_lu(monkeypatch)
    mu = perelman_lambda(mesh, curvature_snapshot(mesh, np.zeros(
        mesh.n_vertices)))
    assert abs(mu) <= 1e-10
    assert counts == {"factorizations": 0, "solves": 0}


@pytest.mark.parametrize("amplitude", [0.1, 0.3])
@pytest.mark.parametrize("seed", [0, 7, 1009])
def test_smooth_bump_perelman_takes_few_solves(amplitude, seed, monkeypatch):
    mesh = build_icosphere(3, 1.0)
    snap = curvature_snapshot(mesh, conformal_bump(
        mesh, PerturbationSpec(amplitude=amplitude, mode=2, seed=seed)))
    counts = counted_lu(monkeypatch)
    mu = perelman_lambda(mesh, snap)
    assert counts["factorizations"] == 1
    assert counts["solves"] <= 8

    monkeypatch.setattr(spectral, "lobpcg", missed_lobpcg)
    assert_allclose(mu, perelman_lambda(mesh, snap), rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(6))
def test_rough_perelman_shares_one_factor_with_its_fallback(seed,
                                                            monkeypatch):
    # White-noise u: LOBPCG misses, and Lanczos reuses its factor.
    mesh = build_icosphere(2, 1.0)
    snap = curvature_snapshot(mesh, 0.2 * np.random.default_rng(seed)
                              .standard_normal(mesh.n_vertices))
    counts = counted_lu(monkeypatch)
    mu = perelman_lambda(mesh, snap)
    assert counts["factorizations"] == 1
    pencil = 4.0 * mesh.stiffness + diags(snap.mass_diag * snap.R)
    reference = eigh(pencil.toarray(), np.diag(snap.mass_diag),
                     eigvals_only=True, subset_by_index=[0, 0])[0]
    assert_allclose(mu, reference, rtol=1e-10)

    solves = counts["solves"]
    counts.update(factorizations=0, solves=0)
    monkeypatch.setattr(spectral, "lobpcg", missed_lobpcg)
    perelman_lambda(mesh, snap)
    assert counts["factorizations"] == 1
    assert solves <= counts["solves"] + spectral._LOBPCG_STEPS


TOL_ENTRY_POINTS = {
    "solve_spectrum": lambda mesh, u, tol: solve_spectrum(
        mesh.stiffness, mesh.base_vertex_area * np.exp(u), k=4, tol=tol),
    "bottom_pair": lambda mesh, u, tol: perelman_lambda(
        mesh, curvature_snapshot(mesh, u), tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, 1e-15])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_unattainable_tol_is_rejected_before_factoring(entry, tol,
                                                       monkeypatch):
    mesh = build_icosphere(2, 1.0)
    u = 0.2 * np.random.default_rng(0).standard_normal(mesh.n_vertices)
    counts = counted_lu(monkeypatch)
    with pytest.raises(ValueError, match="tol must be at least 1e-14"):
        TOL_ENTRY_POINTS[entry](mesh, u, tol)
    assert counts == {"factorizations": 0, "solves": 0}


# ---------------------------------------------------------------------------
# Rayleigh quotient


def test_rayleigh_of_eigenfunction():
    _, stiffness, mdiag = sphere_pencil(2)
    vals, vecs = solve_spectrum(stiffness, mdiag, k=1)
    quotient = rayleigh_quotient(vecs[:, 1], stiffness, mdiag)
    assert_allclose(quotient, vals[1], rtol=1e-10)


def test_rayleigh_of_constant():
    _, stiffness, mdiag = sphere_pencil(1)
    n = stiffness.shape[0]
    assert abs(rayleigh_quotient(np.ones(n), stiffness, mdiag)) < 1e-12


def test_rayleigh_of_mixed_modes():
    _, stiffness, mdiag = sphere_pencil(2)
    vals, vecs = solve_spectrum(stiffness, mdiag, k=4)
    mixed = (vecs[:, 1] + vecs[:, 4]) / math.sqrt(2.0)
    expected = 0.5 * (vals[1] + vals[4])
    assert_allclose(rayleigh_quotient(mixed, stiffness, mdiag), expected,
                    rtol=1e-8)


def test_rayleigh_min_max():
    _, stiffness, mdiag = sphere_pencil(2)
    vals, _ = solve_spectrum(stiffness, mdiag, k=1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rng.standard_normal(stiffness.shape[0])
        f -= (mdiag @ f) / mdiag.sum()
        assert rayleigh_quotient(f, stiffness, mdiag) >= vals[1] - 1e-10


def test_rayleigh_rejects_zero_vector():
    _, stiffness, mdiag = sphere_pencil(0)
    with pytest.raises(ValueError, match="M-norm"):
        rayleigh_quotient(np.zeros(stiffness.shape[0]), stiffness, mdiag)


# ---------------------------------------------------------------------------
# tracking


@given(permutation=st.permutations(range(5)),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=5, max_size=5))
def test_track_restores_permutation_and_signs(permutation, signs):
    _, stiffness, mdiag = sphere_pencil(1)
    vals, vecs = solve_spectrum(stiffness, mdiag, k=4)
    shuffled = vecs[:, permutation] * np.array(signs)
    values, vectors, overlaps = track(vecs, vals[permutation], shuffled,
                                      mdiag)
    assert np.array_equal(values, vals)
    assert np.array_equal(vectors, vecs)
    assert_allclose(overlaps, 1.0, rtol=1e-9)


def test_track_restores_flipped_signs():
    _, stiffness, mdiag = sphere_pencil(1)
    vals, vecs = solve_spectrum(stiffness, mdiag, k=4)
    _, vectors, overlaps = track(vecs, vals, -vecs, mdiag)
    assert np.array_equal(vectors, vecs)
    assert_allclose(overlaps, 1.0, rtol=1e-9)


def test_track_restores_permutation():
    _, stiffness, mdiag = sphere_pencil(1)
    vals, vecs = solve_spectrum(stiffness, mdiag, k=4)
    permutation = [3, 0, 4, 1, 2]
    values, vectors, _ = track(vecs, vals[permutation], vecs[:, permutation],
                               mdiag)
    assert np.array_equal(values, vals)
    assert np.array_equal(vectors, vecs)


def test_track_reports_lost_branch():
    _, stiffness, mdiag = sphere_pencil(1)
    vals, vecs = solve_spectrum(stiffness, mdiag, k=4)
    # Replace one branch with a vector orthogonal to everything tracked.
    broken = vecs.copy()
    broken[:, 2] = solve_spectrum(stiffness, mdiag, k=8)[1][:, 8]
    _, _, overlaps = track(vecs, vals, broken, mdiag)
    assert overlaps.min() < 0.5


def test_track_requires_equal_counts():
    _, stiffness, mdiag = sphere_pencil(1)
    vals, vecs = solve_spectrum(stiffness, mdiag, k=3)
    with pytest.raises(ValueError, match="count"):
        track(vecs, vals[:-1], vecs[:, :-1], mdiag)


# ---------------------------------------------------------------------------
# clusters


def test_cluster_detection():
    values = [0.0, 1.0, 1.0 + 1e-8, 2.0, 2.0, 5.0]
    assert eigenvalue_clusters(values) == [[1, 2], [3, 4], [5]]


def test_cluster_detection_all_simple():
    assert eigenvalue_clusters([0.0, 1.0, 2.0, 4.0]) == [[1], [2], [3]]


def test_sphere_first_shell_is_a_cluster():
    # Icosahedral symmetry keeps the 3-dimensional first shell exactly
    # degenerate, so cluster detection must group indices 1..3.
    _, stiffness, mdiag = sphere_pencil(2)
    vals, _ = solve_spectrum(stiffness, mdiag, k=4)
    clusters = eigenvalue_clusters(vals)
    assert clusters[0] == [1, 2, 3]
