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
from ricciflow.flow import SpectrumSnapshot
from ricciflow.mesh import (
    Mesh,
    build_flat_torus,
    build_icosphere,
    total_area,
)
from ricciflow.modelspaces import exact_spectrum, flat_torus, round_sphere
from ricciflow.spectral import (
    EigenSolverError,
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
    return SpectrumSnapshot(mesh=mesh, u=u, eigenvalues=values,
                            eigenvectors=vectors)


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
    # 5-fold icosphere cluster or the 4-fold torus cluster.  Counted by
    # wrapping ``spectral.lowest_pairs`` (NumPy 2.4, SciPy 1.17), all 44
    # cases meet the contract on their first solve; the guard-pair retry
    # is there for a first solve that roundoff pushes past it.
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


def test_lanczos_always_runs_to_machine_precision(monkeypatch):
    # A looser ARPACK tol returns wrong sets that meet the residual
    # contract (see lowest_pairs), so every call must pass tol=0.
    real_eigsh = spectral.eigsh
    tols = []

    def recording_eigsh(*args, **kwargs):
        tols.append(kwargs.get("tol"))
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", recording_eigsh)
    for mesh in (build_icosphere(2, 1.0), build_flat_torus(8, 8, 1.0, 1.0)):
        solve_spectrum(mesh.stiffness, mesh.base_vertex_area, k=6)
    assert len(tols) >= 2
    assert all(tol == 0 for tol in tols)


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
        perelman_lambda(snapshot_from_spectrum(mesh, vals, vecs, u))
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
    root = np.sqrt(mdiag)

    def plain(x):
        return root * solve(root * x)

    deflated = spectral.symmetric_inverse(solve, mdiag).matvec

    x, y = rng.standard_normal((2, n))
    for op in (plain, deflated):
        sx, sy = op(x), op(y)
        assert abs(x @ sy - y @ sx) <= 1e-12 * abs(x) @ abs(sy)

    q = root / np.sqrt(mdiag.sum())
    assert np.linalg.norm(deflated(q)) <= 1e-12 * np.linalg.norm(plain(q))

    vals, _ = spectral.lowest_pairs(mesh.stiffness, mdiag,
                                    spectral.symmetric_inverse(solve, mdiag),
                                    k)
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
# Perelman pencil 4L + M diag(R): LOBPCG alone


def test_variation_reexports_the_perelman_solver():
    assert variation.perelman_lambda is spectral.perelman_lambda


def curvature_snapshot(mesh, u):
    return snapshot_from_spectrum(mesh, np.zeros(0),
                                  np.zeros((mesh.n_vertices, 0)), u)


def missed_lobpcg(pencil, start, **kwargs):
    """Stand-in for SciPy's lobpcg: a column that misses the contract."""
    return np.zeros(1), np.random.default_rng(0).standard_normal(start.shape)


def missed_residual(pencil, mdiag):
    """Relative residual of ``missed_lobpcg``'s column, M-normalized, at
    its Rayleigh quotient."""
    f = np.random.default_rng(0).standard_normal(len(mdiag))
    f /= np.sqrt(mdiag @ f**2)
    return relative_residual(pencil, mdiag, f @ (pencil @ f), f)


def no_lanczos(*args, **kwargs):
    raise AssertionError("the Perelman pencil reached eigsh")


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
    real_residuals = spectral._relative_residuals
    checked = []

    def recording(matrix, masses, vals, block):
        checked.append((vals, block))
        return real_residuals(matrix, masses, vals, block)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_relative_residuals", recording)
        mu = perelman_lambda(snap)

    reference = eigh(pencil.toarray(), np.diag(mdiag), eigvals_only=True,
                     subset_by_index=[0, 0])[0]
    # On a flat torus at u = 0, R is 0 and so is mu; its roundoff is on
    # the scale of the pencil, not of R.
    assert_allclose(mu, reference, rtol=1e-10,
                    atol=1e-10 * max(np.abs(R).max(), 1.0))
    # The last residual checked is that of the returned mu.
    vals, block = checked[-1]
    assert vals.tolist() == [mu] and block.shape == (mesh.n_vertices, 1)
    assert (relative_residual(pencil, mdiag, mu, block[:, 0])
            <= spectral.DEFAULT_TOL)


def test_perelman_residual_miss_is_an_error():
    mesh = build_icosphere(2, 1.0)
    snap = curvature_snapshot(mesh, 0.2 * np.random.default_rng(5)
                              .standard_normal(mesh.n_vertices))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "lobpcg", missed_lobpcg)
        patch.setattr(spectral, "eigsh", no_lanczos)
        with pytest.raises(EigenSolverError, match="^curvature-shifted pencil"
                           ".*exceeds tolerance") as info:
            perelman_lambda(snap)
    best = info.value.best_residual
    assert isinstance(best, float)
    pencil = 4.0 * mesh.stiffness + diags(snap.mass_diag * snap.R)
    assert best == pytest.approx(missed_residual(pencil, snap.mass_diag),
                                 rel=1e-12)
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
    # The constant meets the contract, so it is returned before LOBPCG.
    def unreachable(*args, **kwargs):
        raise AssertionError("LOBPCG ran on a converged constant")

    counts = counted_lu(monkeypatch)
    monkeypatch.setattr(spectral, "lobpcg", unreachable)
    mu = perelman_lambda(curvature_snapshot(mesh, np.zeros(mesh.n_vertices)))
    assert abs(mu) <= 1e-10
    assert counts == {"factorizations": 0, "solves": 0}


@pytest.mark.parametrize("amplitude", [0.1, 0.3])
@pytest.mark.parametrize("seed", [0, 7, 1009])
def test_smooth_bump_perelman_takes_few_solves(amplitude, seed, monkeypatch):
    mesh = build_icosphere(3, 1.0)
    snap = curvature_snapshot(mesh, conformal_bump(
        mesh, PerturbationSpec(amplitude=amplitude, mode=2, seed=seed)))
    counts = counted_lu(monkeypatch)
    perelman_lambda(snap)
    assert counts["factorizations"] == 1
    assert counts["solves"] <= 8


def rough_perelman_meets_reference(mesh, u, monkeypatch):
    """One factorization serves LOBPCG to a mu that matches a dense
    reference; Lanczos never runs.  Returns the operator solves."""
    snap = curvature_snapshot(mesh, u)
    counts = counted_lu(monkeypatch)
    monkeypatch.setattr(spectral, "eigsh", no_lanczos)
    mu = perelman_lambda(snap)
    assert counts["factorizations"] == 1
    pencil = 4.0 * mesh.stiffness + diags(snap.mass_diag * snap.R)
    reference = eigh(pencil.toarray(), np.diag(snap.mass_diag),
                     eigvals_only=True, subset_by_index=[0, 0])[0]
    assert_allclose(mu, reference, rtol=1e-10)
    return counts["solves"]


@pytest.mark.parametrize("seed", range(6))
def test_rough_perelman_shares_one_factor_with_its_fallback(seed,
                                                            monkeypatch):
    # White-noise u: LOBPCG alone takes 16-22 solves.
    mesh = build_icosphere(2, 1.0)
    u = 0.2 * np.random.default_rng(seed).standard_normal(mesh.n_vertices)
    assert rough_perelman_meets_reference(mesh, u, monkeypatch) <= 25


def test_white_noise_torus_perelman_meets_the_contract(monkeypatch):
    # LOBPCG meets 1e-10 in 34 solves; shift-invert Lanczos on this
    # pencil stalls at a residual of 6.3e-10.
    mesh = build_flat_torus(24, 24)
    u = np.random.default_rng(0).standard_normal(mesh.n_vertices)
    assert rough_perelman_meets_reference(mesh, u, monkeypatch) <= 40


def test_perelman_lobpcg_stops_at_its_cap(monkeypatch):
    # Real LOBPCG on a pencil it cannot solve to the contract: SciPy
    # applies the preconditioner at most maxiter + 1 times, so one factor
    # serves exactly _LOBPCG_STEPS solves before the miss is reported.
    mesh = build_flat_torus(48, 48)
    u = np.random.default_rng(0).standard_normal(mesh.n_vertices)
    counts = counted_lu(monkeypatch)
    with pytest.raises(EigenSolverError, match="^curvature-shifted pencil"
                       ".*within 1000 LOBPCG solves") as info:
        perelman_lambda(curvature_snapshot(mesh, u))
    assert counts == {"factorizations": 1, "solves": 1000}
    assert info.value.best_residual > spectral.DEFAULT_TOL


TOL_ENTRY_POINTS = {
    "solve_spectrum": lambda mesh, u, tol: solve_spectrum(
        mesh.stiffness, mesh.base_vertex_area * np.exp(u), k=4, tol=tol),
    "perelman_lambda": lambda mesh, u, tol: perelman_lambda(
        curvature_snapshot(mesh, u), tol=tol),
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
