import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.linalg import eigh

from ricciflow.mesh import (
    MAX_SUBDIVISIONS,
    DegenerateFaceError,
    Mesh,
    MeshError,
    assemble_mass,
    assemble_stiffness,
    build_flat_torus,
    build_icosphere,
    integrate,
    load_off,
    scalar_curvature,
    total_area,
)


def vertex_degrees(mesh):
    deg = np.zeros(mesh.n_vertices, dtype=int)
    for k in range(3):
        np.add.at(deg, mesh.faces[:, k], 1)
    return deg


# ---------------------------------------------------------------------------
# generators


def test_icosphere_base_combinatorics():
    mesh = build_icosphere(0, 1.0)
    assert mesh.n_vertices == 12
    assert mesh.n_faces == 20
    assert mesh.euler_characteristic == 2


def test_icosphere_subdivided_combinatorics():
    mesh = build_icosphere(2, 1.0)
    assert mesh.n_vertices == 162
    assert mesh.n_faces == 320
    assert mesh.euler_characteristic == 2


def test_icosphere_radius_scaling():
    mesh = build_icosphere(1, 2.0)
    assert_allclose(np.linalg.norm(mesh.vertices, axis=1), 2.0, rtol=1e-14)


def test_icosphere_subdivision_guard():
    with pytest.raises(ValueError, match="subdivisions"):
        build_icosphere(MAX_SUBDIVISIONS + 1, 1.0)
    with pytest.raises(ValueError):
        build_icosphere(-1, 1.0)
    with pytest.raises(ValueError):
        build_icosphere(1, 0.0)


def test_flat_torus_combinatorics():
    mesh = build_flat_torus(3, 3, 1.0, 1.0)
    assert mesh.n_vertices == 9
    assert mesh.n_faces == 18
    assert mesh.euler_characteristic == 0


def test_flat_torus_unit_area():
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    assert_allclose(mesh.face_areas.sum(), 1.0, rtol=1e-12)
    assert_allclose(total_area(mesh, np.zeros(mesh.n_vertices)), 1.0,
                    rtol=1e-12)


def test_flat_torus_is_flat():
    mesh = build_flat_torus(8, 8, 2.0, 1.0)
    assert np.max(np.abs(mesh.base_curvature)) < 1e-9


def test_flat_torus_grid_guard():
    with pytest.raises(ValueError, match="3 x 3"):
        build_flat_torus(2, 8)
    with pytest.raises(ValueError):
        build_flat_torus(8, 8, l1=-1.0)


# ---------------------------------------------------------------------------
# structural validation


def test_open_mesh_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(MeshError, match="boundary"):
        Mesh(verts, [(0, 1, 2)])


def test_inconsistent_orientation_rejected():
    # Both faces traverse the shared edge 0 -> 1 in the same direction.
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    with pytest.raises(MeshError, match="orient"):
        Mesh(verts, [(0, 1, 2), (0, 1, 3)])


def test_face_index_out_of_range_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(MeshError, match="out of range"):
        Mesh(verts, [(0, 1, 5)])


def test_repeated_vertex_in_face_rejected():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    with pytest.raises(MeshError, match="repeated"):
        Mesh(verts, [(0, 1, 1)])


def test_degenerate_face_error_names_face():
    mesh = build_flat_torus(4, 4, 1.0, 1.0)
    lengths = mesh.corner_lengths.copy()
    lengths[5] = (1.0, 1.0, 2.0)  # triangle inequality collapses to a segment
    with pytest.raises(DegenerateFaceError, match="face 5"):
        Mesh(mesh.vertices, mesh.faces, corner_lengths=lengths)


# ---------------------------------------------------------------------------
# lumped areas, defects, Euler characteristic


def test_lumped_area_partitions_total_area():
    for mesh in (build_icosphere(2, 1.0), build_flat_torus(6, 5, 2.0, 1.0)):
        assert np.all(mesh.base_vertex_area > 0)
        assert_allclose(mesh.base_vertex_area.sum(), mesh.face_areas.sum(),
                        rtol=1e-12)


def test_angle_defect_gauss_bonnet():
    sphere = build_icosphere(2, 1.0)
    assert_allclose(sphere.angle_defects.sum(), 4.0 * math.pi, atol=1e-10)
    torus = build_flat_torus(7, 9, 1.5, 1.0)
    assert_allclose(torus.angle_defects.sum(), 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# stiffness operator


def test_stiffness_kills_constants():
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(mesh.stiffness @ ones)) < 1e-12


def test_stiffness_symmetric_exactly():
    mesh = build_icosphere(2, 1.0)
    diff = mesh.stiffness - mesh.stiffness.T
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def embedded_dirichlet_energy(mesh, f):
    """Sum over faces of 1/2 sum_k cot(theta_k) (f_i - f_j)^2.

    The cotangents come from the embedded vertex positions, not from the
    mesh's stored corner data; (i, j) is the edge opposite corner k.
    """
    tri = mesh.vertices[mesh.faces]
    total = 0.0
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        e_i = tri[:, i] - tri[:, k]
        e_j = tri[:, j] - tri[:, k]
        cot = (np.einsum("fd,fd->f", e_i, e_j)
               / np.linalg.norm(np.cross(e_i, e_j), axis=1))
        diff = f[mesh.faces[:, i]] - f[mesh.faces[:, j]]
        total += float(np.sum(0.5 * cot * diff**2))
    return total


@given(subdivisions=st.integers(1, 2), seed=st.integers(0, 2**32 - 1),
       jitter=st.floats(0.25, 0.4))
def test_stiffness_structure_on_jittered_icospheres(subdivisions, seed,
                                                    jitter):
    # Jitter of a quarter edge length or more nearly always leaves some
    # edge with a negative cotangent weight (a non-Delaunay mesh).
    base = build_icosphere(subdivisions, 1.0)
    rng = np.random.default_rng(seed)
    spacing = base.corner_lengths.mean()
    mesh = Mesh(base.vertices
                + jitter * spacing * rng.standard_normal(base.vertices.shape),
                base.faces)
    stiffness = mesh.stiffness
    off_diagonal = stiffness - sparse.diags(stiffness.diagonal())
    assume(off_diagonal.max() > 0.0)  # some negative edge weight

    assert (stiffness != stiffness.T).nnz == 0
    scale = np.abs(stiffness).max()
    assert np.abs(stiffness.sum(axis=1)).max() <= 1e-13 * scale
    f = rng.standard_normal(mesh.n_vertices)
    assert_allclose(float(f @ (stiffness @ f)),
                    embedded_dirichlet_energy(mesh, f), rtol=1e-10)


def test_stiffness_positive_semidefinite():
    mesh = build_icosphere(1, 1.0)
    vals = np.linalg.eigvalsh(mesh.stiffness.toarray())
    assert vals.min() > -1e-10


def test_stiffness_kernel_is_constants():
    # Dense generalized solve as an independent oracle for the smallest
    # eigenpair of L f = lambda M f.
    mesh = build_icosphere(2, 1.0)
    mass = assemble_mass(mesh, np.zeros(mesh.n_vertices))
    vals, vecs = eigh(mesh.stiffness.toarray(), mass.toarray())
    assert abs(vals[0]) < 1e-10
    constant = vecs[:, 0]
    assert np.ptp(constant) < 1e-8 * np.abs(constant).max()


def test_stiffness_conformally_invariant():
    # Uniform metric scaling preserves angles, hence every cotangent weight.
    coarse = build_flat_torus(6, 6, 1.0, 1.0)
    scaled = build_flat_torus(6, 6, 3.0, 3.0)
    assert_allclose(coarse.stiffness.toarray(), scaled.stiffness.toarray(),
                    atol=1e-13)


def test_stiffness_cached_on_mesh():
    mesh = build_icosphere(1, 1.0)
    assert mesh.stiffness is mesh.stiffness


def test_assemble_stiffness_matches_property():
    mesh = build_icosphere(1, 1.0)
    rebuilt = assemble_stiffness(mesh)
    assert np.max(np.abs((rebuilt - mesh.stiffness).toarray())) == 0.0


# ---------------------------------------------------------------------------
# mass operator


def test_mass_trace_matches_sphere_area():
    mesh = build_icosphere(3, 1.0)
    trace = assemble_mass(mesh, np.zeros(mesh.n_vertices)).diagonal().sum()
    assert_allclose(trace, mesh.face_areas.sum(), rtol=1e-12)
    assert abs(trace - 4.0 * math.pi) < 0.005 * 4.0 * math.pi


def test_mass_uniform_conformal_scaling():
    mesh = build_icosphere(3, 1.0)
    base = assemble_mass(mesh, np.zeros(mesh.n_vertices)).diagonal().sum()
    scaled = assemble_mass(
        mesh, np.full(mesh.n_vertices, math.log(4.0))).diagonal().sum()
    assert_allclose(scaled, 4.0 * base, rtol=1e-12)


def test_mass_trace_unit_torus():
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    trace = assemble_mass(mesh, np.zeros(mesh.n_vertices)).diagonal().sum()
    assert_allclose(trace, 1.0, rtol=1e-12)


def test_mass_positive_for_any_finite_u():
    mesh = build_icosphere(1, 1.0)
    rng = np.random.default_rng(4)
    u = rng.normal(scale=5.0, size=mesh.n_vertices)
    assert np.all(assemble_mass(mesh, u).diagonal() > 0)


def test_mass_rejects_nonfinite_u():
    mesh = build_icosphere(1, 1.0)
    u = np.zeros(mesh.n_vertices)
    u[3] = np.inf
    with pytest.raises(ValueError, match="finite"):
        assemble_mass(mesh, u)


# ---------------------------------------------------------------------------
# scalar curvature


def test_flat_torus_curvature_zero():
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    curvature = scalar_curvature(mesh, np.zeros(mesh.n_vertices))
    assert np.max(np.abs(curvature)) < 1e-9


@pytest.mark.xfail(
    strict=True,
    reason="barycentric lumping overshoots at the 12 degree-5 vertices; "
    "their curvature converges to about 2.29, not 2, under refinement",
)
def test_unit_icosphere_curvature_within_two_percent_everywhere():
    mesh = build_icosphere(3, 1.0)
    curvature = scalar_curvature(mesh, np.zeros(mesh.n_vertices))
    assert np.max(np.abs(curvature - 2.0)) < 0.02 * 2.0


def test_unit_icosphere_curvature_at_regular_vertices():
    mesh = build_icosphere(3, 1.0)
    curvature = scalar_curvature(mesh, np.zeros(mesh.n_vertices))
    regular = vertex_degrees(mesh) == 6
    assert np.max(np.abs(curvature[regular] - 2.0)) < 0.02 * 2.0
    # The degree-5 vertices carry a stable lumping artifact, bounded but
    # not vanishing with subdivision.
    assert np.max(np.abs(curvature - 2.0)) < 0.15 * 2.0


def test_unit_icosphere_mean_curvature():
    mesh = build_icosphere(3, 1.0)
    u = np.zeros(mesh.n_vertices)
    mean = integrate(mesh, u, scalar_curvature(mesh, u)) / total_area(mesh, u)
    assert abs(mean - 2.0) < 0.005 * 2.0


def test_constant_conformal_shift_scales_curvature():
    mesh = build_icosphere(2, 1.0)
    base = scalar_curvature(mesh, np.zeros(mesh.n_vertices))
    shift = 0.7
    shifted = scalar_curvature(mesh, np.full(mesh.n_vertices, shift))
    assert_allclose(shifted, math.exp(-shift) * base, rtol=1e-12)


def test_scalar_curvature_rejects_nonfinite_u():
    mesh = build_icosphere(1, 1.0)
    u = np.zeros(mesh.n_vertices)
    u[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        scalar_curvature(mesh, u)


# ---------------------------------------------------------------------------
# integration and discrete Gauss-Bonnet


def test_integrate_unit_torus_area():
    mesh = build_flat_torus(8, 8, 1.0, 1.0)
    value = integrate(mesh, np.zeros(mesh.n_vertices),
                      np.ones(mesh.n_vertices))
    assert_allclose(value, 1.0, rtol=1e-12)


GAUSS_BONNET_CASES = (
    (build_icosphere(2, 1.0), 8.0 * math.pi),
    (build_flat_torus(8, 8, 2.0, 1.0), 0.0),
)


@given(st.data())
def test_gauss_bonnet_exact_for_any_conformal_factor(data):
    mesh, target = data.draw(st.sampled_from(GAUSS_BONNET_CASES))
    u = data.draw(hnp.arrays(np.float64, mesh.n_vertices,
                             elements=st.floats(-4.0, 4.0)))
    total = integrate(mesh, u, scalar_curvature(mesh, u))
    assert abs(total - target) < 1e-9


# ---------------------------------------------------------------------------
# refinement consistency


def test_icosphere_lambda1_refinement():
    from ricciflow.spectral import solve_spectrum

    errors = []
    for k in (2, 3, 4):
        mesh = build_icosphere(k, 1.0)
        mass = assemble_mass(mesh, np.zeros(mesh.n_vertices))
        pairs = solve_spectrum(mesh.stiffness, mass, k=1)
        errors.append(abs(pairs[1].lam - 2.0))
    assert errors[0] > errors[1] > errors[2]


# ---------------------------------------------------------------------------
# OFF loader


OCTAHEDRON_OFF = """\
OFF
# regular octahedron
6 8 12
1 0 0
-1 0 0
0 1 0
0 -1 0
0 0 1
0 0 -1
3 0 2 4
3 2 1 4
3 1 3 4
3 3 0 4
3 2 0 5
3 1 2 5
3 3 1 5
3 0 3 5
"""


def test_load_off_octahedron(tmp_path):
    path = tmp_path / "octa.off"
    path.write_text(OCTAHEDRON_OFF)
    mesh = load_off(path)
    assert mesh.n_vertices == 6
    assert mesh.n_faces == 8
    assert mesh.euler_characteristic == 2
    assert_allclose(mesh.face_areas, math.sqrt(3.0) / 2.0, rtol=1e-12)


def test_load_off_roundtrip_icosphere(tmp_path):
    mesh = build_icosphere(1, 1.0)
    lines = ["OFF", f"{mesh.n_vertices} {mesh.n_faces} 0"]
    lines += [" ".join(repr(float(c)) for c in v) for v in mesh.vertices]
    lines += ["3 " + " ".join(str(i) for i in f) for f in mesh.faces]
    path = tmp_path / "sphere.off"
    path.write_text("\n".join(lines) + "\n")
    loaded = load_off(path)
    assert_allclose(loaded.vertices, mesh.vertices, rtol=0, atol=0)
    assert np.array_equal(loaded.faces, mesh.faces)


def test_load_off_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("NOFF\n6 8 12\n")
    with pytest.raises(ValueError, match="OFF header"):
        load_off(path)


def test_load_off_rejects_non_triangle(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    with pytest.raises(ValueError, match="triangles"):
        load_off(path)


def test_load_off_rejects_truncation(tmp_path):
    path = tmp_path / "short.off"
    path.write_text("OFF\n6 8 12\n1 0 0\n")
    with pytest.raises(ValueError, match="truncated"):
        load_off(path)


def test_load_off_rejects_trailing_data(tmp_path):
    path = tmp_path / "extra.off"
    path.write_text(OCTAHEDRON_OFF + "42\n")
    with pytest.raises(ValueError, match="trailing"):
        load_off(path)
