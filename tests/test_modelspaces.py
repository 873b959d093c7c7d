import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ricciflow.mesh import build_icosphere
from ricciflow.modelspaces import (
    ModelSpace,
    PastExtinctionError,
    divergence_schedule,
    exact_spectrum,
    flat_torus,
    homogeneous_rate,
    pinching_lower_bound,
    round_sphere,
    soliton_rate,
    soliton_spectrum,
)
from ricciflow.spectral import solve_spectrum

PI2 = 4.0 * math.pi**2


# ---------------------------------------------------------------------------
# model space descriptors


def test_sphere_constants():
    s2 = round_sphere(2, 1.0)
    assert s2.epsilon == -1.0
    assert s2.einstein_constant == 1.0
    assert s2.scalar_curvature == 2.0
    assert s2.extinction_time == 0.5

    s3 = round_sphere(3, 1.0)
    assert s3.epsilon == -2.0
    assert s3.scalar_curvature == 6.0
    assert s3.extinction_time == 0.25

    s2_big = round_sphere(2, 2.0)
    assert s2_big.epsilon == -0.25
    assert s2_big.extinction_time == 2.0


def test_torus_constants():
    torus = flat_torus(np.eye(2))
    assert torus.epsilon == 0.0
    assert torus.einstein_constant == 0.0
    assert torus.extinction_time is None


def test_descriptor_validation():
    with pytest.raises(ValueError, match="dimension"):
        round_sphere(1, 1.0)
    with pytest.raises(ValueError, match="radius"):
        round_sphere(2, 0.0)
    with pytest.raises(ValueError, match="square"):
        flat_torus(np.ones((2, 3)))
    with pytest.raises(ValueError, match="singular"):
        flat_torus([[1.0, 2.0], [2.0, 4.0]])


# ---------------------------------------------------------------------------
# exact spectra


def test_sphere_spectrum_s2():
    spec = exact_spectrum(round_sphere(2, 1.0), 3)
    assert spec.entries == [(0.0, 1), (2.0, 3), (6.0, 5)]


def test_sphere_spectrum_s3():
    spec = exact_spectrum(round_sphere(3, 1.0), 3)
    assert spec.entries == [(0.0, 1), (3.0, 4), (8.0, 9)]


def test_sphere_spectrum_radius_scaling():
    spec = exact_spectrum(round_sphere(2, 2.0), 2)
    assert_allclose(spec.eigenvalue(1), 0.5, rtol=1e-15)
    assert spec.multiplicity(1) == 3


def test_unit_torus_spectrum():
    spec = exact_spectrum(flat_torus(np.eye(2)), 3)
    values = [spec.eigenvalue(i) for i in range(3)]
    mults = [spec.multiplicity(i) for i in range(3)]
    assert_allclose(values, [0.0, PI2, 2.0 * PI2], rtol=1e-12)
    assert mults == [1, 4, 4]


def test_torus_spectrum_matches_brute_force():
    lattice = np.array([[1.0, 0.4], [0.0, 0.7]])
    spec = exact_spectrum(flat_torus(lattice), 50)
    # Independent brute force over a generously large dual-lattice box.
    dual = np.linalg.inv(lattice).T
    span = np.arange(-40, 41)
    ks = np.array(np.meshgrid(span, span)).reshape(2, -1).T
    norms = np.sort(PI2 * np.sum((ks @ dual.T) ** 2, axis=1))
    expected = []
    i = 0
    while len(expected) < 50:
        j = i
        while j + 1 < len(norms) and norms[j + 1] - norms[i] <= 1e-9 * max(norms[i], 1.0):
            j += 1
        expected.append((norms[i], j - i + 1))
        i = j + 1
    for idx, (value, mult) in enumerate(expected):
        assert_allclose(spec.eigenvalue(idx), value, rtol=1e-12, atol=1e-12)
        assert spec.multiplicity(idx) == mult


def test_orthogonal_lattice_change_preserves_spectrum():
    # Spectra depend on the lattice only through dual norms, which any
    # orthogonal transformation preserves.
    rng = np.random.default_rng(8)
    lattice = np.array([[1.0, 0.3], [0.0, 0.8]])
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rotation = np.array([[math.cos(theta), -math.sin(theta)],
                         [math.sin(theta), math.cos(theta)]])
    base = exact_spectrum(flat_torus(lattice), 20)
    rotated = exact_spectrum(flat_torus(rotation @ lattice), 20)
    for i in range(20):
        assert_allclose(rotated.eigenvalue(i), base.eigenvalue(i),
                        rtol=1e-9, atol=1e-9)
        assert rotated.multiplicity(i) == base.multiplicity(i)


def test_exact_spectrum_count_guard():
    with pytest.raises(ValueError, match="count"):
        exact_spectrum(round_sphere(2, 1.0), 0)
    with pytest.raises(ValueError, match="count"):
        exact_spectrum(round_sphere(2, 1.0), 10_001)


def test_exact_spectrum_unknown_kind():
    bogus = ModelSpace(kind="klein_bottle", dim=2)
    with pytest.raises(ValueError, match="kind"):
        exact_spectrum(bogus, 3)


# ---------------------------------------------------------------------------
# soliton laws


def test_soliton_spectrum_at_zero_is_base():
    space = round_sphere(2, 1.0)
    base = exact_spectrum(space, 4)
    at_zero = soliton_spectrum(space, 0.0, 4)
    assert at_zero.entries == base.entries


def test_soliton_spectrum_torus_steady():
    space = flat_torus(np.eye(2))
    assert soliton_spectrum(space, 37.0, 3).entries == \
        exact_spectrum(space, 3).entries


def test_soliton_spectrum_shrinking_sphere():
    space = round_sphere(2, 1.0)
    spec = soliton_spectrum(space, 0.25, 2)
    assert_allclose(spec.eigenvalue(1), 4.0, rtol=1e-15)


def test_soliton_spectrum_past_extinction():
    with pytest.raises(PastExtinctionError, match="extinction"):
        soliton_spectrum(round_sphere(2, 1.0), 0.5, 2)
    with pytest.raises(PastExtinctionError):
        soliton_rate(round_sphere(3, 1.0), 0.3, 1)


def test_soliton_rate_values():
    space = round_sphere(2, 1.0)
    assert_allclose(soliton_rate(space, 0.0, 1), 4.0, rtol=1e-15)
    assert_allclose(soliton_rate(space, 0.25, 1), 16.0, rtol=1e-15)
    assert soliton_rate(flat_torus(np.eye(2)), 5.0, 1) == 0.0


def test_soliton_rate_matches_homogeneous_rate_at_zero():
    spaces = [round_sphere(2, 1.0), round_sphere(3, 1.0),
              round_sphere(2, 2.0), round_sphere(4, 0.5),
              flat_torus(np.eye(2))]
    for space in spaces:
        for index in (1, 2, 3):
            assert_allclose(soliton_rate(space, 0.0, index),
                            homogeneous_rate(space, index), rtol=1e-13)


def test_homogeneous_rates():
    assert_allclose(homogeneous_rate(round_sphere(2, 1.0), 1), 4.0)
    assert_allclose(homogeneous_rate(round_sphere(3, 1.0), 1), 12.0)
    assert homogeneous_rate(flat_torus(np.eye(2)), 1) == 0.0


# ---------------------------------------------------------------------------
# pinching and divergence


def test_pinching_bound_unit_s3():
    pinching, bound, lam1 = pinching_lower_bound(round_sphere(3, 1.0))
    assert_allclose(pinching, 1.0 / 3.0, rtol=1e-15)
    assert_allclose(bound, 3.0, rtol=1e-15)
    assert_allclose(lam1, 3.0, rtol=1e-15)


def test_pinching_bound_equality_across_radii():
    for radius in (0.5, 1.0, 2.0):
        _, bound, lam1 = pinching_lower_bound(round_sphere(3, radius))
        assert_allclose(bound, lam1, rtol=1e-14)
    _, bound, lam1 = pinching_lower_bound(round_sphere(3, 2.0))
    assert_allclose(bound, 0.75, rtol=1e-15)
    _, bound, lam1 = pinching_lower_bound(round_sphere(3, 0.5))
    assert_allclose(bound, 12.0, rtol=1e-15)


def test_pinching_rejects_other_spaces():
    with pytest.raises(ValueError, match="3-sphere"):
        pinching_lower_bound(round_sphere(2, 1.0))
    with pytest.raises(ValueError, match="3-sphere"):
        pinching_lower_bound(flat_torus(np.eye(3)))


def test_divergence_schedule_unit_s3():
    schedule = divergence_schedule(round_sphere(3, 1.0), 5)
    times = [t for t, _ in schedule]
    bounds = [b for _, b in schedule]
    assert times[0] == 0.0
    assert_allclose(bounds[0], 3.0, rtol=1e-15)
    assert_allclose(times[4], 0.2, rtol=1e-15)
    assert_allclose(bounds[4], 15.0, rtol=1e-12)
    assert all(b < a for b, a in zip(bounds, bounds[1:]))  # strictly increasing
    assert all(t < 0.25 for t in times)


def test_divergence_schedule_unbounded():
    schedule = divergence_schedule(round_sphere(3, 1.0), 200)
    assert schedule[-1][1] > 500.0


# ---------------------------------------------------------------------------
# cross-validation against the mesh pipeline


def test_mesh_lambda1_matches_exact_sphere():
    exact = exact_spectrum(round_sphere(2, 1.0), 2)
    mesh = build_icosphere(3, 1.0)
    values, _ = solve_spectrum(mesh.stiffness, mesh.base_vertex_area, k=3)
    lam1_exact = exact.eigenvalue(1)
    for lam in values[1:4]:
        assert abs(lam - lam1_exact) < 0.01 * lam1_exact
