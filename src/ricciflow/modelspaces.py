"""Closed-form spectra and flow rates on round spheres and flat tori.

These spaces evolve by pure rescaling: g(t) = sigma(t) g0 with
sigma(t) = 1 + 2 eps t, where eps = -(n-1)/radius^2 on the sphere and 0
on the torus.  Eigenvalues scale inversely, so every spectral rate has
a closed form that the mesh pipeline can be checked against.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_SPECTRUM_COUNT = 10_000
_ENUMERATION_POINT_CAP = 50_000_000
_VALUE_REL_TOL = 1e-9

SPHERE = "round_sphere"
TORUS = "flat_torus"


class PastExtinctionError(ValueError):
    """Requested time is at or beyond the shrinking sphere's extinction."""


@dataclass
class ModelSpace:
    """A round sphere (dim, radius) or flat torus (lattice columns)."""

    kind: str
    dim: int
    radius: float = None
    lattice: np.ndarray = None

    @property
    def epsilon(self):
        """Rescaling rate: sigma(t) = 1 + 2 * epsilon * t."""
        if self.kind == SPHERE:
            return -(self.dim - 1) / self.radius**2
        return 0.0

    @property
    def einstein_constant(self):
        """c with Ric = c g: (n-1)/radius^2 on spheres, 0 on tori."""
        if self.kind == SPHERE:
            return (self.dim - 1) / self.radius**2
        return 0.0

    @property
    def scalar_curvature(self):
        return self.dim * self.einstein_constant

    @property
    def extinction_time(self):
        """Time at which sigma(t) reaches zero (None when static)."""
        if self.epsilon >= 0:
            return None
        return -1.0 / (2.0 * self.epsilon)


def round_sphere(dim, radius=1.0):
    if dim < 2:
        raise ValueError("sphere dimension must be at least 2")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return ModelSpace(kind=SPHERE, dim=int(dim), radius=float(radius))


def flat_torus(lattice):
    lattice = np.asarray(lattice, dtype=np.float64)
    if lattice.ndim != 2 or lattice.shape[0] != lattice.shape[1]:
        raise ValueError("lattice must be a square matrix of basis columns")
    if lattice.shape[0] < 1:
        raise ValueError("lattice must be at least one dimensional")
    if abs(np.linalg.det(lattice)) < 1e-300:
        raise ValueError("lattice basis is singular")
    return ModelSpace(kind=TORUS, dim=lattice.shape[0], lattice=lattice)


@dataclass
class ExactSpectrum:
    """Distinct eigenvalues with multiplicities, sorted ascending."""

    entries: list  # (eigenvalue, multiplicity) pairs

    def eigenvalue(self, index):
        return self.entries[index][0]

    def multiplicity(self, index):
        return self.entries[index][1]

    def __len__(self):
        return len(self.entries)


def _sphere_multiplicity(level, dim):
    # Dimension of degree-l spherical harmonics on S^n.
    n = dim
    return math.comb(n + level, n) - math.comb(n + level - 2, n)


def _torus_entries(space, count):
    lattice = space.lattice
    dim = space.dim
    dual = np.linalg.inv(lattice).T
    col_norms = np.linalg.norm(lattice, axis=0)

    # Every dual vector with |xi| <= rho lies inside the integer box
    # |k_i| <= rho * |b_i|, so enumerating the box and keeping
    # |xi|^2 <= rho^2 yields a complete prefix of the spectrum.
    shortest = min(np.linalg.norm(dual, axis=0).min(), 1.0)
    rho = shortest * max(count, 2) ** (1.0 / dim)
    while True:
        spans = [np.arange(-int(rho * c) - 1, int(rho * c) + 2)
                 for c in col_norms]
        n_points = math.prod(len(s) for s in spans)
        if n_points > _ENUMERATION_POINT_CAP:
            raise ValueError(
                f"dual lattice enumeration needs {n_points} points, above "
                f"the {_ENUMERATION_POINT_CAP} cap; request fewer eigenvalues"
            )
        ks = np.array(list(itertools.product(*spans)), dtype=np.float64)
        norms_sq = np.sum((ks @ dual.T) ** 2, axis=1)
        norms_sq = np.sort(norms_sq[norms_sq <= rho * rho + 1e-12])

        entries = []
        i = 0
        while i < len(norms_sq):
            j = i
            while (j + 1 < len(norms_sq)
                   and norms_sq[j + 1] - norms_sq[i]
                   <= _VALUE_REL_TOL * max(norms_sq[i], 1.0)):
                j += 1
            entries.append((4.0 * math.pi**2 * norms_sq[i], j - i + 1))
            i = j + 1
        if len(entries) >= count:
            return entries[:count]
        rho *= 1.5


def exact_spectrum(space, count):
    """First ``count`` distinct Laplace eigenvalues with multiplicities.

    Spheres: l (l + n - 1) / radius^2 with the spherical harmonic
    multiplicities.  Tori: 4 pi^2 |xi|^2 over the dual lattice, with the
    enumeration radius grown until the requested prefix is provably
    complete.
    """
    if count < 1 or count > MAX_SPECTRUM_COUNT:
        raise ValueError(f"count must be in [1, {MAX_SPECTRUM_COUNT}]")
    if space.kind == SPHERE:
        entries = [
            (level * (level + space.dim - 1) / space.radius**2,
             _sphere_multiplicity(level, space.dim))
            for level in range(count)
        ]
    elif space.kind == TORUS:
        entries = _torus_entries(space, count)
    else:
        raise ValueError(f"unknown model space kind {space.kind!r}")
    return ExactSpectrum(entries=entries)


def _sigma(space, t):
    sigma = 1.0 + 2.0 * space.epsilon * t
    if sigma <= 0:
        raise PastExtinctionError(
            f"t={t:g} is at or beyond extinction "
            f"(T={space.extinction_time:g})"
        )
    return sigma


def soliton_spectrum(space, t, count):
    """Spectrum of g(t) = sigma(t) g0: each eigenvalue divided by sigma."""
    sigma = _sigma(space, t)
    base = exact_spectrum(space, count)
    return ExactSpectrum(
        entries=[(value / sigma, mult) for value, mult in base.entries]
    )


def soliton_rate(space, t, eigen_index):
    """Exact d(lambda)/dt of distinct eigenvalue ``eigen_index`` at time t.

    lambda(t) = lambda0 / sigma(t) gives
    d(lambda)/dt = -lambda0 * sigma'(t) / sigma(t)^2 with sigma' = 2 eps.
    """
    sigma = _sigma(space, t)
    lam0 = exact_spectrum(space, eigen_index + 1).eigenvalue(eigen_index)
    return -lam0 * 2.0 * space.epsilon / sigma**2


def homogeneous_rate(space, eigen_index):
    """Eigenvalue rate 2 c lambda on an Einstein space with Ric = c g.

    Follows from the general variation formula: R is constant, the
    gradient term contributes -R lambda = -n c lambda, and the Ricci
    term 2 c lambda combines with lambda R int f^2 = n c lambda.
    """
    lam = exact_spectrum(space, eigen_index + 1).eigenvalue(eigen_index)
    return 2.0 * space.einstein_constant * lam


def pinching_lower_bound(space):
    """Curvature pinching bound lambda_1 >= (3/2) eps R on the 3-sphere.

    The round 3-sphere is (1/3)-pinched and attains equality:
    lambda_1 = 3/radius^2 = (3/2)(1/3) * 6/radius^2.

    Returns
    -------
    (pinching, bound, lambda_1)
    """
    if space.kind != SPHERE or space.dim != 3:
        raise ValueError("the pinching bound is stated for round 3-spheres")
    pinching = 1.0 / 3.0
    bound = 1.5 * pinching * space.scalar_curvature
    lam1 = exact_spectrum(space, 2).eigenvalue(1)
    return pinching, bound, lam1


def divergence_schedule(space, samples):
    """Pinching bound along the shrinking flow, diverging at extinction.

    Samples t_j = T * j / (j + 1) for j = 0..samples-1 on a shrinking
    3-sphere, where T is the extinction time.  There sigma(t_j) is
    1/(j+1), so the bound (3/2) * (1/3) * R(t_j) grows linearly in j:
    strictly increasing and unbounded as the samples approach T.

    Returns a list of (t, bound) pairs.
    """
    if space.kind != SPHERE or space.dim != 3:
        raise ValueError("the divergence schedule is stated for round 3-spheres")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    extinction = space.extinction_time
    schedule = []
    for j in range(samples):
        t = extinction * j / (j + 1.0)
        sigma = _sigma(space, t)
        bound = 0.5 * space.scalar_curvature / sigma
        schedule.append((t, bound))
    return schedule
