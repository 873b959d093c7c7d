"""Closed triangle meshes carrying a base metric.

A :class:`Mesh` stores the reference metric g0 through per-face corner
edge lengths.  Everything downstream (stiffness weights, lumped areas,
angle defects) is computed from those lengths alone, so a flat torus can
supply intrinsic lengths that no 3D embedding of its vertex grid would
reproduce.  Conformal metrics g = e^u g0 never change the connectivity
or the stiffness matrix; only the lumped mass rescales.
"""

import math

import numpy as np
from scipy import sparse

MAX_SUBDIVISIONS = 8

# The flows a conformal factor can follow.  They are named here, where
# both ``flow`` and ``variation`` can read them.
FLOW_MODES = ("unnormalized", "normalized")

# Triangles thinner than this fraction of the mean area poison the
# cotangent weights long before they underflow.
DEGENERATE_AREA_FACTOR = 1e-12


class MeshError(ValueError):
    """Mesh violates a structural requirement (closedness, orientation)."""


class DegenerateFaceError(MeshError):
    """A triangle is too close to zero area for stable cotangent weights."""


class Mesh:
    """Closed, consistently oriented triangle mesh with metric data.

    Parameters
    ----------
    vertices : (V, 3) array_like
        Vertex positions.  Used only to derive edge lengths when
        ``corner_lengths`` is not given.
    faces : (F, 3) array_like of int
        Vertex index triples, consistently oriented. Every edge must be
        shared by exactly two faces.
    corner_lengths : (F, 3) array_like, optional
        Intrinsic edge lengths; entry ``[f, k]`` is the length of the
        edge opposite corner ``k`` of face ``f``.  Defaults to the
        lengths induced by the embedding.

    Attributes
    ----------
    base_vertex_area : (V,) ndarray
        Barycentric lumped area per vertex (one third of each incident
        triangle).
    base_curvature : (V,) ndarray
        Gaussian curvature of g0: angle defect divided by lumped area.
    euler_characteristic : int
        V - E + F.
    """

    def __init__(self, vertices, faces, corner_lengths=None):
        vertices = np.asarray(vertices, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("vertices must be an (V, 3) array")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError("faces must be an (F, 3) array of vertex indices")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex positions must be finite")

        n_vertices = len(vertices)
        n_faces = len(faces)
        if faces.min(initial=0) < 0 or faces.max(initial=-1) >= n_vertices:
            raise MeshError("face index out of range")
        if np.any((faces[:, 0] == faces[:, 1])
                  | (faces[:, 1] == faces[:, 2])
                  | (faces[:, 2] == faces[:, 0])):
            raise MeshError("face with a repeated vertex")

        self.vertices = vertices
        self.faces = faces
        self._half_edge_order = self._check_closed_oriented(n_vertices)

        if corner_lengths is None:
            # Corner k faces the edge from corner k+1 to corner k+2.
            ahead, behind = faces[:, [2, 0, 1]], faces[:, [1, 2, 0]]
            dx, dy, dz = (coord[ahead] - coord[behind] for coord in vertices.T)
            corner_lengths = np.sqrt(dx * dx + dy * dy + dz * dz)
        corner_lengths = np.asarray(corner_lengths, dtype=np.float64)
        if corner_lengths.shape != (n_faces, 3):
            raise MeshError("corner_lengths must have shape (F, 3)")
        if not np.all(np.isfinite(corner_lengths)) or np.any(corner_lengths <= 0):
            raise MeshError("edge lengths must be positive and finite")
        self.corner_lengths = corner_lengths

        a, b, c = corner_lengths[:, 0], corner_lengths[:, 1], corner_lengths[:, 2]
        s = 0.5 * (a + b + c)
        # Overflow and its inf - inf are caught by the finiteness check.
        with np.errstate(over="ignore", invalid="ignore"):
            heron = s * (s - a) * (s - b) * (s - c)
        self.face_areas = np.sqrt(np.clip(heron, 0.0, None))
        if not np.all(np.isfinite(self.face_areas)):
            raise MeshError("face areas are not finite (Heron overflow)")
        tiny = DEGENERATE_AREA_FACTOR * self.face_areas.mean()
        bad = np.nonzero(self.face_areas < tiny)[0]
        if bad.size:
            raise DegenerateFaceError(
                f"face {bad[0]} has area {self.face_areas[bad[0]]:.3e}, "
                f"below {tiny:.3e}; refusing to build cotangent weights"
            )

        # Law of cosines per corner; the clip guards arccos roundoff on
        # needle-adjacent but still admissible triangles.
        sq = corner_lengths**2
        self.corner_cotangents = np.empty_like(corner_lengths)
        cos_angles = np.empty_like(corner_lengths)
        for k in range(3):
            ka, kb, kc = sq[:, k], sq[:, (k + 1) % 3], sq[:, (k + 2) % 3]
            num = kb + kc - ka
            self.corner_cotangents[:, k] = num / (4.0 * self.face_areas)
            cos_angles[:, k] = np.clip(
                num / (2.0 * corner_lengths[:, (k + 1) % 3]
                       * corner_lengths[:, (k + 2) % 3]),
                -1.0, 1.0,
            )
        self.corner_angles = np.arccos(cos_angles)

        # Each vertex sums over its corners 0, then 1, then 2, each in face
        # order.
        corners = faces.T.ravel()
        area_acc = np.bincount(corners,
                               weights=np.tile(self.face_areas / 3.0, 3),
                               minlength=n_vertices)
        angle_acc = np.bincount(corners, weights=self.corner_angles.T.ravel(),
                                minlength=n_vertices)
        if np.any(area_acc <= 0):
            raise MeshError("isolated vertex: zero lumped area")
        self.base_vertex_area = area_acc
        self.angle_defects = 2.0 * np.pi - angle_acc
        self.base_curvature = self.angle_defects / area_acc

        n_edges = (3 * n_faces) // 2
        self.euler_characteristic = n_vertices - n_edges + n_faces
        self._stiffness = None

    def _check_closed_oriented(self, n_vertices):
        """Refuse a mesh that is not closed and consistently oriented.

        Returns ``(order, twin)`` for ``assemble_stiffness``.  The
        half-edges are (f0, f1), (f1, f2), (f2, f0), face by face;
        ``order`` lists them by tail, then head, and ``twin[p]`` is the
        reverse of half-edge ``order[p]``.
        """
        f = self.faces
        tail = f.ravel()
        head = f[:, [1, 2, 0]].ravel()
        n = np.int64(n_vertices)
        # Directed half-edge codes are distinct exactly when no two faces
        # share an edge in the same direction; then the surface is closed
        # exactly when reversing every half-edge gives the same code set.
        code, reverse = tail * n + head, head * n + tail
        order, twin = np.argsort(code), np.argsort(reverse)
        code = code[order]
        if np.any(code[1:] == code[:-1]):
            raise MeshError(
                "directed edge shared by two faces: non-manifold or "
                "inconsistently oriented mesh"
            )
        if not np.array_equal(reverse[twin], code):
            raise MeshError("mesh has boundary edges; a closed surface is required")
        return order, twin

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def stiffness(self):
        """Cotangent stiffness matrix, assembled once and cached."""
        if self._stiffness is None:
            self._stiffness = assemble_stiffness(self)
        return self._stiffness

    def __repr__(self):
        return (f"Mesh(V={self.n_vertices}, F={self.n_faces}, "
                f"chi={self.euler_characteristic})")


def assemble_stiffness(mesh):
    """Assemble the cotangent stiffness matrix L of the base metric.

    L is symmetric positive semidefinite with zero row sums; the
    generalized problem L f = lambda M f with lambda >= 0 corresponds to
    the geometer's Laplacian through Delta f = -lambda f.  In two
    dimensions L is invariant under conformal rescaling of the metric,
    so it is built from g0 once and reused along any flow.

    Each half-edge (f[k], f[k+1]) of a face gets the weight
    w = cot(angle)/2 of the corner k+2 facing it.  An edge's two
    half-edges give L_ij = L_ji = -w_ij - w_ji, so L is exactly
    symmetric.  L_ii sums, over the corners at i in face order, the
    corner's outgoing plus incoming weight.

    Returns
    -------
    scipy.sparse.csr_matrix
        V x V stiffness matrix with sorted column indices and no
        duplicates; its pattern holds every edge and the diagonal.
    """
    faces = mesh.faces
    n = mesh.n_vertices
    order, twin = mesh._half_edge_order
    row = faces.ravel()[order]
    col = faces[:, [1, 2, 0]].ravel()[order]
    w = 0.5 * mesh.corner_cotangents[:, [2, 0, 1]]
    # Row i holds its off-diagonals in column order, with the diagonal
    # after those left of column i.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n) + 1, out=indptr[1:])
    diagonal = indptr[:-1] + np.bincount(row[col < row], minlength=n)
    # Sorted half-edge p moves past the diagonals of its earlier rows,
    # and past its own row's when it lies right of it.
    off = np.arange(len(order)) + row + (col > row)
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    indices[off] = col
    indices[diagonal] = np.arange(n)
    half = w.ravel()
    data[off] = -half[order] - half[twin]
    data[diagonal] = np.bincount(faces.ravel(),
                                 weights=(w + w[:, [2, 0, 1]]).ravel(),
                                 minlength=n)
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


def assemble_mass(mesh, u):
    """Lumped mass matrix of g = e^u g0: diag(base_vertex_area * e^u)."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.n_vertices,):
        raise ValueError("u must be a per-vertex array")
    if not np.all(np.isfinite(u)):
        raise ValueError("conformal factor must be finite")
    return sparse.diags(mesh.base_vertex_area * np.exp(u))


def scalar_curvature(mesh, u):
    """Scalar curvature of the conformal metric g = e^u g0.

    Uses the surface conformal identity K = e^-u (K0 - Delta0 u / 2)
    with R = 2K.  The discrete geometer's Laplacian of the base metric
    is Delta0 u = -(L u) / base_vertex_area, so the stiffness term
    enters with a plus sign.  Integrating R against the conformal area
    element returns 4 * pi * chi for every finite u because the
    stiffness has zero column sums (discrete Gauss-Bonnet).
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (mesh.n_vertices,):
        raise ValueError("u must be a per-vertex array")
    if not np.all(np.isfinite(u)):
        raise ValueError("conformal factor must be finite")
    lap0_u = (mesh.stiffness @ u) / mesh.base_vertex_area
    return 2.0 * np.exp(-u) * (mesh.base_curvature + 0.5 * lap0_u)


def integrate(mass_diag, field):
    """Integrate a vertex field against the vertex areas ``mass_diag``.

    ``mass_diag`` is the lumped mass diagonal base_vertex_area * e^u
    that a flow state or snapshot carries for its metric e^u g0.
    """
    field = np.asarray(field, dtype=np.float64)
    if field.shape != mass_diag.shape:
        raise ValueError("field must be a per-vertex array")
    if not np.all(np.isfinite(field)):
        raise ValueError("field must be finite")
    return float(np.sum(field * mass_diag))


def total_area(mesh, u):
    """Total area of the conformal metric e^u g0."""
    u = np.asarray(u, dtype=np.float64)
    return float(np.sum(mesh.base_vertex_area * np.exp(u)))


_ICOSAHEDRON_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def build_icosphere(subdivisions, radius=1.0):
    """Geodesic sphere: subdivided icosahedron projected to the sphere.

    Parameters
    ----------
    subdivisions : int
        Number of 4-to-1 refinement passes, between 0 and
        ``MAX_SUBDIVISIONS``.  V = 10 * 4**subdivisions + 2.
    radius : float
        Sphere radius.

    Each pass keeps the old vertices and appends one midpoint per edge,
    numbered in order of the edge's first occurrence when the faces are
    walked in order, each face's edges as (v0, v1), (v1, v2), (v2, v0).
    Face f becomes faces 4f..4f+3.  Every output depends on this order.
    """
    if not isinstance(subdivisions, (int, np.integer)):
        raise ValueError("subdivisions must be an integer")
    if subdivisions < 0 or subdivisions > MAX_SUBDIVISIONS:
        raise ValueError(
            f"subdivisions must be in [0, {MAX_SUBDIVISIONS}] "
            f"(got {subdivisions}); higher levels exceed the intended "
            "problem sizes"
        )
    if radius <= 0:
        raise ValueError("radius must be positive")

    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]) / math.sqrt(1.0 + t * t)
    faces = np.array(_ICOSAHEDRON_FACES, dtype=np.int64)

    for _ in range(subdivisions):
        n = len(verts)
        # Edges face by face: (v0, v1), (v1, v2), (v2, v0).
        tail = faces.ravel()
        head = faces[:, [1, 2, 0]].ravel()
        key = np.minimum(tail, head) * n + np.maximum(tail, head)
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        # Midpoints are numbered in order of first occurrence.
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        edge = first[order]
        mid = 0.5 * (verts[tail[edge]] + verts[head[edge]])
        mx, my, mz = mid.T
        mid /= np.sqrt(mx * mx + my * my + mz * mz)[:, None]
        verts = np.concatenate([verts, mid])
        m01, m12, m20 = (n + rank[inverse]).reshape(-1, 3).T
        v0, v1, v2 = faces.T
        faces = np.stack([v0, m01, m20, v1, m12, m01,
                          v2, m20, m12, m01, m12, m20], axis=1).reshape(-1, 3)

    return Mesh(radius * verts, faces)


def build_flat_torus(n, m, l1=1.0, l2=1.0):
    """Flat torus from an n x m grid on a rectangle with side lengths l1, l2.

    Edge lengths are stored intrinsically (grid spacing and cell
    diagonal); the stored planar vertex positions do not realize the
    wrap-around edges.  V = n*m, F = 2*n*m, chi = 0.
    """
    if n < 3 or m < 3:
        raise ValueError("grid must be at least 3 x 3 to stay simplicial")
    if l1 <= 0 or l2 <= 0:
        raise ValueError("side lengths must be positive")

    dx = l1 / n
    dy = l2 / m
    diag = math.hypot(dx, dy)

    i, j = np.divmod(np.arange(n * m), m)
    verts = np.zeros((n * m, 3))
    verts[:, 0] = i * dx
    verts[:, 1] = j * dy

    v00 = i * m + j
    v10 = ((i + 1) % n) * m + j
    v11 = ((i + 1) % n) * m + (j + 1) % m
    v01 = i * m + (j + 1) % m
    # Each cell is split along the (v00, v11) diagonal; both triangles
    # are oriented counterclockwise in the (x, y) chart.
    faces = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    lengths = np.tile([(dy, diag, dx), (dx, dy, diag)], (n * m, 1))
    return Mesh(verts, faces, corner_lengths=lengths)


def load_off(path):
    """Load a closed triangle mesh from an ASCII OFF file."""
    with open(path, "r", encoding="ascii") as handle:
        lines = [
            line.split("#", 1)[0].strip()
            for line in handle
        ]
    lines = [line for line in lines if line]
    if not lines or lines[0] != "OFF":
        raise ValueError(f"{path}: missing OFF header")

    tokens = " ".join(lines[1:]).split()
    pos = 0

    def take(count, kind, what):
        nonlocal pos
        if pos + count > len(tokens):
            raise ValueError(f"{path}: truncated file while reading {what}")
        out = []
        for tok in tokens[pos:pos + count]:
            try:
                out.append(kind(tok))
            except ValueError:
                raise ValueError(f"{path}: bad {what} token {tok!r}") from None
        pos += count
        return out

    n_vertices, n_faces, _ = take(3, int, "counts")
    # Checked before the header sizes any array: a triangle takes 4 tokens.
    if n_vertices < 0 or n_faces < 0:
        raise ValueError(f"{path}: OFF header has negative counts "
                         f"{n_vertices} vertices, {n_faces} faces")
    needed = 3 * n_vertices + 4 * n_faces
    if needed > len(tokens) - pos:
        raise ValueError(f"{path}: truncated file: the OFF header's "
                         f"{n_vertices} vertices and {n_faces} faces need "
                         f"{needed} tokens, {len(tokens) - pos} follow")
    verts = np.array(take(3 * n_vertices, float, "vertex"),
                     dtype=np.float64).reshape(n_vertices, 3)
    faces = np.empty((n_faces, 3), dtype=np.int64)
    for fi in range(n_faces):
        arity = take(1, int, "face size")[0]
        if arity != 3:
            raise ValueError(f"{path}: face {fi} has {arity} vertices; "
                             "only triangles are supported")
        faces[fi] = take(3, int, "face index")
    if pos != len(tokens):
        raise ValueError(f"{path}: trailing data after {n_faces} faces")
    return Mesh(verts, faces)
