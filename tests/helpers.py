"""Dense reference constructions shared by the test modules.

Everything here rebuilds operators from first principles (each
subdomain's Robin matrix assembled from its own triangles, then dense
block algebra) so the class-shared, matrix-free production paths have an
independent cross-check on small instances.  The first section holds
reference code that only the tests use: the readers of the command
line's records (`read_table`, `read_records`, `parse_count`), the
subdomain of each trace slot and each class's Z (`slot_subdomain`,
`class_Z`), `sorted_mesh`, the mesh's twelve tables found by sorting,
and queries on them, the per-triangle loads and their scatter into the
two orientation rows per edge (`per_triangle_loads`, `edge_load_rows`),
the edge interpolant, the elementwise divergence,
the L2 distance of two discrete fields, the errors of the direct solve
and a class's Robin matrix.  The middle holds the per-subdomain dof
tables, loads and per-class assembly that the one template replaced.
The last holds `DirectSolver`, the constrained solves through each
class's own factor, `FlatResolvent`, the resolvent on the
interface-major slot numbering through flat gathers and the sparse
Y_trace that the class-major layout replaced,
`symmetry_maps`, the signed maps of one subdomain's local dofs onto
its symmetry images, and `lookup_symmetry_generators`, the slot
permutations of the symmetries found by moving each slot's midpoint
and locating its image by a sorted-key lookup (`_image`, `_find`).
"""

import csv
import dataclasses
import functools
import json
import types

import numpy as np
import scipy.sparse as sp

from rr_hdiv import fem, local_solver, verify
from rr_hdiv.mesh import (
    DIAGONAL,
    HORIZONTAL,
    LOWER,
    SIGNS,
    SQRT2,
    UPPER,
    VERTICAL,
    build_unit_square_mesh,
)
from rr_hdiv.partition import local_dofs

# Two-point Gauss rule on [-1/2, 1/2], exact for cubics along an edge.
GAUSS2_T = np.array([-0.5, 0.5]) / np.sqrt(3.0)


def read_table(path):
    """Inverse of `cli.write_table` -> (config dict, header, row dicts)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# config: "):
        raise ValueError(f"{path}: missing config comment line")
    config = json.loads(lines[0][len("# config: "):])
    reader = csv.reader(lines[1:])
    header = next(reader)
    rows = [dict(zip(header, row)) for row in reader]
    return config, header, rows


def read_records(path) -> dict:
    """A JSON run record of the command line."""
    with open(path) as fh:
        return json.load(fh)


def parse_count(cell: str):
    """Iteration-count cell of a table CSV -> (count, converged)."""
    cell = cell.strip()
    if cell.endswith("*"):
        return int(cell[:-1]), False
    return int(cell), True


def slot_subdomain(part):
    """The subdomain of each trace slot, from the side table: side d of
    subdomain s holds the r slots side_start[s, d] + arange(r)."""
    r = part.mesh.m // part.N
    sub, side = np.nonzero(part.side_start >= 0)
    out = np.empty(part.trace.n_slots, dtype=np.int64)
    out[part.side_start[sub, side][:, None] + np.arange(r)] = sub[:, None]
    return out


def class_Z(solver):
    """Each class's Robin-to-trace map Z, in slot order: the views of its
    group's stack."""
    return [Z for group in solver._groups for Z in group.Z]


@functools.lru_cache(maxsize=8)
def sorted_mesh(m):
    """Reference tables of the m x m mesh, independent of `rr_hdiv.mesh`'s
    id formulas: entities generated kind by kind, then numbered by
    sorting edge midpoints and triangle centroids lexicographically (y, x).

    Returns a namespace with m, h, n_edges, n_triangles and the tables
    verts (nv, 2), edges (ne, 2) vertex ids, edge_normal (ne, 2), edge_len,
    edge_boundary, edge_kind (int8), edge_mid2 (ne, 2) doubled midpoints,
    tris (nt, 3) vertex ids, tri_edges (nt, 3) the edge opposite each
    vertex, tri_signs (nt, 3) +1 where that edge's normal points out,
    tri_area and tri_shape (int8).  The arrays are read-only: the result
    is cached and shared.
    """
    mp1 = m + 1
    ix, iy = np.meshgrid(np.arange(mp1), np.arange(mp1), indexing="xy")
    verts = np.column_stack([ix.ravel() / m, iy.ravel() / m]).astype(float)

    def vid(jx, jy):
        return jy * mp1 + jx

    hx, hy = (a.ravel() for a in np.meshgrid(np.arange(m), np.arange(mp1)))
    vx, vy = (a.ravel() for a in np.meshgrid(np.arange(mp1), np.arange(m)))
    cx, cy = (a.ravel() for a in np.meshgrid(np.arange(m), np.arange(m)))
    ends = np.concatenate([
        np.column_stack([vid(hx, hy), vid(hx + 1, hy)]),
        np.column_stack([vid(vx, vy), vid(vx, vy + 1)]),
        np.column_stack([vid(cx, cy), vid(cx + 1, cy + 1)]),
    ])
    mid2 = np.concatenate([
        np.column_stack([2 * hx + 1, 2 * hy]),
        np.column_stack([2 * vx, 2 * vy + 1]),
        np.column_stack([2 * cx + 1, 2 * cy + 1]),
    ])
    kind = np.concatenate([
        np.full(hx.size, HORIZONTAL, dtype=np.int8),
        np.full(vx.size, VERTICAL, dtype=np.int8),
        np.full(cx.size, DIAGONAL, dtype=np.int8),
    ])
    order = np.lexsort((mid2[:, 0], mid2[:, 1]))
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size)
    ends, mid2, kind = ends[order], mid2[order], kind[order]
    normals = np.array([[0.0, 1.0], [1.0, 0.0], [1.0 / SQRT2, -1.0 / SQRT2]])
    lengths = np.array([1.0 / m, 1.0 / m, SQRT2 / m])
    on_bnd = (mid2[:, 0] == 0) | (mid2[:, 0] == 2 * m)
    on_bnd |= (mid2[:, 1] == 0) | (mid2[:, 1] == 2 * m)

    # Edge ids in generation order: horizontals, verticals, diagonals.
    def hid(jx, jy):
        return jy * m + jx

    def vvid(jx, jy):
        return m * mp1 + jy * mp1 + jx

    def did(jx, jy):
        return 2 * m * mp1 + jy * m + jx

    tris = np.concatenate([
        np.column_stack([vid(cx, cy), vid(cx + 1, cy), vid(cx + 1, cy + 1)]),
        np.column_stack([vid(cx, cy), vid(cx + 1, cy + 1), vid(cx, cy + 1)]),
    ])
    tri_edges = inv[np.concatenate([
        np.column_stack([vvid(cx + 1, cy), did(cx, cy), hid(cx, cy)]),
        np.column_stack([hid(cx, cy + 1), vvid(cx, cy), did(cx, cy)]),
    ])]
    tri_shape = np.repeat(np.array([LOWER, UPPER], dtype=np.int8), m * m)
    cent3 = np.concatenate([
        np.column_stack([3 * cx + 2, 3 * cy + 1]),
        np.column_stack([3 * cx + 1, 3 * cy + 2]),
    ])
    torder = np.lexsort((cent3[:, 0], cent3[:, 1]))
    tris, tri_edges, tri_shape = tris[torder], tri_edges[torder], tri_shape[torder]
    coords = verts[tris]
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    tables = dict(
        verts=verts, edges=ends, edge_normal=normals[kind],
        edge_len=lengths[kind], edge_boundary=on_bnd & (kind != DIAGONAL),
        edge_kind=kind, edge_mid2=mid2, tris=tris, tri_edges=tri_edges,
        tri_signs=SIGNS[tri_shape],
        tri_area=0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]),
        tri_shape=tri_shape,
    )
    for table in tables.values():
        table.setflags(write=False)
    return types.SimpleNamespace(m=m, h=1.0 / m, n_edges=len(ends),
                                 n_triangles=len(tris), **tables)


def n_vertices(mesh):
    return len(sorted_mesh(mesh.m).verts)


def tri_coords(mesh):
    """Vertex coordinates per triangle, shape (nt, 3, 2)."""
    ref = sorted_mesh(mesh.m)
    return ref.verts[ref.tris]


def per_triangle_loads(m, field):
    """Reference loads per triangle, shape (nt, 3): the quadrature points
    of every triangle gathered from its first vertex, the field evaluated
    there, and one product per shape of those triangles' values with the
    shape's weighted basis table, scattered back by triangle id."""
    ref = sorted_mesh(m)
    out = np.empty((ref.n_triangles, 3))
    weights = np.tile(fem.QUAD4_W, 2)
    for kind, shape in enumerate(fem._shapes(m)):
        ids = np.flatnonzero(ref.tri_shape == kind)
        pts = ref.verts[ref.tris[ids, 0]][:, None] + shape.offsets
        f = np.concatenate(field(pts[..., 0], pts[..., 1]), axis=1)
        out[ids] = f @ (shape.values.T * (shape.area * weights)[:, None])
    return out


def orientation_rows(m):
    """The row of `fem.element_loads` each triangle's loads go to, shape
    (nt, 3): 0 where the edge's orientation in the triangle is +1, 1
    where it is -1."""
    return (sorted_mesh(m).tri_signs < 0).astype(np.intp)


def edge_load_rows(m, per_triangle):
    """A per-triangle load table (nt, 3) scattered into two rows per edge,
    the format of `fem.element_loads`, by `sorted_mesh`'s `tri_edges`
    and `orientation_rows`; an entry no triangle writes is 0."""
    ref = sorted_mesh(m)
    out = np.zeros((2, ref.n_edges))
    out[orientation_rows(m), ref.tri_edges] = per_triangle
    return out


def interior_edges(mesh):
    return np.flatnonzero(~sorted_mesh(mesh.m).edge_boundary)


def triangle_subdomains(mesh, N):
    """The subdomain of each triangle of the N x N decomposition, from the
    sum of its vertices' grid indices (three times its centroid)."""
    ref = sorted_mesh(mesh.m)
    r = mesh.m // N
    vy, vx = np.divmod(ref.tris, mesh.m + 1)
    return (vy.sum(axis=1) // 3 // r) * N + vx.sum(axis=1) // 3 // r


def classify_boundary(mesh):
    """Edge ids lying on the boundary of the unit square.

    Recomputed from vertex coordinates (both endpoints on one boundary
    line), independently of the flags of `sorted_mesh`.
    """
    ref = sorted_mesh(mesh.m)
    p = ref.verts[ref.edges[:, 0]]
    q = ref.verts[ref.edges[:, 1]]
    on_line = np.zeros(ref.n_edges, dtype=bool)
    for axis in (0, 1):
        for value in (0.0, 1.0):
            on_line |= (np.abs(p[:, axis] - value) < 1e-12) & (
                np.abs(q[:, axis] - value) < 1e-12
            )
    return np.flatnonzero(on_line)


def interpolate(mesh, field):
    """Edgewise interpolation: average normal component across each edge.

    Two-point Gauss quadrature along the edge, exact for the quadratic
    manufactured solution. Returns values for every edge, boundary included.
    """
    ref = sorted_mesh(mesh.m)
    p = ref.verts[ref.edges[:, 0]]
    q = ref.verts[ref.edges[:, 1]]
    mid = 0.5 * (p + q)
    tang = q - p
    vals = np.zeros(ref.n_edges)
    for t in GAUSS2_T:
        pts = mid + t * tang
        fx, fy = field(pts[:, 0], pts[:, 1])
        vals += 0.5 * (fx * ref.edge_normal[:, 0] + fy * ref.edge_normal[:, 1])
    return vals


def divergence(mesh, u):
    """Elementwise (constant) divergence of the field with edge dofs u,
    from the basis divergences of `fem`'s per-shape tables."""
    ref = sorted_mesh(mesh.m)
    div = np.array([shape.div for shape in fem._shapes(mesh.m)])
    return np.einsum("tk,tk->t", u[ref.tri_edges], div[ref.tri_shape])


def l2_distance(mesh, u, v):
    """L2 norm of the difference of two discrete fields."""
    _, mass = fem.element_matrices(mesh)
    d = (u - v)[sorted_mesh(mesh.m).tri_edges]
    return float(np.sqrt(np.einsum("tij,ti,tj->", mass, d, d)))


def direct_errors(m, case=None):
    """L2 and H(div) errors of the direct solve at resolution m."""
    case = case or verify.manufactured_case()
    mesh = build_unit_square_mesh(m)
    u = verify.solve_global(mesh, case.beta, case.load)
    return fem.error_norms(mesh, u, case.u, case.div_u)


def robin_matrix(cls):
    """Class `cls`'s own Robin matrix, A plus the Robin term."""
    diag = np.zeros(cls.n_local)
    diag[cls.n_interior:] = cls.template.gamma * cls.template.h
    return local_solver._plus_diagonal(cls.A, diag)


def subdomain_robin_matrix(problem, s):
    """Subdomain s's Robin matrix, assembled densely from its own triangles.

    Local dof order is [part.interior_of(s), then the edges of the trace
    slots part.slots_of(s)].  Returns (H, n_interior, slots).
    """
    part, mesh = problem.partition, problem.mesh
    interior = part.interior_of(s)
    slots = part.slots_of(s)
    local_edges = np.concatenate([interior, part.trace.slot_edge[slots]])
    loc_of_edge = np.full(mesh.n_edges, -1)
    loc_of_edge[local_edges] = np.arange(local_edges.size)
    tris = np.flatnonzero(triangle_subdomains(mesh, part.N) == s)
    divdiv, mass = fem.element_matrices(mesh, tris)
    elem = divdiv + problem.config.beta * mass
    dofs = loc_of_edge[sorted_mesh(mesh.m).tri_edges[tris]]
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    H = np.zeros((local_edges.size, local_edges.size))
    np.add.at(H, (rows[keep], cols[keep]), elem.ravel()[keep])
    nI = interior.size
    H[np.arange(nI, H.shape[0]), np.arange(nI, H.shape[0])] += (
        problem.gamma * mesh.h
    )
    return H, nI, slots


def subdomain_load(problem, s):
    """Subdomain s's load in its local dof order [interior_of(s),
    slots_of(s)], from `problem.local_loads`."""
    loads = problem.local_loads
    return np.concatenate([loads.f_I[:, s], loads.f_G[problem.partition.slots_of(s)]])


def per_class_loads(classes, loads):
    """The `local_solver.LocalLoads` of every class as an (n_local, k)
    matrix whose column i is member i's load in local dof order."""
    return [np.concatenate([loads.f_I[:, cls.members], cls.trace_block(loads.f_G).T])
            for cls in classes]


def in_subdomain_order(classes, per_class):
    """Per-class (n, k) column blocks as one (n, N^2) array, column s
    subdomain s's."""
    out = np.empty((per_class[0].shape[0], sum(c.members.size for c in classes)))
    for cls, x in zip(classes, per_class):
        out[:, cls.members] = x
    return out


def zero_loads(loads):
    """`local_solver.LocalLoads` of the same shapes, all zero."""
    return local_solver.LocalLoads(np.zeros_like(loads.f_I), np.zeros_like(loads.f_G))


def dense_local_solve(problem, s, f, g):
    """Unconstrained Robin solve of subdomain s with load f (local dof
    order) and datum g on its slots; returns (u_interior, u_interface)."""
    H, nI, _ = subdomain_robin_matrix(problem, s)
    rhs = np.array(f, dtype=float)
    rhs[nI:] += problem.mesh.h * g
    x = np.linalg.solve(H, rhs)
    return x[:nI], x[nI:]


def dense_resolvent(problem):
    """Constrained Robin resolvent R = S^-1 - K assembled densely.

    S is the block-diagonal Robin Schur complement onto the trace slots
    (one block per subdomain) and K = S^-1 B^T (B S^-1 B^T)^-1 B S^-1 is
    the correction that enforces the edge-average constraint.
    """
    trace = problem.partition.trace
    n = trace.n_slots
    S = np.zeros((n, n))
    for sub in range(problem.partition.N ** 2):
        H, nI, slots = subdomain_robin_matrix(problem, sub)
        A_II = H[:nI, :nI]
        A_ID = H[:nI, nI:]
        A_DI = H[nI:, :nI]
        A_DD = H[nI:, nI:]
        S_loc = A_DD - A_DI @ np.linalg.solve(A_II, A_ID) if nI else A_DD
        S[np.ix_(slots, slots)] = S_loc
    S_inv = np.linalg.inv(S)
    Bd = problem.B.toarray()
    middle = np.linalg.inv(Bd @ S_inv @ Bd.T)
    K = S_inv @ Bd.T @ middle @ Bd @ S_inv
    return S_inv - K


def dense_interface_operator(problem):
    """G = (P + I) M - 2 gamma M R M with P the side-swap permutation and
    M = h I the interface mass."""
    trace = problem.partition.trace
    n = trace.n_slots
    M = problem.mesh.h * np.eye(n)
    P = np.eye(n)[trace.pair_perm, :]
    R = dense_resolvent(problem)
    return (P + np.eye(n)) @ M - 2.0 * problem.gamma * M @ R @ M


def apply_to_identity(apply, n):
    """Materialize a linear operator column by column."""
    out = np.empty((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        out[:, k] = apply(e)
    return out


def relaxed_step(problem, g, theta):
    """One Richardson update applied to a trace vector."""
    trace = problem.partition.trace
    _, u_trace = problem.solve_once(g)
    g_tilde = (2.0 * problem.gamma * u_trace - g)[trace.pair_perm]
    return theta * g_tilde + (1.0 - theta) * g


def per_subdomain_local_dofs(part):
    """Every subdomain's local dof table, from the template of
    `partition.local_dofs` mapped through each subdomain's kept dofs.

    Returns (tri_ids, starts, loc): subdomain s = J*N + I's triangles
    tri_ids[starts[s]:starts[s+1]] are the template's moved by (rI, rJ)
    cells, and loc holds the local dof of each of their edges in s's own
    order [interior_of(s), slots_of(s)], -1 on the domain boundary.
    """
    tri_ids, loc = local_dofs(part)
    N, m = part.N, part.mesh.m
    r = m // N
    n_interior = loc.max() + 1 - 4 * r
    J, I = np.divmod(np.arange(N * N), N)
    present = np.stack([J > 0, I > 0, I < N - 1, J < N - 1], axis=1)
    # Side d of s, if s keeps it, is its own side number rank[s, d].
    rank = np.cumsum(present, axis=1) - 1
    side_dof = n_interior + r * rank[:, :, None] + np.arange(r)
    to_own = np.concatenate([
        np.broadcast_to(np.arange(n_interior), (N * N, n_interior)),
        np.where(present[:, :, None], side_dof, -1).reshape(N * N, -1),
    ], axis=1)
    shift = 2 * m * r * J + r * I
    return ((shift[:, None] + tri_ids).ravel(),
            tri_ids.size * np.arange(N * N + 1),
            to_own[:, loc].reshape(-1, 3))


def per_member_local_loads(classes, part, field):
    """Reference loads: each class's members' triangle ids and its shared
    local dof table taken from `per_subdomain_local_dofs`, then one
    bincount per class of those triangles' contributions
    (`per_triangle_loads`) into its local dofs."""
    tri_ids, starts, loc = per_subdomain_local_dofs(part)
    contrib = per_triangle_loads(part.mesh.m, field)
    loads = []
    for cls in classes:
        k, n = cls.members.size, cls.n_local
        size = starts[cls.members[0] + 1] - starts[cls.members[0]]
        rows = starts[cls.members][:, None] + np.arange(size)
        cls_loc = loc[rows[0]]
        keep = cls_loc >= 0
        dofs = cls_loc[keep] + n * np.arange(k)[:, None]
        values = np.take(contrib, tri_ids[rows], axis=0)[:, keep]
        loads.append(
            np.bincount(dofs.ravel(), values.ravel(), minlength=n * k).reshape(k, n).T
        )
    return loads


def per_class_assembly(problem):
    """Reference for the template: each class's A and Z as assembled one
    class at a time.

    A is assembled from the class's first member's triangles in its own
    local dofs (`per_subdomain_local_dofs`).  A_II is the first class's,
    side d's columns of A_IG are the first class's that has side d, and
    W = A_II^-1 A_IG is solved one side at a time.  Class c's Schur block
    is A_GG_c - A_GI_c W[:, cols_c] + gamma h I, from its own A, and Z is
    its inverse.  Returns the list of (A, Z).
    """
    part, mesh = problem.partition, problem.mesh
    tri_ids, starts, loc = per_subdomain_local_dofs(part)
    classes = problem.classes
    own = []
    for cls in classes:
        block = slice(starts[cls.members[0]], starts[cls.members[0] + 1])
        divdiv, mass = fem.element_matrices(mesh, tri_ids[block])
        own.append(fem.assemble_matrix(divdiv + problem.config.beta * mass,
                                       loc[block], cls.n_local))
    nI, r = classes[0].n_interior, mesh.m // part.N
    lu = local_solver._factor(own[0][:nI, :nI], 0.0, "reference A_II")
    W = np.zeros((nI, 4 * r))
    for d in range(4):
        for cls, A in zip(classes, own):
            hit = np.flatnonzero(cls.cols == d * r)
            if hit.size:
                at = nI + hit[0]
                W[:, d * r:(d + 1) * r] = lu.solve(A[:nI, at:at + r].toarray())
                break
    out = []
    for cls, A in zip(classes, own):
        schur = -(A[nI:, :nI] @ W)[:, cls.cols]
        schur += A[nI:, nI:].toarray()
        schur[np.diag_indices_from(schur)] += cls.template.gamma * mesh.h
        out.append((A, local_solver._spd_inverse(schur, "reference Schur block")))
    return out


class DirectSolver:
    """Reference for `ConstrainedRobinSolver`, with no shared block and no
    Schur complement per class.

    Each class's own Robin matrix H_c is factorized by
    `local_solver._factor`, and every Robin solve back-substitutes through
    that factor, on the class's loads (`per_class_loads`).
    X[c] = H_c^-1 E, E the identity on the interface rows, gives the
    block-diagonal trace map `Z_blk` of all members, and the coarse matrix
    is S = B Z_blk B^T.  `solve` corrects its loaded solve
    with a second back-substitution of -B^T mu, mu = S^-1 B w.
    """

    def __init__(self, classes, B):
        self.classes = classes
        self.B = B.tocsr()
        self.n_ifaces, self.n_slots = B.shape
        self._lu, self.X = [], []
        rows, cols, vals = [], [], []
        for cls in classes:
            k, n_own = cls.slots.shape
            lu = local_solver._factor(robin_matrix(cls), 0.0, "reference factor")
            E = np.zeros((cls.n_local, n_own))
            E[cls.n_interior:] = np.eye(n_own)
            X = lu.solve(E) if n_own else E
            self._lu.append(lu)
            self.X.append(X)
            shape = (k, n_own, n_own)
            rows.append(np.broadcast_to(cls.slots[:, :, None], shape).ravel())
            cols.append(np.broadcast_to(cls.slots[:, None, :], shape).ravel())
            vals.append(np.broadcast_to(X[cls.n_interior:], shape).ravel())
        self.Z_blk = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_slots, self.n_slots),
        )
        if self.n_ifaces:
            self._S_lu = local_solver._factor(
                self.B @ self.Z_blk @ self.B.T, 0.0, "reference coarse factor")

    def _backsolve(self, trace_rhs, loads=None):
        """Per class, H_c^-1 of its loads plus `trace_rhs` on its slots,
        and the trace vector of those solves."""
        x, w = [], np.zeros(self.n_slots)
        for c, (cls, lu) in enumerate(zip(self.classes, self._lu)):
            rhs = np.zeros((cls.n_local, cls.members.size))
            rhs[cls.n_interior:] = trace_rhs[cls.slots.T]
            if loads is not None:
                rhs += loads[c]
            x.append(lu.solve(rhs))
            w[cls.slots.T] = x[-1][cls.n_interior:]
        return x, w

    def condense(self, loads):
        """The per-class loads, with their condensed trace load
        f = f_G - A_GI A_II^-1 f_I through each class's own interior
        block."""
        loads = per_class_loads(self.classes, loads)
        f = np.zeros(self.n_slots)
        for cls, f_c in zip(self.classes, loads):
            nI = cls.n_interior
            H = robin_matrix(cls)
            lu = local_solver._factor(H[:nI, :nI], 0.0, "reference interior factor")
            f[cls.slots.T] = f_c[nI:] - H[nI:, :nI] @ lu.solve(f_c[:nI])
        return types.SimpleNamespace(loads=loads, f=f)

    def solve(self, loads, g):
        """`ConstrainedRobinSolver.solve` through each class's own factor;
        `loads` may come from `condense`."""
        loads = getattr(loads, "loads", None) or per_class_loads(self.classes, loads)
        x, w = self._backsolve(self.classes[0].template.h * g, loads)
        mu = np.zeros(0)
        if self.n_ifaces:
            mu = self._S_lu.solve(self.B @ w)
            corr, w_corr = self._backsolve(self.B.T @ mu)
            x = [x_c - c_c for x_c, c_c in zip(x, corr)]
            w = w - w_corr
        interiors = [x_c[:cls.n_interior] for cls, x_c in zip(self.classes, x)]
        return in_subdomain_order(self.classes, interiors), w, mu

    def apply_resolvent(self, rhs):
        w = self.Z_blk @ rhs
        if self.n_ifaces:
            w -= self.Z_blk @ (self.B.T @ self._S_lu.solve(self.B @ w))
        return w


def interface_major_slots(part):
    """The slot of each trace slot in the interface-major numbering that
    the class-major one replaced: fine edge t (in geometric order) of
    interface k has its i-side slot at 2 r k + 2 t and its j-side slot
    right after it."""
    trace, ref = part.trace, sorted_mesh(part.mesh.m)
    r = ref.m // part.N
    x2, y2 = ref.edge_mid2[trace.slot_edge].T
    along = np.where(ref.edge_kind[trace.slot_edge] == VERTICAL, y2, x2)
    return 2 * r * trace.slot_iface + 2 * ((along - 1) // 2 % r) + trace.slot_side


class FlatResolvent:
    """Reference for the class-major resolvent: the constrained Robin
    solves as they ran on the interface-major slots (`interface_major_slots`).

    Each class's members' slots are one flat index, own-slot-major, that
    a gather reshapes to (n_own, members x columns) for one GEMM with the
    class's Z and a scatter writes back.  The coarse correction goes
    through the sparse Y_trace, whose rows are each member's copy of the
    class's Y = Z B_s^T, and the coarse matrix is S = B Y_trace.  The
    solver's own Z, W, A_GI and interior factor are used.  Inputs and
    outputs are in the class-major numbering, moved through the slot map.
    """

    def __init__(self, problem):
        solver = problem.solver
        self.solver, self.classes = solver, problem.classes
        self.h = problem.mesh.h
        self.old = interface_major_slots(problem.partition)
        n = solver.n_slots
        back = np.argsort(self.old)
        self.B = solver.B.tocsc()[:, back].tocsr()
        self.n_ifaces = self.B.shape[0]
        entry = self.B.tocoo()
        slot_iface = np.full(n, -1, dtype=np.int64)
        slot_iface[entry.col] = entry.row
        slot_value = np.zeros(n)
        slot_value[entry.col] = entry.data
        self.flat = [self.old[cls.slots].T.ravel() for cls in self.classes]
        y_rows, y_cols, y_vals = [], [], []
        for cls, Z in zip(self.classes, class_Z(solver)):
            slots = self.old[cls.slots]
            k, n_own = slots.shape
            iface = slot_iface[slots]
            _, first, label = np.unique(iface[0], return_index=True, return_inverse=True)
            adj = iface[:, first]
            Y = (Z * slot_value[slots][0]) @ (label[:, None] == np.arange(first.size))
            shape = (k, n_own, first.size)
            cols = np.broadcast_to(adj[:, None, :], shape)
            keep = cols >= 0
            y_rows.append(np.broadcast_to(slots[:, :, None], shape)[keep])
            y_cols.append(cols[keep])
            y_vals.append(np.broadcast_to(Y, shape)[keep])
        if self.n_ifaces:
            self.Y_trace = sp.csr_matrix(
                (np.concatenate(y_vals), (np.concatenate(y_rows), np.concatenate(y_cols))),
                shape=(n, self.n_ifaces))
            self.S = self.B @ self.Y_trace
            self._S_lu = local_solver._factor(self.S, 0.0, "reference coarse factor")

    def _condensed(self, rhs):
        w = np.empty_like(rhs)
        columns = rhs.shape[1] if rhs.ndim == 2 else 1
        for cls, Z, flat in zip(self.classes, class_Z(self.solver), self.flat):
            x = rhs[flat].reshape(Z.shape[0], cls.members.size * columns)
            w[flat] = (Z @ x).reshape(flat.size, *rhs.shape[1:])
        mu = np.zeros(0)
        if self.n_ifaces:
            mu = self._S_lu.solve(self.B @ w)
            w -= self.Y_trace @ mu
        return w, mu

    def apply_resolvent(self, rhs):
        old_rhs = np.empty_like(rhs)
        old_rhs[self.old] = rhs
        return self._condensed(old_rhs)[0][self.old]

    def solve(self, loads, g):
        """(interiors, trace, mu) of the loaded solve with datum g, through
        one interior solve of all members' loads, class after class, and
        one product with W."""
        solver = self.solver
        loads = per_class_loads(self.classes, loads)
        nI = solver._W.shape[0]
        sizes = [cls.members.size for cls in self.classes]
        v = solver._lu.solve(np.concatenate([f[:nI] for f in loads], axis=1))
        split = np.cumsum(sizes)[:-1]
        A_GI_v = np.split(solver._A_GI @ v, split, axis=1)
        old_g = np.empty_like(g)
        old_g[self.old] = g
        rhs = np.empty(solver.n_slots)
        for c, (cls, flat) in enumerate(zip(self.classes, self.flat)):
            rhs_c = self.h * old_g[flat].reshape(-1, sizes[c])
            rhs_c += loads[c][nI:] - A_GI_v[c][cls.cols]
            rhs[flat] = rhs_c.ravel()
        w, mu = self._condensed(rhs)
        X = np.zeros((solver._W.shape[1], v.shape[1]))
        for cls, flat, x in zip(self.classes, self.flat, np.split(X, split, axis=1)):
            x[cls.cols] = w[flat].reshape(-1, x.shape[1])
        v -= solver._W @ X
        return (in_subdomain_order(self.classes, np.split(v, split, axis=1)),
                w[self.old], mu)


def direct_problem(problem):
    """The problem with a `DirectSolver` in place of its solver."""
    return dataclasses.replace(problem, solver=DirectSolver(problem.classes, problem.B))


def symmetry_maps(part, sub):
    """Signed local-dof maps of subdomain `sub` onto its symmetry images.

    Returns (images, perm, sign), one row per element k of the group of
    `symmetry_generators`: k = 0 is the identity, bit 0 the half-turn and
    bit 1 the reflection, as in the rows of `orbit_table`.  images[k] is
    the image subdomain.  Local dof i of `sub` ([interior_of, slots_of]
    order) maps to local dof perm[k, i] of images[k], the dof whose edge
    sits at the image (`_image`) of i's doubled midpoint.  sign[k, i] is
    +1 where the image of i's edge normal is that edge's normal and -1
    where it is its negative: the half-turn negates every normal, the
    reflection those of the diagonals.  Only the two subdomains' own dofs
    are read, so the cost is O(n_local log n_local) per element.  Raises
    AssertionError unless each map is a bijection that keeps interior dofs
    interior and normals on normals.
    """
    trace, ref = part.trace, sorted_mesh(part.mesh.m)
    N, m = part.N, ref.m

    def dofs(s):
        interior = part.interior_of(s)
        edges = np.concatenate([interior, trace.slot_edge[part.slots_of(s)]])
        J, I = divmod(int(s), N)
        return interior.size, (*ref.edge_mid2[edges].T, I, J, ref.edge_normal[edges])

    n_interior, place = dofs(sub)
    n = place[0].size
    images = np.full(4, sub, dtype=np.int64)
    perm = np.tile(np.arange(n), (4, 1))
    sign = np.ones((4, n))
    for k in range(1, 4):
        key, images[k], n_img = _image(k, m, N, *place)
        img_interior, img_place = dofs(images[k])
        img_key, _, target = _image(0, m, N, *img_place)
        p = _find(img_key, key)
        if (p is None or img_interior != n_interior or img_key.size != n
                or np.any(p[:n_interior] >= n_interior)):
            raise AssertionError(
                f"symmetry element {k} does not map the local dofs of "
                f"subdomain {sub} onto those of subdomain {images[k]}"
            )
        perm[k] = p
        target = target[p]
        sign[k] = np.where((n_img == target).all(axis=1), 1.0, -1.0)
        if not np.array_equal(n_img, sign[k][:, None] * target):
            raise AssertionError(
                f"symmetry element {k} does not map the edge normals of "
                f"subdomain {sub} onto those of subdomain {images[k]}"
            )
    return images, perm, sign


def _image(k: int, m: int, N: int, x2, y2, I, J, normal):
    """(key, subdomain, normal) of edges at doubled midpoints (x2, y2) with
    normals `normal`, on the subdomain in column I and row J, moved by
    group element k: bit 0 is the half-turn, (x2, y2, I, J) -> (2m - x2,
    2m - y2, N-1-I, N-1-J) and normal -> -normal; bit 1 the reflection,
    (x2, y2, I, J) -> (y2, x2, J, I) and (nx, ny) -> (ny, nx).  The key is
    one integer per (midpoint, subdomain) pair."""
    if k & 1:
        x2, y2, I, J, normal = 2 * m - x2, 2 * m - y2, N - 1 - I, N - 1 - J, -normal
    if k & 2:
        x2, y2, I, J, normal = y2, x2, J, I, normal[:, ::-1]
    return ((y2 * (2 * m + 1) + x2) * N + J) * N + I, J * N + I, normal


def _find(keys: np.ndarray, wanted: np.ndarray):
    """Positions p of distinct `keys` with keys[p] == wanted, by one sort;
    None unless every wanted key is among them."""
    order = np.argsort(keys)
    pos = np.searchsorted(keys[order], wanted)
    p = order[np.minimum(pos, keys.size - 1)]
    return p if np.array_equal(keys[p], wanted) else None


def lookup_symmetry_generators(part):
    """Reference for `partition.symmetry_generators`: row k maps slot s to
    the slot of the image (`_image`) of its fine edge's doubled midpoint
    on the image of its subdomain, found by the sorted-key lookup
    `_find` over all slots, with the midpoints of `sorted_mesh`.  Raises
    AssertionError if some image is not a slot."""
    trace, ref = part.trace, sorted_mesh(part.mesh.m)
    N, m = part.N, ref.m
    x2, y2 = ref.edge_mid2[trace.slot_edge].T
    J, I = np.divmod(slot_subdomain(part), N)
    normal = ref.edge_normal[trace.slot_edge]
    keys = [_image(k, m, N, x2, y2, I, J, normal)[0] for k in range(3)]
    gens = _find(keys[0], np.stack(keys[1:]))
    if gens is None:
        raise AssertionError("a symmetry image is not a trace slot")
    return gens
