"""Dense reference constructions shared by the test modules.

Everything here rebuilds operators from first principles (each
subdomain's Robin matrix assembled from its own triangles, then dense
block algebra) so the class-shared, matrix-free production paths have an
independent cross-check on small instances.  The first section holds
reference code that only the tests use: mesh queries, the edge
interpolant, the elementwise divergence, the L2 distance of two discrete
fields, the errors of the direct solve and a class's Robin matrix.
"""

import dataclasses

import numpy as np

from rr_hdiv import fem, local_solver, verify
from rr_hdiv.mesh import build_unit_square_mesh
from rr_hdiv.partition import local_dofs

# Two-point Gauss rule on [-1/2, 1/2], exact for cubics along an edge.
GAUSS2_T = np.array([-0.5, 0.5]) / np.sqrt(3.0)


def n_vertices(mesh):
    return len(mesh.verts)


def tri_coords(mesh):
    """Vertex coordinates per triangle, shape (nt, 3, 2)."""
    return mesh.verts[mesh.tris]


def interior_edges(mesh):
    return np.flatnonzero(~mesh.edge_boundary)


def classify_boundary(mesh):
    """Edge ids lying on the boundary of the unit square.

    Recomputed from vertex coordinates (both endpoints on one boundary
    line), independently of the flags stored at build time.
    """
    p = mesh.verts[mesh.edges[:, 0]]
    q = mesh.verts[mesh.edges[:, 1]]
    on_line = np.zeros(mesh.n_edges, dtype=bool)
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
    p = mesh.verts[mesh.edges[:, 0]]
    q = mesh.verts[mesh.edges[:, 1]]
    mid = 0.5 * (p + q)
    tang = q - p
    vals = np.zeros(mesh.n_edges)
    for t in GAUSS2_T:
        pts = mid + t * tang
        fx, fy = field(pts[:, 0], pts[:, 1])
        vals += 0.5 * (fx * mesh.edge_normal[:, 0] + fy * mesh.edge_normal[:, 1])
    return vals


def divergence(mesh, u):
    """Elementwise (constant) divergence of the field with edge dofs u,
    from the basis divergences of `fem`'s per-shape tables."""
    div = np.array([shape.div for shape in fem._shapes(mesh)])
    return np.einsum("tk,tk->t", u[mesh.tri_edges], div[mesh.tri_shape])


def l2_distance(mesh, u, v):
    """L2 norm of the difference of two discrete fields."""
    _, mass = fem.element_matrices(mesh)
    d = (u - v)[mesh.tri_edges]
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
    diag[cls.n_interior:] = cls.gamma * cls.m_diag
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
    tris = np.flatnonzero(part.tri_sub == s)
    divdiv, mass = fem.element_matrices(mesh, tris)
    elem = divdiv + problem.config.beta * mass
    dofs = loc_of_edge[mesh.tri_edges[tris]]
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    H = np.zeros((local_edges.size, local_edges.size))
    np.add.at(H, (rows[keep], cols[keep]), elem.ravel()[keep])
    nI = interior.size
    H[np.arange(nI, H.shape[0]), np.arange(nI, H.shape[0])] += (
        problem.gamma * part.trace.m_diag[slots]
    )
    return H, nI, slots


def subdomain_load(problem, s):
    """Subdomain s's column of the per-class `problem.local_loads`."""
    for cls, loads in zip(problem.classes, problem.local_loads):
        hit = np.flatnonzero(cls.members == s)
        if hit.size:
            return loads[:, hit[0]]
    raise KeyError(s)


def dense_local_solve(problem, s, f, g):
    """Unconstrained Robin solve of subdomain s with load f (local dof
    order) and datum g on its slots; returns (u_interior, u_interface)."""
    H, nI, _ = subdomain_robin_matrix(problem, s)
    rhs = np.array(f, dtype=float)
    rhs[nI:] += problem.partition.trace.m_diag[problem.partition.slots_of(s)] * g
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
    for sub in range(problem.partition.n_subdomains):
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
    """G = (P + I) M - 2 gamma M R M with P the side-swap permutation."""
    trace = problem.partition.trace
    n = trace.n_slots
    M = np.diag(trace.m_diag)
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


def per_member_local_loads(classes, part, field):
    """Reference loads: each class's members' triangle ids and its shared
    local dof table taken from `partition.local_dofs`, then one bincount
    per class of those triangles' contributions into its local dofs."""
    tri_ids, starts, loc = local_dofs(part)
    contrib = fem.element_loads(part.mesh, field)
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


def direct_classes(classes):
    """The classes with their own factors and no symmetry maps.

    Each class becomes its own representative with only the identity map,
    so a `ConstrainedRobinSolver` on them back-substitutes every trace-map
    column of every class through that class's own factor: the direct
    per-class path that the orbit-shared factors are checked against.
    """
    direct = []
    for cls in classes:
        n = cls.n_local
        diag = np.zeros(n)
        diag[cls.n_interior:] = cls.gamma * cls.m_diag
        direct.append(dataclasses.replace(
            cls, rep=cls.members[0], perm=np.arange(n)[None],
            sign=np.ones((1, n)),
            _lu=local_solver._factor(cls.A, diag, "reference factor"),
        ))
    return direct


def direct_problem(problem):
    """The problem with `direct_classes` and a solver built on them."""
    classes = direct_classes(problem.classes)
    return dataclasses.replace(
        problem, classes=classes,
        solver=local_solver.ConstrainedRobinSolver(classes, problem.B),
    )
