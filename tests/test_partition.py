"""N x N decomposition: interfaces, trace slots, swap, and constraint rows."""

import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp

import helpers
from helpers import (
    class_Z,
    interior_edges,
    lookup_symmetry_generators,
    per_subdomain_local_dofs,
    slot_subdomain,
    sorted_mesh,
    symmetry_maps,
    tri_coords,
    triangle_subdomains,
)
from rr_hdiv import fem, local_solver
from rr_hdiv import partition as partition_module
from rr_hdiv.mesh import DIAGONAL, HORIZONTAL, VERTICAL, build_unit_square_mesh
from rr_hdiv.partition import (
    build_constraint,
    partition,
    template_edges,
    template_symmetry_maps,
)


# (m, N) of the comparisons with the sort and lookup references.
REFERENCE_GRID = [(N * r, N) for N in range(1, 7) for r in (1, 2, 3, 4)] + [
    (21, 7), (64, 8), (256, 32)
]


@pytest.fixture(scope="module")
def part4(mesh32):
    return partition(mesh32, 4)


@pytest.fixture(scope="module")
def B4(part4):
    return build_constraint(part4)


def _interfaces(part):
    """(i, j, fine) per coarse interface, read off the trace layout: the
    subdomains on its two sides and its fine edges in slot order.  Each
    side of an interface is one run of r consecutive slots of one
    subdomain, and `pair_perm` carries the i-side's run onto the j-side's
    in order."""
    trace = part.trace
    r = part.mesh.m // part.N
    i_side = np.flatnonzero(trace.slot_side == 0)
    runs = i_side[np.argsort(trace.slot_iface[i_side], kind="stable")]
    runs = runs.reshape(part.n_interfaces, r)
    partner = trace.pair_perm[runs]
    assert np.all(np.diff(runs, axis=1) == 1) and np.all(np.diff(partner, axis=1) == 1)
    assert np.all(trace.slot_iface[runs] == np.arange(part.n_interfaces)[:, None])
    sub = slot_subdomain(part)
    i, j = sub[runs], sub[partner]
    assert np.all(i == i[:, :1]) and np.all(j == j[:, :1])
    return i[:, 0], j[:, 0], trace.slot_edge[runs]


def test_incompatible_resolution_rejected(mesh8):
    with pytest.raises(ValueError):
        partition(mesh8, 3)
    with pytest.raises(ValueError):
        partition(mesh8, 0)


def test_single_subdomain(mesh8):
    part = partition(mesh8, 1)
    assert part.n_interfaces == 0
    assert part.trace.n_slots == 0
    free = interior_edges(mesh8)
    np.testing.assert_array_equal(part.interior_of(0), free)
    np.testing.assert_array_equal(part.interior, free[None])
    np.testing.assert_array_equal(part.slot_range, [[0, 0]])
    assert part.slots_of(0).size == 0
    B = build_constraint(part)
    assert B.shape == (0, 0)


@pytest.mark.parametrize("N,m", [(2, 8), (4, 32)])
def test_interface_counts(N, m):
    mesh = build_unit_square_mesh(m)
    part = partition(mesh, N)
    assert part.n_interfaces == 2 * N * (N - 1)
    assert part.trace.n_slots == 4 * N * (N - 1) * (m // N)
    _, _, fine = _interfaces(part)
    assert fine.shape == (part.n_interfaces, m // N)
    i_side = part.trace.slot_side == 0
    edge_len = sorted_mesh(m).edge_len[part.trace.slot_edge[i_side]]
    length = np.bincount(part.trace.slot_iface[i_side], edge_len)
    np.testing.assert_allclose(length, 1.0 / N, rtol=1e-14)


def test_interface_geometry(part4, mesh32):
    N = part4.N
    ref = sorted_mesh(mesh32.m)
    i, j, fine = _interfaces(part4)
    assert np.all(i < j)
    for a, b, edges in zip(i, j, fine):
        kinds = ref.edge_kind[edges]
        assert len(set(kinds)) == 1
        assert not np.any(kinds == DIAGONAL)
        # the normal points from subdomain i into its neighbor j
        (Ja, Ia), (Jb, Ib) = divmod(a, N), divmod(b, N)
        normal = np.array([Ib - Ia, Jb - Ja], dtype=float)
        assert np.abs(normal).sum() == 1.0
        np.testing.assert_allclose(
            ref.edge_normal[edges], np.tile(normal, (len(edges), 1)), atol=1e-15
        )
        # collinear: the coordinate along the normal direction is constant;
        # along the interface the fine edges run in geometric order
        mids = ref.edge_mid2[edges]
        axis = 0 if normal[0] else 1
        assert len(set(mids[:, axis])) == 1
        assert np.all(np.diff(mids[:, 1 - axis]) == 2)


def test_every_free_dof_claimed_once(part4, mesh32):
    free = interior_edges(mesh32)
    interior_count = np.zeros(mesh32.n_edges, dtype=int)
    for s in range(part4.N ** 2):
        interior_count[part4.interior_of(s)] += 1
    trace_count = np.zeros(mesh32.n_edges, dtype=int)
    np.add.at(trace_count, part4.trace.slot_edge, 1)
    assert np.all(interior_count[free] + trace_count[free] // 2 == 1)
    # interface edges carry exactly two slots, one per side
    on_gamma = trace_count > 0
    assert np.all(trace_count[on_gamma] == 2)
    assert np.all(interior_count[on_gamma] == 0)


def test_swap_is_fixed_point_free_involution(part4):
    perm = part4.trace.pair_perm
    np.testing.assert_array_equal(perm[perm], np.arange(len(perm)))
    assert not np.any(perm == np.arange(len(perm)))
    # Each side's run of r slots goes whole, in order, onto the run of the
    # same edges on the neighbour's side.
    r = part4.mesh.m // part4.N
    runs = perm.reshape(-1, r)
    assert np.all(runs[:, 0] % r == 0)
    assert np.all(np.diff(runs, axis=1) == 1)


def test_paired_slots_agree(part4):
    trace = part4.trace
    perm = trace.pair_perm
    # same fine edge and interface on both sides, different subdomains
    np.testing.assert_array_equal(trace.slot_edge[perm], trace.slot_edge)
    np.testing.assert_array_equal(trace.slot_iface[perm], trace.slot_iface)
    sub = slot_subdomain(part4)
    assert np.all(sub[perm] != sub)
    np.testing.assert_array_equal(trace.slot_side[perm], 1 - trace.slot_side)
    # the j-side is the neighbour right of or above the i-side
    i_side = trace.slot_side == 0
    step = sub[perm][i_side] - sub[i_side]
    vertical = sorted_mesh(part4.mesh.m).edge_kind[trace.slot_edge[i_side]] == VERTICAL
    np.testing.assert_array_equal(step, np.where(vertical, 1, part4.N))


def test_trace_mass_is_fine_edge_length():
    """The premise of M = h I: over `REFERENCE_GRID`, every interface
    edge of the reference mesh's tables has length exactly `mesh.h`.  The
    package applies the interface mass as that one scalar, so this fails
    if any interface edge ever has another length."""
    for m, N in REFERENCE_GRID:
        mesh = build_unit_square_mesh(m)
        length = sorted_mesh(m).edge_len[partition(mesh, N).trace.slot_edge]
        assert np.array_equal(length, np.full(length.size, mesh.h)), (m, N)


def test_constraint_shape_and_entries(B4, part4, mesh32):
    n_if = part4.n_interfaces
    r = mesh32.m // part4.N
    assert B4.shape == (n_if, part4.trace.n_slots)
    counts = np.diff(B4.tocsr().indptr)
    assert np.all(counts == 2 * r)
    dense = B4.toarray()
    trace = part4.trace
    expect = np.zeros_like(dense)
    edge_len = sorted_mesh(mesh32.m).edge_len[trace.slot_edge]
    expect[trace.slot_iface, np.arange(trace.n_slots)] = (
        edge_len * (1.0 - 2.0 * trace.slot_side)
    )
    np.testing.assert_allclose(dense, expect, atol=1e-16)


def test_constraint_rows_orthogonal(B4):
    gram = (B4 @ B4.T).toarray()
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) == 0.0
    assert np.all(np.diag(gram) > 0)  # full row rank


def test_constraint_swap_antisymmetry(B4, part4):
    dense = B4.toarray()
    np.testing.assert_allclose(
        dense[:, part4.trace.pair_perm], -dense, atol=1e-16
    )


def test_continuous_trace_in_kernel(B4, part4, mesh32, rng):
    values = rng.standard_normal(mesh32.n_edges)
    g = values[part4.trace.slot_edge]
    np.testing.assert_allclose(B4 @ g, 0.0, atol=1e-14)


def test_one_sided_indicator_row_value(B4, part4, mesh32):
    trace = part4.trace
    g = np.zeros(trace.n_slots)
    pick = (trace.slot_iface == 0) & (trace.slot_side == 0)
    g[pick] = 1.0
    out = B4 @ g
    assert out[0] == pytest.approx(1.0 / part4.N)  # (m/N) edges of length h
    np.testing.assert_allclose(out[1:], 0.0, atol=1e-16)


def test_projection_onto_kernel(B4, rng):
    g = rng.standard_normal(B4.shape[1])
    Bd = B4.toarray()
    gram = Bd @ Bd.T
    proj = g - Bd.T @ np.linalg.solve(gram, Bd @ g)
    assert np.max(np.abs(Bd @ proj)) < 1e-12


def test_no_diagonal_edges_on_interfaces(part4, mesh32):
    assert not np.any(sorted_mesh(mesh32.m).edge_kind[part4.trace.slot_edge] == DIAGONAL)


def test_fine_edges_belong_to_one_interface(part4):
    seen = {}
    _, _, fine = _interfaces(part4)
    for index, edges in enumerate(fine):
        for e in edges:
            assert e not in seen
            seen[e] = index
    assert len(seen) == part4.trace.n_slots // 2


def test_interfaces_enumerated_by_position(part4, mesh32):
    _, _, fine = _interfaces(part4)
    mid2 = sorted_mesh(mesh32.m).edge_mid2
    mids = [tuple(mid2[edges].mean(axis=0)[::-1]) for edges in fine]
    assert mids == sorted(mids)
    assert len(set(mids)) == len(mids)


def test_subdomain_triangle_map(part4, mesh32):
    """Each subdomain's triangles, the template's r x r block of cells
    moved to it (`per_subdomain_local_dofs`), are those whose centroids
    lie in its square."""
    N = part4.N
    cents = tri_coords(mesh32).mean(axis=1)
    cell = np.floor(cents * N).astype(int)
    tri_sub = cell[:, 1] * N + cell[:, 0]
    np.testing.assert_array_equal(triangle_subdomains(mesh32, N), tri_sub)
    tri_ids, starts, _ = per_subdomain_local_dofs(part4)
    for s in range(part4.N ** 2):
        np.testing.assert_array_equal(tri_ids[starts[s]:starts[s + 1]],
                                      np.flatnonzero(tri_sub == s))


def test_edge_sets_match_triangle_scan(part4, mesh32):
    """Reference: scan every triangle for the subdomain edge sets."""
    ref = sorted_mesh(mesh32.m)
    tri_sub = triangle_subdomains(mesh32, part4.N)
    on_gamma = np.zeros(mesh32.n_edges, dtype=bool)
    on_gamma[part4.trace.slot_edge] = True
    free_interior = ~ref.edge_boundary & ~on_gamma
    slot_sub = slot_subdomain(part4)
    for s in range(part4.N ** 2):
        mine = np.zeros(mesh32.n_edges, dtype=bool)
        for t in np.flatnonzero(tri_sub == s):
            mine[ref.tri_edges[t]] = True
        np.testing.assert_array_equal(
            part4.interior_of(s), np.flatnonzero(mine & free_interior)
        )
        np.testing.assert_array_equal(
            np.sort(part4.trace.slot_edge[part4.slots_of(s)]),
            np.flatnonzero(mine & on_gamma),
        )
        np.testing.assert_array_equal(
            part4.slots_of(s), np.flatnonzero(slot_sub == s)
        )


@pytest.mark.parametrize("N,r", sorted(
    {(2, 4), (3, 4), (4, 8), (5, 2)} | {(N, m // N) for m, N in REFERENCE_GRID}))
def test_symmetry_generators(N, r):
    """Half-turn and reflection (`lookup_symmetry_generators`): commuting
    fixed-point-free involutions that respect the side swap and the
    coarse interfaces, whose product has no fixed point either, so that
    every orbit of the group has 4 slots, over `REFERENCE_GRID` and
    more."""
    part = partition(build_unit_square_mesh(N * r), N)
    trace = part.trace
    slots = np.arange(trace.n_slots)
    gens = lookup_symmetry_generators(part)
    assert gens.shape == (2, trace.n_slots)
    for p in gens:
        np.testing.assert_array_equal(np.sort(p), slots)
        np.testing.assert_array_equal(p[p], slots)
        assert not np.any(p == slots)
        np.testing.assert_array_equal(p[trace.pair_perm], trace.pair_perm[p])
        # one coarse interface maps onto one coarse interface, whole
        image = np.zeros((part.n_interfaces, part.n_interfaces), dtype=int)
        np.add.at(image, (trace.slot_iface, trace.slot_iface[p]), 1)
        assert np.all(np.count_nonzero(image, axis=1) == 1)
        assert np.all(image.max(axis=1, initial=0) == 2 * r)
    half, refl = gens
    np.testing.assert_array_equal(half[refl], refl[half])
    assert not np.any(half[refl] == slots)


@pytest.mark.parametrize("m,N", REFERENCE_GRID)
def test_symmetry_generators_match_lookup(m, N):
    """The slots that `lookup_symmetry_generators` finds are the images of
    each slot's midpoint and subdomain: under the half-turn (2m - x2,
    2m - y2) on subdomain (N-1-J, N-1-I), under the reflection (y2, x2)
    on (I, J); with the dtype of a slot index."""
    part = partition(build_unit_square_mesh(m), N)
    half, refl = gens = lookup_symmetry_generators(part)
    assert gens.shape == (2, part.trace.n_slots) and gens.dtype == np.int64
    mid = sorted_mesh(m).edge_mid2[part.trace.slot_edge]
    sub = slot_subdomain(part)
    J, I = np.divmod(sub, N)
    np.testing.assert_array_equal(mid[half], 2 * m - mid)
    np.testing.assert_array_equal(sub[half], (N - 1 - J) * N + N - 1 - I)
    np.testing.assert_array_equal(mid[refl], mid[:, ::-1])
    np.testing.assert_array_equal(sub[refl], I * N + J)


def _local_edges(part, s):
    return np.concatenate([part.interior_of(s), part.trace.slot_edge[part.slots_of(s)]])


@pytest.mark.parametrize("N,r", [(1, 4), (2, 4), (3, 4), (4, 8), (5, 2)])
def test_symmetry_maps_match_generators(N, r):
    """Every subdomain's signed local-dof maps agree with a full-mesh
    midpoint lookup on its edges, with the slot permutations of
    `lookup_symmetry_generators` on its slots and with the images of its edge
    normals (-1 everywhere for the half-turn, on the diagonals for the
    reflection)."""
    part = partition(build_unit_square_mesh(N * r), N)
    mesh = sorted_mesh(N * r)
    side = 2 * mesh.m + 1
    edge_at = np.full(side * side, -1)
    edge_at[mesh.edge_mid2[:, 1] * side + mesh.edge_mid2[:, 0]] = np.arange(mesh.n_edges)
    half, refl = lookup_symmetry_generators(part)
    elements = [np.arange(part.trace.n_slots), half, refl, half[refl]]
    for s in range(N * N):
        images, perm, sign = symmetry_maps(part, s)
        edges = _local_edges(part, s)
        n_interior = part.interior_of(s).size
        diagonal = mesh.edge_kind[edges] == DIAGONAL
        J, I = divmod(s, N)
        for k in range(4):
            x2, y2 = mesh.edge_mid2[edges].T
            iI, iJ = I, J
            if k & 1:
                x2, y2, iI, iJ = side - 1 - x2, side - 1 - y2, N - 1 - iI, N - 1 - iJ
            if k & 2:
                x2, y2, iI, iJ = y2, x2, iJ, iI
            assert images[k] == iJ * N + iI
            img = images[k]
            np.testing.assert_array_equal(np.sort(perm[k]), np.arange(edges.size))
            np.testing.assert_array_equal(
                _local_edges(part, img)[perm[k]], edge_at[y2 * side + x2]
            )
            np.testing.assert_array_equal(
                part.slots_of(img)[perm[k][n_interior:] - n_interior],
                elements[k][part.slots_of(s)],
            )
            expected = np.where((k & 2) > 0, np.where(diagonal, -1.0, 1.0), 1.0)
            np.testing.assert_array_equal(sign[k], -expected if k & 1 else expected)


@pytest.mark.parametrize("N,r", [(1, 4), (2, 1), (2, 3), (3, 5), (4, 8), (6, 4)])
def test_template_symmetry_maps_match_reference(N, r):
    """The template's interior maps are the interior rows of subdomain 0's
    reference maps (`symmetry_maps`): the half-turn's (k = 1) and the
    reflection's (k = 2), permutation and sign."""
    part = partition(build_unit_square_mesh(N * r), N)
    perm, sign = template_symmetry_maps(part)
    _, ref_perm, ref_sign = symmetry_maps(part, 0)
    n_interior = part.interior_of(0).size
    assert perm.shape == sign.shape == (2, n_interior)
    np.testing.assert_array_equal(perm, ref_perm[1:3, :n_interior])
    np.testing.assert_array_equal(sign, ref_sign[1:3, :n_interior])


def test_template_symmetry_maps_reject_broken_normal(mesh8, monkeypatch):
    """A diagonal normal that the reflection does not carry onto plus or
    minus itself is refused."""
    normals = partition_module.NORMALS.copy()
    normals[DIAGONAL] = [1.0, -0.5]
    monkeypatch.setattr(partition_module, "NORMALS", normals)
    with pytest.raises(AssertionError, match="reflection x <-> y does not map"):
        template_symmetry_maps(partition(mesh8, 2))


def test_symmetry_maps_reject_broken_normal(mesh8, monkeypatch):
    """An edge normal that the symmetry does not carry onto a normal, in
    the reference tables that `symmetry_maps` reads."""
    part = partition(mesh8, 2)
    ref = sorted_mesh(mesh8.m)
    normal = ref.edge_normal.copy()
    normal[part.interior_of(0)[0]] *= 2.0
    broken = types.SimpleNamespace(**{**vars(ref), "edge_normal": normal})
    monkeypatch.setattr(helpers, "sorted_mesh", lambda m: broken)
    with pytest.raises(AssertionError, match="edge normals of subdomain 0"):
        symmetry_maps(part, 0)


def test_symmetry_generators_empty_trace(mesh8):
    gens = lookup_symmetry_generators(partition(mesh8, 1))
    assert gens.shape == (2, 0)


def _reference_partition(mesh, N):
    """The decomposition from the distinct (edge, subdomain) incidences,
    found by hashing, with sets compared through `np.unique`.  The trace
    slots are first laid out by interface, each fine edge's i-side slot
    before its j-side slot, then sorted into the class-major order: by
    the class of the slot's subdomain (its number of sides on the domain
    boundary, then the key I == 0, I == N-1, J == 0, J == N-1), the
    subdomain, the side of it (bottom, left, right, top) and the position
    along that side.

    Returns (tri_sub, interior_edges, sub_slots, trace arrays by name,
    sides), from the tables of `sorted_mesh`.  sides is (side_start,
    slot_d, slot_t): the first slot of each subdomain side, -1 where no
    slot lies on it, and each slot's side (bottom 0, left 1, right 2,
    top 3) and position along it.
    """
    tri_sub = triangle_subdomains(mesh, N)
    mesh = sorted_mesh(mesh.m)
    m = mesh.m
    r = m // N
    n_subs = N * N

    # Interfaces bottom-to-top, left-to-right; fine edges by midpoint.
    raw = []
    for J in range(N):
        for I in range(N - 1):
            raw.append(((2 * r * (I + 1), 2 * r * J + r), J * N + I, J * N + I + 1,
                        VERTICAL))
    for J in range(N - 1):
        for I in range(N):
            raw.append(((2 * r * I + r, 2 * r * (J + 1)), J * N + I, (J + 1) * N + I,
                        HORIZONTAL))
    raw.sort(key=lambda item: (item[0][1], item[0][0]))
    edge_of = {tuple(p): e for e, p in enumerate(mesh.edge_mid2.tolist())}
    fine = []
    for (x2, y2), _, _, kind in raw:
        for t in range(r):
            off = 2 * t - (r - 1)
            fine.append(edge_of[(x2, y2 + off) if kind == VERTICAL else (x2 + off, y2)])
    gamma_edges = np.array(fine, dtype=np.int64)
    assert np.unique(gamma_edges).size == gamma_edges.size
    on_gamma = np.zeros(mesh.n_edges, dtype=bool)
    on_gamma[gamma_edges] = True

    pairs = np.unique(mesh.tri_edges.ravel() * n_subs + np.repeat(tri_sub, 3))
    pair_edge, pair_sub = np.divmod(pairs, n_subs)
    claims = np.bincount(pair_edge, minlength=mesh.n_edges)
    free_interior = ~mesh.edge_boundary & ~on_gamma
    assert np.all(claims[free_interior] == 1)
    assert np.all(claims[on_gamma] == 2)
    keep = free_interior[pair_edge]
    edge, sub = pair_edge[keep], pair_sub[keep]
    interior_edges = [edge[sub == s] for s in range(n_subs)]

    n_if = len(raw)
    iface_i = np.array([item[1] for item in raw], dtype=np.int64)
    iface_j = np.array([item[2] for item in raw], dtype=np.int64)
    slot_iface = np.repeat(np.arange(n_if, dtype=np.int64), 2 * r)
    slot_side = np.tile(np.array([0, 1], dtype=np.int64), n_if * r)
    slot_sub = np.where(slot_side == 0, iface_i[slot_iface], iface_j[slot_iface])
    slot_edge = np.repeat(gamma_edges, 2)
    keep = on_gamma[pair_edge]
    assert np.array_equal(
        np.unique(slot_sub * mesh.n_edges + slot_edge),
        np.sort(pair_sub[keep] * mesh.n_edges + pair_edge[keep]),
    )
    J, I = np.divmod(slot_sub, N)
    edge = [I == 0, I == N - 1, J == 0, J == N - 1]
    key = 16 * sum(edge) + 8 * edge[0] + 4 * edge[1] + 2 * edge[2] + edge[3]
    # The slot's side of its subdomain: bottom 0 or left 1 on the j-side
    # of a horizontal or vertical interface, top 3 or right 2 on its i-side.
    vertical = np.array([item[3] for item in raw])[slot_iface] == VERTICAL
    side = np.where(slot_side == 1, np.where(vertical, 1, 0), np.where(vertical, 2, 3))
    along = np.tile(np.repeat(np.arange(r), 2), n_if)
    order = np.lexsort((along, side, slot_sub, key))
    rank = np.argsort(order)
    trace = {
        "slot_iface": slot_iface[order],
        "slot_edge": slot_edge[order],
        "slot_sub": slot_sub[order],
        "slot_side": slot_side[order],
        "pair_perm": rank[(np.arange(slot_edge.size) ^ 1)[order]],
    }
    sub_slots = [np.flatnonzero(trace["slot_sub"] == s) for s in range(n_subs)]
    slot_d, slot_t = side[order], along[order]
    side_start = np.full((n_subs, 4), -1, dtype=np.int64)
    head = np.flatnonzero(slot_t == 0)
    side_start[trace["slot_sub"][head], slot_d[head]] = head
    return tri_sub, interior_edges, sub_slots, trace, (side_start, slot_d, slot_t)


def _reference_local_dofs(mesh, tri_sub, interior_edges, sub_slots, trace):
    """The local dof table by sorting and ranking: each edge's owner is
    scattered from its triangles, then interior edges and trace slots are
    ranked within their runs of equal owner.  Returns (tri_ids, starts,
    loc) as `per_subdomain_local_dofs` does."""
    mesh = sorted_mesh(mesh.m)

    def rank_in_runs(owner):
        return np.arange(owner.size) - np.searchsorted(owner, owner)

    n_subs = len(interior_edges)
    n_slots = trace["slot_edge"].size
    tri_ids = np.argsort(tri_sub, kind="stable")
    starts = np.searchsorted(tri_sub[tri_ids], np.arange(n_subs + 1))
    sub = tri_sub[tri_ids][:, None]
    edges = mesh.tri_edges[tri_ids]
    owner = np.zeros(mesh.n_edges, dtype=np.int64)
    owner[edges] = sub  # exact on interior edges, the only ones read
    interior = np.concatenate(interior_edges)
    rank = np.full(mesh.n_edges, -1, dtype=np.int64)
    rank[interior] = rank_in_runs(owner[interior])
    loc = rank[edges]
    if n_slots:
        slot_sub = trace["slot_sub"]
        n_interior = np.bincount(owner[interior], minlength=n_subs)
        owned = np.concatenate(sub_slots)
        slot_rank = np.empty(n_slots, dtype=np.int64)
        slot_rank[owned] = rank_in_runs(slot_sub[owned])
        i_side = np.flatnonzero(trace["slot_side"] == 0)
        first_slot = np.full(mesh.n_edges, -1, dtype=np.int64)
        first_slot[trace["slot_edge"][i_side]] = i_side
        slot = first_slot[edges]
        on_gamma = slot >= 0
        other = trace["pair_perm"][slot]
        slot = np.where(on_gamma, np.where(slot_sub[slot] != sub, other, slot), 0)
        loc = np.where(on_gamma, n_interior[sub] + slot_rank[slot], loc)
    return tri_ids, starts, loc


@pytest.mark.parametrize("m,N", REFERENCE_GRID)
def test_partition_matches_unique_reference(m, N):
    mesh = build_unit_square_mesh(m)
    part = partition(mesh, N)
    _, interior_edges, sub_slots, trace, sides = _reference_partition(mesh, N)
    # Every subdomain's interior is one row of a table and its slots one
    # range: the reference's sets, found by hashing, must be so too.
    first = [s[0] if s.size else 0 for s in sub_slots]
    expected = {
        "interior": np.stack(interior_edges),
        "slot_range": np.array([[a, a + s.size] for a, s in zip(first, sub_slots)]),
        "side_start": sides[0],
    }
    for name, expect in expected.items():
        got = getattr(part, name)
        np.testing.assert_array_equal(got, expect, err_msg=name)
        assert got.dtype == expect.dtype == np.int64, name
    assert part.n_interfaces == 2 * N * (N - 1)
    for s in range(N * N):
        np.testing.assert_array_equal(part.interior_of(s), interior_edges[s])
        np.testing.assert_array_equal(part.slots_of(s), sub_slots[s])
    # The slots' subdomains are not stored: they come from side_start.
    got_trace = {**vars(part.trace), "slot_sub": slot_subdomain(part)}
    for name, expect in trace.items():
        got = got_trace[name]
        np.testing.assert_array_equal(got, expect, err_msg=name)
        assert got.dtype == expect.dtype, name
    # side_start is -1 exactly on the sides on the domain boundary, and
    # side_start[s, d] + arange(r) are side d's slots in geometric order.
    J, I = np.divmod(np.arange(N * N), N)
    boundary = np.stack([J == 0, I == 0, I == N - 1, J == N - 1], axis=1)
    np.testing.assert_array_equal(part.side_start < 0, boundary)
    _, slot_d, slot_t = sides
    np.testing.assert_array_equal(
        part.side_start[trace["slot_sub"], slot_d] + slot_t, np.arange(slot_t.size))


@pytest.mark.parametrize("m,N", REFERENCE_GRID)
def test_local_dofs_match_sort_reference(m, N):
    """The template of `template_edges`, moved to each subdomain and
    mapped through its kept dofs, is every subdomain's table by sorting
    and ranking."""
    mesh = build_unit_square_mesh(m)
    expect = _reference_local_dofs(mesh, *_reference_partition(mesh, N)[:4])
    got_tables = per_subdomain_local_dofs(partition(mesh, N))
    for got, ref in zip(got_tables, expect, strict=True):
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == ref.dtype


def test_local_dofs_reads_subdomain_zero_only():
    """The template's edges (`template_edges`) and its matrix
    (`fem.assemble` of the r x r block) are made from r alone, whatever
    N.  At N=64, r=8 their tracemalloc peak is 88 KB, where a check of
    every subdomain's triangles against the template peaked at 44 MB
    (177 MB at N=128).  Bound: 1 MB."""
    mesh = build_unit_square_mesh(512)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        edges = template_edges(8)
        A = fem.assemble(mesh, 1.0, 8, edges)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert A.shape == (edges.size, edges.size) == (3 * 8 * 8 + 2 * 8,) * 2


# The index arithmetic of `partition` against the reference mesh's tables,
# over every class shape: one subdomain, corners only, and with edge and
# interior classes, at interfaces of one to eight fine edges.
CROSS_GRID = [(N, r) for N in (1, 2, 3, 4, 5, 8) for r in (1, 2, 3, 5, 8)]


@pytest.mark.parametrize("N,r", CROSS_GRID)
def test_interfaces_agree_with_sorted_mesh(N, r):
    """Each interface's fine edges, in slot order, are the reference
    edges at the midpoints of its place in the numbering, in geometric
    order along it, of its kind and off the boundary.  Together the
    interfaces hold each edge at most once, and they are exactly the
    non-boundary axis-aligned edges on internal subdomain lines: no
    diagonal lies on an interface."""
    m = N * r
    part, ref = partition(build_unit_square_mesh(m), N), sorted_mesh(m)
    i, j, fine = _interfaces(part)
    Ji, Ii = np.divmod(i, N)
    vertical = j - i == 1
    along = 2 * np.arange(r) + 1
    corner_x, corner_y = (2 * r * Ii)[:, None], (2 * r * Ji)[:, None]
    x2 = np.where(vertical[:, None], corner_x + 2 * r, corner_x + along)
    y2 = np.where(vertical[:, None], corner_y + along, corner_y + 2 * r)
    np.testing.assert_array_equal(ref.edge_mid2[fine], np.stack([x2, y2], axis=-1))
    kind = np.where(vertical, VERTICAL, HORIZONTAL)[:, None]
    np.testing.assert_array_equal(ref.edge_kind[fine], np.broadcast_to(kind, fine.shape))
    assert not np.any(ref.edge_boundary[fine])

    on_gamma = np.zeros(ref.n_edges, dtype=bool)
    on_gamma[fine] = True
    assert np.count_nonzero(on_gamma) == fine.size
    on_line = np.zeros(2 * m + 1, dtype=bool)  # subdomain lines x2, y2 = 2rk
    on_line[::2 * r] = True
    on_x, on_y = on_line[ref.edge_mid2].T
    expect = ~ref.edge_boundary & (((ref.edge_kind == VERTICAL) & on_x)
                                   | ((ref.edge_kind == HORIZONTAL) & on_y))
    np.testing.assert_array_equal(on_gamma, expect)
    assert not np.any(on_gamma & (ref.edge_kind == DIAGONAL))


@pytest.mark.parametrize("N,r", CROSS_GRID)
def test_ownership_agrees_with_sorted_mesh(N, r):
    """Interior edges and slots name the subdomains of the reference
    mesh's triangles.

    Per edge, over its triangle incidences, bincounts give the count c,
    the sum s1 and the square sum s2 of the incident subdomain ids.
    Every edge has c <= 2; it then has one owning subdomain iff c == 1 or
    2 s2 == s1^2, and for c == 2 the pair (s1, s2) fixes its unordered
    pair of subdomains {a, b}: a + b = s1, a^2 + b^2 = s2.  So every free
    non-interface edge has one owner, that of the subdomain whose
    interior holds it, the interior sets hold exactly those edges, and
    the two slots of an interface edge name its two distinct subdomains.
    The sums are integers below 2^53, exact in float64.
    """
    m = N * r
    mesh = build_unit_square_mesh(m)
    part, ref = partition(mesh, N), sorted_mesh(m)
    trace = part.trace
    sub = np.repeat(triangle_subdomains(mesh, N), 3).astype(float)
    edges = ref.tri_edges.ravel()
    c = np.bincount(edges, minlength=ref.n_edges)
    s1 = np.bincount(edges, sub, minlength=ref.n_edges)
    s2 = np.bincount(edges, sub * sub, minlength=ref.n_edges)
    assert c.max() <= 2
    one_owner = (c == 1) | ((c == 2) & (2.0 * s2 == s1 * s1))
    on_gamma = np.zeros(ref.n_edges, dtype=bool)
    on_gamma[trace.slot_edge] = True
    free_interior = ~ref.edge_boundary & ~on_gamma
    assert np.all(one_owner[free_interior])
    assert np.all((c[on_gamma] == 2) & ~one_owner[on_gamma])

    owner = np.arange(N * N)[:, None]
    assert part.interior.size == np.count_nonzero(free_interior)
    assert np.all(free_interior[part.interior])
    np.testing.assert_array_equal(s1[part.interior], c[part.interior] * owner)

    i_side = trace.slot_side == 0
    slot_sub = slot_subdomain(part)
    a, b = slot_sub[i_side], slot_sub[trace.pair_perm[i_side]]
    e = trace.slot_edge[i_side]
    assert np.all(a != b)
    np.testing.assert_array_equal(a + b, s1[e])
    np.testing.assert_array_equal(a * a + b * b, s2[e])


@pytest.mark.parametrize("N,r", CROSS_GRID)
def test_constraint_blocks_agree_with_layout(N, r):
    """Every member's columns of B are its class's block built from the
    layout: one row per own side, at the `slot_iface` of the member's
    side, with -h on a bottom or left side and +h on a right or top one.
    The solver reads its `adj` and Y = Z B_s^T off B; they equal the
    layout's interfaces and block.  With no constraint the block has no
    rows."""
    mesh = build_unit_square_mesh(N * r)
    part = partition(mesh, N)
    B = build_constraint(part)
    classes = local_solver.build_local_systems(part, 1.0, 0.5)
    solver = local_solver.ConstrainedRobinSolver(classes, B)
    unconstrained = local_solver.ConstrainedRobinSolver(
        classes, sp.csr_matrix((0, part.trace.n_slots)))
    B = B.toarray()
    Yts = [Yt for group in solver._groups for Yt in group.Yt]
    adjs = [adj for group in solver._groups for adj in group.adj]
    for cls, Z, Yt, adj in zip(classes, class_Z(solver), Yts, adjs, strict=True):
        n_own = cls.cols.size
        sides = np.flatnonzero(part.side_start[cls.members[0]] >= 0)
        ifaces = part.trace.slot_iface[part.side_start[cls.members][:, sides]]
        sign = np.where(cls.cols // r < 2, -1.0, 1.0)
        B_s = (np.arange(sides.size)[:, None] == np.arange(n_own) // r) * (
            sign * mesh.h)
        for member_ifaces, slots in zip(ifaces, cls.slots, strict=True):
            block = np.zeros((part.n_interfaces, n_own))
            block[member_ifaces] = B_s
            np.testing.assert_array_equal(B[:, slots], block)
        np.testing.assert_array_equal(adj, ifaces)
        np.testing.assert_array_equal(Yt, (Z @ B_s.T).T)
    for group in unconstrained._groups:
        assert group.Yt.shape[1] == 0 and group.adj.shape[-1] == 0
