"""N x N decomposition: interfaces, trace slots, swap, and constraint rows."""

import dataclasses

import numpy as np
import pytest

from helpers import per_subdomain_local_dofs, symmetry_maps, tri_coords
from rr_hdiv.mesh import DIAGONAL, HORIZONTAL, VERTICAL, build_unit_square_mesh
from rr_hdiv.partition import (
    build_constraint,
    orbit_table,
    partition,
    symmetry_generators,
)


@pytest.fixture(scope="module")
def part4(mesh32):
    return partition(mesh32, 4)


@pytest.fixture(scope="module")
def B4(part4, mesh32):
    return build_constraint(part4, mesh32)


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
    i, j = trace.slot_sub[runs], trace.slot_sub[partner]
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
    free = np.flatnonzero(~mesh8.edge_boundary)
    np.testing.assert_array_equal(part.interior_of(0), free)
    np.testing.assert_array_equal(part.interior_start, [0, free.size])
    np.testing.assert_array_equal(part.slot_start, [0, 0])
    B = build_constraint(part, mesh8)
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
    length = np.bincount(part.trace.slot_iface[i_side], part.trace.m_diag[i_side])
    np.testing.assert_allclose(length, 1.0 / N, rtol=1e-14)


def test_interface_geometry(part4, mesh32):
    N = part4.N
    i, j, fine = _interfaces(part4)
    assert np.all(i < j)
    for a, b, edges in zip(i, j, fine):
        kinds = mesh32.edge_kind[edges]
        assert len(set(kinds)) == 1
        assert not np.any(kinds == DIAGONAL)
        # the normal points from subdomain i into its neighbor j
        (Ja, Ia), (Jb, Ib) = divmod(a, N), divmod(b, N)
        normal = np.array([Ib - Ia, Jb - Ja], dtype=float)
        assert np.abs(normal).sum() == 1.0
        np.testing.assert_allclose(
            mesh32.edge_normal[edges], np.tile(normal, (len(edges), 1)), atol=1e-15
        )
        # collinear: the coordinate along the normal direction is constant;
        # along the interface the fine edges run in geometric order
        mids = mesh32.edge_mid2[edges]
        axis = 0 if normal[0] else 1
        assert len(set(mids[:, axis])) == 1
        assert np.all(np.diff(mids[:, 1 - axis]) == 2)


def test_every_free_dof_claimed_once(part4, mesh32):
    free = np.flatnonzero(~mesh32.edge_boundary)
    interior_count = np.zeros(mesh32.n_edges, dtype=int)
    for s in range(part4.n_subdomains):
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
    assert np.all(trace.slot_sub[perm] != trace.slot_sub)
    np.testing.assert_array_equal(trace.slot_side[perm], 1 - trace.slot_side)
    # the j-side is the neighbour right of or above the i-side
    i_side = trace.slot_side == 0
    step = trace.slot_sub[perm][i_side] - trace.slot_sub[i_side]
    vertical = part4.mesh.edge_kind[trace.slot_edge[i_side]] == VERTICAL
    np.testing.assert_array_equal(step, np.where(vertical, 1, part4.N))
    # swap commutes with the diagonal interface mass matrix
    np.testing.assert_array_equal(trace.m_diag[perm], trace.m_diag)


def test_trace_mass_is_fine_edge_length(part4, mesh32):
    np.testing.assert_allclose(
        part4.trace.m_diag, mesh32.edge_len[part4.trace.slot_edge], atol=1e-16
    )
    np.testing.assert_allclose(part4.trace.m_diag, mesh32.h, atol=1e-16)


def test_constraint_shape_and_entries(B4, part4, mesh32):
    n_if = part4.n_interfaces
    r = mesh32.m // part4.N
    assert B4.shape == (n_if, part4.trace.n_slots)
    counts = np.diff(B4.tocsr().indptr)
    assert np.all(counts == 2 * r)
    dense = B4.toarray()
    trace = part4.trace
    expect = np.zeros_like(dense)
    expect[trace.slot_iface, np.arange(trace.n_slots)] = (
        trace.m_diag * (1.0 - 2.0 * trace.slot_side)
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
    assert not np.any(mesh32.edge_kind[part4.trace.slot_edge] == DIAGONAL)


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
    mids = [tuple(mesh32.edge_mid2[edges].mean(axis=0)[::-1]) for edges in fine]
    assert mids == sorted(mids)
    assert len(set(mids)) == len(mids)


def test_subdomain_triangle_map(part4, mesh32):
    N = part4.N
    cents = tri_coords(mesh32).mean(axis=1)
    cell = np.floor(cents * N).astype(int)
    np.testing.assert_array_equal(
        part4.tri_sub, cell[:, 1] * N + cell[:, 0]
    )


def test_edge_sets_match_triangle_scan(part4, mesh32):
    """Reference: scan every triangle for the subdomain edge sets."""
    on_gamma = np.zeros(mesh32.n_edges, dtype=bool)
    on_gamma[part4.trace.slot_edge] = True
    free_interior = ~mesh32.edge_boundary & ~on_gamma
    for s in range(part4.n_subdomains):
        mine = np.zeros(mesh32.n_edges, dtype=bool)
        for t in np.flatnonzero(part4.tri_sub == s):
            mine[mesh32.tri_edges[t]] = True
        np.testing.assert_array_equal(
            part4.interior_of(s), np.flatnonzero(mine & free_interior)
        )
        np.testing.assert_array_equal(
            np.sort(part4.trace.slot_edge[part4.slots_of(s)]),
            np.flatnonzero(mine & on_gamma),
        )
        np.testing.assert_array_equal(
            part4.slots_of(s), np.flatnonzero(part4.trace.slot_sub == s)
        )


@pytest.mark.parametrize("N,r", [(2, 4), (3, 4), (4, 8), (5, 2)])
def test_symmetry_generators(N, r):
    """Half-turn and reflection: commuting fixed-point-free involutions
    that respect the side swap, the trace mass and the coarse interfaces."""
    part = partition(build_unit_square_mesh(N * r), N)
    trace = part.trace
    slots = np.arange(trace.n_slots)
    gens = symmetry_generators(part)
    assert gens.shape == (2, trace.n_slots)
    for p in gens:
        np.testing.assert_array_equal(np.sort(p), slots)
        np.testing.assert_array_equal(p[p], slots)
        assert not np.any(p == slots)
        np.testing.assert_array_equal(p[trace.pair_perm], trace.pair_perm[p])
        np.testing.assert_array_equal(trace.m_diag[p], trace.m_diag)
        # one coarse interface maps onto one coarse interface, whole
        image = np.zeros((part.n_interfaces, part.n_interfaces), dtype=int)
        np.add.at(image, (trace.slot_iface, trace.slot_iface[p]), 1)
        assert np.all(np.count_nonzero(image, axis=1) == 1)
        assert np.all(image.max(axis=1) == 2 * r)
    half, refl = gens
    np.testing.assert_array_equal(half[refl], refl[half])
    # the geometry of the images
    mid = part.mesh.edge_mid2[trace.slot_edge]
    J, I = np.divmod(trace.slot_sub, N)
    two_m = 2 * part.mesh.m
    np.testing.assert_array_equal(mid[half], two_m - mid)
    np.testing.assert_array_equal(trace.slot_sub[half], (N - 1 - J) * N + N - 1 - I)
    np.testing.assert_array_equal(mid[refl], mid[:, ::-1])
    np.testing.assert_array_equal(trace.slot_sub[refl], I * N + J)

    orbits = orbit_table(gens)
    assert orbits.shape == (4, trace.n_slots // 4)
    np.testing.assert_array_equal(np.sort(orbits, axis=None), slots)
    np.testing.assert_array_equal(orbits[1], half[orbits[0]])
    np.testing.assert_array_equal(orbits[2], refl[orbits[0]])
    np.testing.assert_array_equal(orbits[3], half[refl[orbits[0]]])
    assert np.all(orbits[0] < orbits[1:])


def _local_edges(part, s):
    return np.concatenate([part.interior_of(s), part.trace.slot_edge[part.slots_of(s)]])


@pytest.mark.parametrize("N,r", [(1, 4), (2, 4), (3, 4), (4, 8), (5, 2)])
def test_symmetry_maps_match_generators(N, r):
    """Every subdomain's signed local-dof maps agree with a full-mesh
    midpoint lookup on its edges, with the slot permutations of
    `symmetry_generators` on its slots and with the images of its edge
    normals (-1 everywhere for the half-turn, on the diagonals for the
    reflection)."""
    part = partition(build_unit_square_mesh(N * r), N)
    mesh = part.mesh
    side = 2 * mesh.m + 1
    edge_at = np.full(side * side, -1)
    edge_at[mesh.edge_mid2[:, 1] * side + mesh.edge_mid2[:, 0]] = np.arange(mesh.n_edges)
    half, refl = symmetry_generators(part)
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


def test_symmetry_maps_reject_broken_normal(mesh8):
    """An edge normal that the symmetry does not carry onto a normal."""
    mesh = dataclasses.replace(mesh8, edge_normal=mesh8.edge_normal.copy())
    part = partition(mesh, 2)
    mesh.edge_normal[part.interior_of(0)[0]] *= 2.0
    with pytest.raises(AssertionError, match="edge normals of subdomain 0"):
        symmetry_maps(part, 0)


def test_symmetry_generators_empty_trace(mesh8):
    gens = symmetry_generators(partition(mesh8, 1))
    assert gens.shape == (2, 0)
    assert orbit_table(gens).shape == (4, 0)


def test_orbit_table_rejects_short_orbits():
    # (0 1)(2 3) and (0 1)(2 3): the product fixes every point
    p = np.array([1, 0, 3, 2])
    with pytest.raises(AssertionError, match="size 4"):
        orbit_table(np.stack([p, p]))
    assert orbit_table(np.stack([p])).shape == (2, 2)


def test_broken_symmetry_rejected(mesh8):
    """A trace mass that the reflection does not keep is refused."""
    part = partition(mesh8, 2)
    part.trace.m_diag = part.trace.m_diag * (1.0 + part.trace.slot_iface)
    with pytest.raises(AssertionError, match="mass"):
        symmetry_generators(part)


def _reference_partition(mesh, N):
    """The decomposition from the distinct (edge, subdomain) incidences,
    found by hashing, with sets compared through `np.unique`.  The trace
    slots are first laid out by interface, each fine edge's i-side slot
    before its j-side slot, then sorted into the class-major order: by
    the class of the slot's subdomain (its number of sides on the domain
    boundary, then the key I == 0, I == N-1, J == 0, J == N-1), the
    subdomain, the side of it (bottom, left, right, top) and the position
    along that side.

    Returns (tri_sub, interior_edges, sub_slots, trace arrays by name).
    """
    m = mesh.m
    r = m // N
    n_subs = N * N
    vx, vy = mesh.tris % (m + 1), mesh.tris // (m + 1)
    tri_sub = (vy.sum(axis=1) // 3 // r) * N + vx.sum(axis=1) // 3 // r

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
        "m_diag": mesh.edge_len[slot_edge[order]],
    }
    sub_slots = [np.flatnonzero(trace["slot_sub"] == s) for s in range(n_subs)]
    return tri_sub, interior_edges, sub_slots, trace


def _reference_local_dofs(mesh, tri_sub, interior_edges, sub_slots, trace):
    """The local dof table by sorting and ranking: each edge's owner is
    scattered from its triangles, then interior edges and trace slots are
    ranked within their runs of equal owner.  Returns (tri_ids, starts,
    loc) as `per_subdomain_local_dofs` does."""

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


REFERENCE_GRID = [(N * r, N) for N in range(1, 7) for r in (1, 2, 3, 4)] + [
    (64, 8), (256, 32)
]


def _offsets(groups):
    return np.cumsum([0] + [g.size for g in groups])


@pytest.mark.parametrize("m,N", REFERENCE_GRID)
def test_partition_matches_unique_reference(m, N):
    mesh = build_unit_square_mesh(m)
    part = partition(mesh, N)
    tri_sub, interior_edges, sub_slots, trace = _reference_partition(mesh, N)
    expected = {
        "tri_sub": tri_sub,
        "interior": np.concatenate(interior_edges),
        "interior_start": _offsets(interior_edges),
        "slots": np.concatenate(sub_slots),
        "slot_start": _offsets(sub_slots),
    }
    for name, expect in expected.items():
        got = getattr(part, name)
        np.testing.assert_array_equal(got, expect, err_msg=name)
        assert got.dtype == expect.dtype == np.int64, name
    assert part.n_interfaces == 2 * N * (N - 1)
    for s in range(N * N):
        np.testing.assert_array_equal(part.interior_of(s), interior_edges[s])
        np.testing.assert_array_equal(part.slots_of(s), sub_slots[s])
    for name, expect in trace.items():
        got = getattr(part.trace, name)
        np.testing.assert_array_equal(got, expect, err_msg=name)
        assert got.dtype == expect.dtype, name


@pytest.mark.parametrize("m,N", REFERENCE_GRID)
def test_local_dofs_match_sort_reference(m, N):
    """The template of `local_dofs`, mapped through each subdomain's kept
    dofs, is every subdomain's table by sorting and ranking."""
    mesh = build_unit_square_mesh(m)
    expect = _reference_local_dofs(mesh, *_reference_partition(mesh, N))
    got_tables = per_subdomain_local_dofs(partition(mesh, N))
    for got, ref in zip(got_tables, expect, strict=True):
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == ref.dtype


def _incident(mesh, edge, tri_sub, sub):
    """(triangle, position) of `edge` in a triangle of subdomain `sub`."""
    t, k = np.nonzero(mesh.tri_edges == edge)
    pick = np.flatnonzero(tri_sub[t] == sub)[0]
    return int(t[pick]), int(k[pick])


def _swap_tri_edges(mesh, a, b):
    """A copy of `mesh` with tri_edges entries a and b, (triangle,
    position) pairs, exchanged."""
    tri_edges = mesh.tri_edges.copy()
    tri_edges[a], tri_edges[b] = mesh.tri_edges[b], mesh.tri_edges[a]
    return dataclasses.replace(mesh, tri_edges=tri_edges)


def _tampered(mesh, part, fault):
    """A copy of `mesh` (N=2) that makes one check of `partition` fail."""
    trace, tri_sub = part.trace, part.tri_sub
    i_side = np.flatnonzero(trace.slot_side == 0)
    pair = trace.slot_sub[i_side] * 4 + trace.slot_sub[trace.pair_perm[i_side]]
    e01 = trace.slot_edge[i_side][pair == 0 * 4 + 1][0]
    e23 = trace.slot_edge[i_side][pair == 2 * 4 + 3][0]
    f0, f1 = part.interior_of(0)[0], part.interior_of(1)[0]
    if fault == "classification":
        edge_boundary = mesh.edge_boundary.copy()
        edge_boundary[e01] = True
        return dataclasses.replace(mesh, edge_boundary=edge_boundary)
    if fault == "order":
        fine = trace.slot_edge[i_side][trace.slot_iface[i_side] == 0]
        mid2 = mesh.edge_mid2.copy()
        mid2[fine[[0, 1]]] = mesh.edge_mid2[fine[[1, 0]]]
        return dataclasses.replace(mesh, edge_mid2=mid2)
    if fault == "set":
        left = np.flatnonzero(mesh.edge_boundary & (mesh.edge_mid2[:, 0] == 0))
        edge_boundary = mesh.edge_boundary.copy()
        edge_boundary[left[0]] = False
        return dataclasses.replace(mesh, edge_boundary=edge_boundary)
    if fault == "triangles":
        # A sub-0 triangle that does not touch f0 takes it as one of its
        # edges: f0 then lies on three triangles.
        t = np.flatnonzero((tri_sub == 0) & ~np.any(mesh.tri_edges == f0, axis=1))[0]
        tri_edges = mesh.tri_edges.copy()
        tri_edges[t, 0] = f0
        return dataclasses.replace(mesh, tri_edges=tri_edges)
    if fault == "interior":
        return _swap_tri_edges(
            mesh, _incident(mesh, f0, tri_sub, 0), _incident(mesh, f1, tri_sub, 1)
        )
    if fault == "interface":
        # e01 loses its subdomain-1 triangle to a boundary edge of
        # subdomain 0, so both its triangles lie in subdomain 0.
        bnd = np.flatnonzero(mesh.edge_boundary)
        t0, k0 = np.nonzero(np.isin(mesh.tri_edges, bnd) & (tri_sub == 0)[:, None])
        return _swap_tri_edges(
            mesh, _incident(mesh, e01, tri_sub, 1), (int(t0[0]), int(k0[0]))
        )
    if fault == "inconsistent":
        # e01 is claimed by subdomains 2 and 1, e23 by 0 and 3: two owners
        # each, but not the ones its slots name.
        return _swap_tri_edges(
            mesh, _incident(mesh, e01, tri_sub, 0), _incident(mesh, e23, tri_sub, 2)
        )
    raise ValueError(fault)


@pytest.mark.parametrize("fault,message", [
    ("classification", "interface edge classification mismatch"),
    ("order", "interface fine edges out of order"),
    ("set", "interface edge set mismatch"),
    ("triangles", "an edge lies on more than two triangles"),
    ("interior", "an interior dof is claimed by != 1 subdomain"),
    ("interface", "an interface dof is not shared by exactly 2"),
    ("inconsistent", "subdomain interface set inconsistent"),
])
def test_tampered_mesh_rejected(mesh8, fault, message):
    """Each check of `partition` fires on a mesh broken to reach it.  Two
    cannot be reached from a Mesh: interface fine edges come from distinct
    midpoints, so none repeats, and they are checked axis-aligned, so none
    is diagonal.  The "triangles" mesh passed the hashed claims checks:
    its extra incidence is in the edge's own subdomain."""
    part = partition(mesh8, 2)
    bad = _tampered(mesh8, part, fault)
    with pytest.raises(AssertionError, match=f"^{message}$"):
        partition(bad, 2)


def _swap_edges(mesh, a, b):
    """A copy of `mesh` whose triangles name edge b wherever they named
    edge a, and the other way round."""
    tri_edges = mesh.tri_edges.copy()
    tri_edges[mesh.tri_edges == a] = b
    tri_edges[mesh.tri_edges == b] = a
    return dataclasses.replace(mesh, tri_edges=tri_edges)


def test_interior_sets_checked_against_the_mesh(mesh8):
    """The interior edge sets are written by formula and then checked to
    be exactly the free interior edges, each owned by its subdomain.  A
    non-interface edge marked boundary, or two interior edges of different
    subdomains traded between their triangles, passes every other check:
    grouping the edges by their triangles' subdomains, as
    `_reference_partition` does, drops the first from its set and trades
    the second pair between sets."""
    part = partition(mesh8, 2)
    f0, f1 = part.interior_of(0)[0], part.interior_of(3)[-1]
    edge_boundary = mesh8.edge_boundary.copy()
    edge_boundary[f0] = True
    for bad in (dataclasses.replace(mesh8, edge_boundary=edge_boundary),
                _swap_edges(mesh8, f0, f1)):
        with pytest.raises(AssertionError,
                           match="^subdomain interior edge sets inconsistent$"):
            partition(bad, 2)
