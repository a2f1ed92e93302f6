"""N x N decomposition: interfaces, trace slots, swap, and constraint rows."""

import numpy as np
import pytest

from rr_hdiv.mesh import DIAGONAL, build_unit_square_mesh
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
    np.testing.assert_array_equal(np.sort(part.interior_edges[0]), free)
    B = build_constraint(part, mesh8)
    assert B.shape == (0, 0)


@pytest.mark.parametrize("N,m", [(2, 8), (4, 32)])
def test_interface_counts(N, m):
    mesh = build_unit_square_mesh(m)
    part = partition(mesh, N)
    assert part.n_interfaces == 2 * N * (N - 1)
    assert part.trace.n_slots == 4 * N * (N - 1) * (m // N)
    for iface in part.interfaces:
        assert len(iface.fine_edges) == m // N
        assert iface.length == pytest.approx(1.0 / N)


def test_interface_geometry(part4, mesh32):
    for iface in part4.interfaces:
        edges = iface.fine_edges
        kinds = mesh32.edge_kind[edges]
        assert len(set(kinds)) == 1
        np.testing.assert_allclose(
            mesh32.edge_normal[edges],
            np.tile(iface.normal, (len(edges), 1)),
            atol=1e-15,
        )
        # collinear: the coordinate along the normal direction is constant
        mids = mesh32.edge_mid2[edges]
        axis = 0 if abs(iface.normal[0]) > 0.5 else 1
        assert len(set(mids[:, axis])) == 1
        assert not np.any(kinds == DIAGONAL)
        assert iface.i < iface.j


def test_every_free_dof_claimed_once(part4, mesh32):
    free = np.flatnonzero(~mesh32.edge_boundary)
    interior_count = np.zeros(mesh32.n_edges, dtype=int)
    for ids in part4.interior_edges:
        interior_count[ids] += 1
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


def test_paired_slots_agree(part4):
    trace = part4.trace
    perm = trace.pair_perm
    # same fine edge and interface on both sides, different subdomains
    np.testing.assert_array_equal(trace.slot_edge[perm], trace.slot_edge)
    np.testing.assert_array_equal(trace.slot_iface[perm], trace.slot_iface)
    assert np.all(trace.slot_sub[perm] != trace.slot_sub)
    np.testing.assert_array_equal(trace.slot_side[perm], 1 - trace.slot_side)
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
    for iface in part4.interfaces:
        for e in iface.fine_edges:
            assert e not in seen
            seen[e] = iface.index


def test_interfaces_enumerated_by_position(part4, mesh32):
    mids = []
    for iface in part4.interfaces:
        mid = mesh32.edge_mid2[iface.fine_edges].mean(axis=0)
        mids.append((mid[1], mid[0]))
    assert mids == sorted(mids)


def test_subdomain_triangle_map(part4, mesh32):
    N = part4.N
    cents = mesh32.tri_coords().mean(axis=1)
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
            part4.interior_edges[s], np.flatnonzero(mine & free_interior)
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
