"""The three views of the one Robin exchange map, on random small problems.

E g = T(2 gamma R M g - g) is relaxed by Richardson, assembled by the
spectrum as Q = theta E + (1 - theta) I, and symmetrised by MINRES as
G = M T (I - E) with load f_g = M T c, M = h I the interface mass.
Each production path is held to the dense references in `helpers`.  The
same random problems also hold the local solver to its own invariants:
the resolvent is the constrained solve on zero loads, every constrained
solve satisfies B w = 0, every class is exactly the shared interior
block plus its own sides, G is symmetric, the mesh's symmetries commute
with the resolvent and the exchange, and the datum of the direct
solution recovers that solution.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_to_identity,
    dense_interface_operator,
    relaxed_step,
    subdomain_robin_matrix,
    zero_loads,
)
from rr_hdiv import boundary_system, iteration, partition, spectrum, verify

configs = st.builds(
    iteration.IterationConfig,
    N=st.integers(1, 4),
    ratio=st.sampled_from((2, 4)),
    beta=st.floats(0.05, 20.0),
    gamma_rule=st.one_of(st.sampled_from(("h", "H")), st.floats(0.05, 2.0)),
    theta=st.floats(0.0, 1.0, exclude_min=True),
)


@settings(max_examples=15, deadline=None)
@given(cfg=configs)
def test_three_views_of_one_map(cfg):
    loaded = iteration.build_problem(cfg, verify.manufactured_case().load)
    zero = replace(loaded, local_loads=zero_loads(loaded.local_loads))
    trace = loaded.partition.trace
    n = trace.n_slots
    op = boundary_system.InterfaceOperator(loaded)

    # Spectrum: the matrix-free Q, applied to the identity, is the
    # homogeneous relaxed step.
    Q = spectrum.assemble_Q(cfg, problem=zero).Q @ np.eye(n)
    Q_ref = apply_to_identity(lambda e: relaxed_step(zero, e, cfg.theta), n)
    assert Q.shape == (n, n)
    np.testing.assert_allclose(Q, Q_ref, rtol=0.0, atol=1e-10)

    # MINRES: G = M T (I - E), against the dense resolvent.
    G = apply_to_identity(op.apply, n)
    G_ref = dense_interface_operator(loaded) if n else np.zeros((0, 0))
    scale = np.max(np.abs(G_ref), initial=0.0)
    assert np.max(np.abs(G - G_ref), initial=0.0) <= 1e-10 * scale

    # Its load is M T c, c the datum of the unrelaxed loaded step at g = 0.
    c = relaxed_step(loaded, np.zeros(n), 1.0)
    f_ref = loaded.mesh.h * c[trace.pair_perm]
    np.testing.assert_allclose(
        op.load(), f_ref, rtol=0.0, atol=1e-12 * np.max(np.abs(f_ref), initial=1.0)
    )


@settings(max_examples=20, deadline=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1))
def test_resolvent_is_the_zero_load_solve(cfg, seed):
    """apply_resolvent(M g) is the trace of `solve` on zero loads to 1e-12
    relative, and B w = 0 after each constrained solve.  Over 150 random
    draws the largest gaps were 1.0e-14 and 3.2e-16 relative to max |w|."""
    problem = iteration.build_problem(cfg, verify.manufactured_case().load)
    solver, trace = problem.solver, problem.partition.trace
    g = np.random.default_rng(seed).standard_normal(trace.n_slots)
    zero = zero_loads(problem.local_loads)
    _, w, _ = solver.solve(solver.condense(zero), g)
    r = solver.apply_resolvent(problem.mesh.h * g)
    scale = np.max(np.abs(w), initial=0.0)
    assert np.max(np.abs(r - w), initial=0.0) <= 1e-12 * scale
    for out in (w, solver.solve(problem.condensed_loads, g)[1], r):
        jump = np.max(np.abs(problem.B @ out), initial=0.0)
        assert jump <= 1e-13 * np.max(np.abs(out), initial=0.0)


@settings(max_examples=20, deadline=None)
@given(cfg=configs)
def test_classes_are_the_shared_interior_block_plus_own_sides(cfg):
    """Each class's first member's own Robin matrix, assembled densely from
    its triangles, is exactly the template's principal submatrix on the
    interior and the class's own sides, plus the Robin term on its
    interface rows, gamma h.  The class's stored A is exactly that
    submatrix."""
    problem = iteration.build_problem(cfg, verify.manufactured_case().load)
    template = problem.classes[0].template
    nI = template.n_interior
    T = template.A.toarray()
    for cls in problem.classes:
        keep = np.concatenate([np.arange(nI), nI + cls.cols])
        own = T[np.ix_(keep, keep)]
        assert np.array_equal(cls.A.toarray(), own)
        own[np.arange(nI, keep.size), np.arange(nI, keep.size)] += (
            problem.gamma * problem.mesh.h)
        H = subdomain_robin_matrix(problem, cls.members[0])[0]
        assert np.array_equal(H, own)


@settings(max_examples=15, deadline=None)
@given(cfg=configs)
def test_G_is_symmetric(cfg):
    """G = M T (I - E) equals its transpose to 1e-12 of max |G|; over 200
    random draws the largest gap was 1.5e-14."""
    problem = iteration.build_problem(cfg, verify.manufactured_case().load)
    op = boundary_system.InterfaceOperator(problem)
    G = apply_to_identity(op.apply, op.n)
    scale = np.max(np.abs(G), initial=0.0)
    assert np.max(np.abs(G - G.T), initial=0.0) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(cfg=configs, seed=st.integers(0, 2**32 - 1))
def test_symmetry_generators_commute_with_the_exchange(cfg, seed):
    """The half-turn and the reflection, as slot permutations p, commute
    with the resolvent to 1e-12 relative (largest over 200 random draws
    7.6e-16) and exactly with `exchange`: F(v[p]) = F(v)[p]."""
    problem = iteration.build_problem(cfg, verify.manufactured_case().load)
    solver = problem.solver
    rng = np.random.default_rng(seed)
    v, g = rng.standard_normal((2, solver.n_slots))
    w = solver.apply_resolvent(v)
    scale = np.max(np.abs(w), initial=0.0)
    for p in partition.symmetry_generators(problem.partition):
        gap = np.abs(solver.apply_resolvent(v[p]) - w[p])
        assert np.max(gap, initial=0.0) <= 1e-12 * scale
        assert np.array_equal(problem.exchange(g[p], w[p]),
                              problem.exchange(g, w)[p])


@settings(max_examples=15, deadline=None)
@given(cfg=configs, constrained=st.booleans())
def test_recover_at_the_oracle_datum(cfg, constrained):
    """At the datum that the direct solution u* generates
    (`verify.fixed_point_g`), one round of Robin solves recovers u*: to
    1e-10 relative in the sup norm, with a multiplier below
    1e-12 max(|g|, 1), for the constrained solver and the baseline.  Over
    80 random draws the largest values were 4.5e-13 and 2.6e-15."""
    cfg = replace(cfg, constrained=constrained)
    load = verify.manufactured_case().load
    problem = iteration.build_problem(cfg, load)
    u_star = verify.solve_global(problem.mesh, cfg.beta, load)
    g = verify.fixed_point_g(problem, u_star)
    u_h = problem.recover(g)[0]
    assert np.abs(u_h - u_star).max() <= 1e-10 * np.abs(u_star).max()
    mu = problem.solver.solve(problem.condensed_loads, g)[2]
    g_max = np.max(np.abs(g), initial=0.0)
    assert np.max(np.abs(mu), initial=0.0) <= 1e-12 * max(g_max, 1.0)
