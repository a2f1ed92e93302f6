"""The three views of the one Robin exchange map, on random small problems.

E g = T(2 gamma R M g - g) is relaxed by Richardson, assembled by the
spectrum as Q = theta E + (1 - theta) I, and symmetrised by MINRES as
G = M T (I - E) with load f_g = M T c.  Each production path is held to
the dense references in `helpers`.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_to_identity, dense_interface_operator, relaxed_step
from rr_hdiv import boundary_system, iteration, spectrum, verify

configs = st.builds(
    iteration.IterationConfig,
    N=st.integers(1, 4),
    ratio=st.sampled_from((2, 4)),
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
