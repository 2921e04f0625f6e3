"""Property test of the certified norm: on random band operators (real,
complex, Hermitian, narrow-band and dense, 2 to about 700 active points)
the bracket of `norm_bracket` holds numpy's SVD norm and is at most
NORM_RTOL wide, and its certificate refuses every s below the norm."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import roelab.operator as opr
from roelab import BandOperator, build_grid_space, norm_bracket
from roelab.cli import random_band_operator


@st.composite
def band_operators(draw):
    kind = draw(st.sampled_from(
        ["real", "complex", "hermitian", "narrow", "dense"]))
    n = draw(st.integers(2, 700))
    density = draw(st.floats(0.05, 1.0))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    if kind == "narrow":
        space, propagation = build_grid_space(1, n, "graph"), 1
    elif kind == "dense":
        # every pair lies within the propagation
        space = build_grid_space(1, min(n, 250), "graph")
        propagation = space.n
    else:
        side = max(2, round(np.sqrt(n)))
        space = draw(st.sampled_from([build_grid_space(1, n, "graph"),
                                      build_grid_space(2, side, "sup")]))
        propagation = draw(st.integers(1, 3))
    T = random_band_operator(space, propagation, density, seed)
    if kind == "real":
        T = BandOperator(space, T.rows, T.cols, T.vals.real)
    elif kind == "hermitian":
        T = T + T.adjoint()
    assume(opr.active_points(T).size >= 2)
    return T


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(band_operators())
def test_bracket_holds_the_norm_and_is_narrow(T):
    sigma = float(np.linalg.norm(T.to_dense(), 2))
    lo, hi, _, _ = norm_bracket(T)
    assert lo <= sigma * (1 + 1e-12) <= hi * (1 + 1e-12)
    assert hi - lo <= opr.NORM_RTOL * hi
    # planted: the certificate refuses an s below the norm, so the bracket
    # above cannot hold vacuously, and accepts one above it
    M, G = opr._gram(opr._active_block(T))
    attempt = opr._certificate(M, G, opr.schur_norm_bound(T))
    assert attempt(sigma * (1 - 1e-7)) is None
    assert attempt(sigma * (1 - 1e-11)) is None
    assert attempt(sigma * (1 + 1e-7)) is not None
