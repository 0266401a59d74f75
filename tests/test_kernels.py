"""Block, scalar and fixed-point agreement and determinism of the hot kernels."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf, workprec

from rsadyn.probes import _chart_states, candidate_times, classify_point_mp
from rsadyn import _kernels


# start cells of every (class, step) kind the classifier returns
BOOKKEEPING_CELLS = [
    (0, 1, 0.45), (0, 1, 1.1),                  # line: recurrent at 4
    (0.005, 1, 0.3),                            # recurrent at 9
    (0.01, 1, 0.5), (0.2, 1, 0.7), (1, 2, 2),   # recurrent at 31
    (1e-103, 1, 0),                             # indeterminate at step 0
    (0, 0, 0),                                  # dead at the start
    (0.1, 1, 0.25), (1, 0.1, 0.1), (1, 1j, 0.3)]  # non-recurrent


@pytest.fixture(scope="module")
def setup(params411):
    cands = np.array(candidate_times(params411.lam, 256), dtype=np.int64)
    us = np.linspace(0.25, 1.25, 30)
    vs = np.linspace(0.0, 0.025, 10)
    uu, vv = np.meshgrid(us, vs)
    T = vv.astype(np.complex128).ravel()
    X = np.ones_like(T)
    Y = uu.astype(np.complex128).ravel()
    return (params411, T, X, Y, cands)


def test_numpy_backend_matches_scalar(setup):
    p, T, X, Y, cands = setup
    delta, c = complex(p.delta), complex(p.c)
    cls_np, st_np = _kernels.classify_block(T, X, Y, delta, c, p.n, cands,
                                            1e-3)
    scalar = [_kernels.classify_point(T[i], X[i], Y[i], delta, c, p.n,
                                      cands, 1e-3) for i in range(T.size)]
    assert [(int(cl), int(st)) for cl, st in zip(cls_np, st_np)] == scalar


@settings(derandomize=True, max_examples=25, deadline=None)
@given(u0=st.floats(-1.5, 1.5), du=st.floats(0.01, 1.0),
       v0=st.floats(0.0, 0.2), dv=st.floats(0.0, 0.2),
       w=st.integers(2, 5), h=st.integers(2, 4))
# [v : 1 : 0] with tiny v maps to an underflowing image: an indeterminate
# hit after the start, whose step both kernels must report
@example(u0=0.0, du=1.0, v0=1e-103, dv=0.0, w=2, h=2)
def test_block_matches_scalar_on_line_windows(setup, u0, du, v0, dv, w, h):
    p, _, _, _, cands = setup
    delta, c = complex(p.delta), complex(p.c)
    T, X, Y = (Z.ravel() for Z in _chart_states(
        "line", (u0, u0 + du, v0, v0 + dv), (w, h)))
    cls_np, st_np = _kernels.classify_block(T, X, Y, delta, c, p.n, cands,
                                            1e-3)
    scalar = [_kernels.classify_point(T[i], X[i], Y[i], delta, c, p.n,
                                      cands, 1e-3) for i in range(T.size)]
    assert [(int(cl), int(step)) for cl, step in zip(cls_np, st_np)] == scalar


def test_numpy_block_bookkeeping_under_permutation(setup):
    # one block whose cells resolve at different times and in both places
    # (an indeterminate image inside the n-fold step, a recurrence at a
    # candidate time); permuting the block must permute the result, so a
    # cell's class never lands on another cell's index
    p, _, _, _, cands = setup
    delta, c = complex(p.delta), complex(p.c)
    cells = BOOKKEEPING_CELLS * 2
    T, X, Y = (np.array(col, dtype=np.complex128) for col in zip(*cells))
    perm = np.random.default_rng(8).permutation(len(cells))
    cls, stp = _kernels.classify_block(T, X, Y, delta, c, p.n, cands, 1e-3)
    cls_p, stp_p = _kernels.classify_block(T[perm], X[perm], Y[perm],
                                           delta, c, p.n, cands, 1e-3)
    assert (cls_p == cls[perm]).all() and (stp_p == stp[perm]).all()
    scalar = [_kernels.classify_point(t, x, y, delta, c, p.n, cands, 1e-3)
              for t, x, y in cells]
    got = [(int(cl), int(step)) for cl, step in zip(cls, stp)]
    assert got == scalar
    # the 256-bit mirror runs the same cell classifier on fixed point
    assert [classify_point_mp(p, cell, cands, 1e-3, precision_bits=256)
            for cell in cells] == scalar
    recurrent, indet, nonrec = (_kernels.CLASS_RECURRENT,
                                _kernels.CLASS_INDETERMINATE,
                                _kernels.CLASS_NONRECURRENT)
    assert set(got) == {(recurrent, 4), (recurrent, 9), (recurrent, 31),
                        (indet, 0), (indet, -1), (nonrec, -1)}


def _mpc_oracle(p, cell, cands, eps, bits):
    """The kernels' cell classifier run on mpc at `bits`."""
    with workprec(bits):
        t, x, y = (mpc(v) for v in cell)
        cl, step = _kernels._classify_cell(t, x, y, mpc(p.delta), mpc(p.c),
                                           p.n, cands, mpf(eps) ** 2)
    return int(cl), int(step)


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_fixed_point_mirror_matches_mpc_oracle(setup, bits):
    # (class, step) of the fixed-point mirror equals the same classifier on
    # mpc. The first image of [1e-30 : 1 : 0] has a squared magnitude
    # within float rounding of the 1e-120 floor, which only a scale well
    # past the floor's 399 bits resolves (at 64 bits without the floor's
    # bits it reads (1, 0)); [1e-200 : 1 : 0] needs the small-coordinate
    # bits, or its t rounds to 0 and the line point reads (2, 4)
    p, _, _, _, cands = setup
    cells = BOOKKEEPING_CELLS + [(1e-30, 1, 0), (1e-200, 1, 0)]
    got = [classify_point_mp(p, cell, cands, 1e-3, precision_bits=bits)
           for cell in cells]
    assert got == [_mpc_oracle(p, cell, cands, 1e-3, bits) for cell in cells]
    assert got[-2:] == [(_kernels.CLASS_RECURRENT, 4),
                        (_kernels.CLASS_INDETERMINATE, 0)]


def test_numpy_backend_deterministic(setup):
    p, T, X, Y, cands = setup
    delta, c = complex(p.delta), complex(p.c)
    a = _kernels.classify_block(T, X, Y, delta, c, p.n, cands, 1e-3)
    b = _kernels.classify_block(T, X, Y, delta, c, p.n, cands, 1e-3)
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()


def test_line_states_never_indeterminate(setup):
    # the whole invariant line iterates linearly, including the blown-up
    # points and both coordinate vertices
    p, _, _, _, cands = setup
    delta, c = complex(p.delta), complex(p.c)
    specials = [(0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j)]
    specials += [(0j, 1 + 0j, complex(w)) for w in p.orbit]
    for (t, x, y) in specials:
        cl, _ = _kernels.classify_point(t, x, y, delta, c, p.n, cands, 1e-3)
        assert cl == _kernels.CLASS_RECURRENT


def test_h_orbit_distances_line_point(setup):
    p, _, _, _, _ = setup
    delta, c = complex(p.delta), complex(p.c)
    dists = _kernels.h_orbit_distances(0j, 1 + 0j, 0.45 + 0j, delta, c,
                                       p.n, 16)
    assert dists.shape == (16,)
    assert dists.max() < 1e-12     # the line is pointwise fixed under H


def _return_distances_reference(t, x, y, delta, c, n, times):
    """Scalar loop: one sample's distances at increasing times, -1 once
    an indeterminate image is hit."""
    t0, x0, y0 = t, x, y
    den0 = _kernels._norm2(t0, x0, y0)
    out, h = [], 0
    for target in times:
        while h < target and t is not None:
            t, x, y, alive = _kernels.step(t, x, y, delta, c, n)
            if not alive:
                t = None
            h += 1
        if t is None:
            out.append(-1.0)
        else:
            num, den = _kernels._dist2(t, x, y, t0, x0, y0, den0)
            out.append((num / den) ** 0.5)
    return out


def test_return_distances_match_scalar_loop(setup):
    p, _, _, _, _ = setup
    delta, c = complex(p.delta), complex(p.c)
    times = (4, 9, 22, 31, 5013)
    samples = [(1e-6j, 1, 0.45), (1e-6, 1, 1.1), (-2e-6, 1, 0.3 + 0.2j),
               (1e-4, 1, 0.8 - 0.3j), (0.005, 1, 0.3),   # near the line
               (0, 1, 0.45),                             # on the line
               (1e-103, 1, 0),                  # indeterminate at step 1
               (0, 0, 0)]                       # dead at the start
    T, X, Y = (np.array(col, dtype=np.complex128) for col in zip(*samples))
    got = _kernels.return_distances(T, X, Y, delta, c, p.n, times)
    assert got.shape == (len(times), len(samples))
    want = np.array([_return_distances_reference(
        complex(t), complex(x), complex(y), delta, c, p.n, times)
        for t, x, y in samples]).T
    assert ((got == -1) == (want == -1)).all()
    assert (want[:, -2:] == -1).all() and (want[:, :-2] >= 0).all()
    assert np.abs(got - want).max() <= 1e-12
    # a sample's row never lands on another sample's column
    perm = np.random.default_rng(10).permutation(len(samples))
    got_p = _kernels.return_distances(T[perm], X[perm], Y[perm], delta, c,
                                      p.n, times)
    assert (got_p == got[:, perm]).all()


def _walk_outputs_agree(cl, step, col, cands, eps, rel=1e-12):
    """Whether one cell's class and step read off its distance rows.

    The rules are exclusive, so the rows fix the class: recurrent at q
    when row q is the first below eps; indeterminate at h when the rows
    read -1 from the first candidate above h and every earlier row is at
    least eps; non-recurrent when every row is at least eps. The margin
    rel at eps covers num < eps^2 den against sqrt(num / den) < eps.
    """
    lo, hi = eps * (1 - rel), eps * (1 + rel)
    dead = col == -1
    if cl == _kernels.CLASS_RECURRENT:
        r = int(np.flatnonzero(cands == step)[0])
        return (not dead[:r + 1].any() and col[r] < hi
                and (col[:r] >= lo).all())
    if cl == _kernels.CLASS_INDETERMINATE:
        return (dead == (cands > step)).all() and (col[~dead] >= lo).all()
    return not dead.any() and (col >= lo).all()


def test_classes_read_off_return_distances(setup):
    # classify_block and return_distances run one walk; its classes must
    # be those its distance rows give at the candidate times
    p, T, X, Y, cands = setup
    delta, c = complex(p.delta), complex(p.c)
    cells = [(0, 1, 0.45), (0, 1, 1.1), (0.005, 1, 0.3), (0.01, 1, 0.5),
             (0.2, 1, 0.7), (1, 2, 2), (1e-103, 1, 0), (0, 0, 0),
             (0.1, 1, 0.25), (1, 0.1, 0.1), (1, 1j, 0.3)]
    Tc, Xc, Yc = (np.array(col, dtype=np.complex128) for col in zip(*cells))
    T, X, Y = (np.concatenate(pair) for pair in ((T, Tc), (X, Xc), (Y, Yc)))
    eps = 1e-3
    cls, stp = _kernels.classify_block(T, X, Y, delta, c, p.n, cands, eps)
    dist = _kernels.return_distances(T, X, Y, delta, c, p.n, cands)
    assert dist.shape == (len(cands), T.size)
    for i in range(T.size):
        assert _walk_outputs_agree(int(cls[i]), int(stp[i]), dist[:, i],
                                   cands, eps), (i, cls[i], stp[i])
    assert set(cls.tolist()) == {_kernels.CLASS_RECURRENT,
                                 _kernels.CLASS_INDETERMINATE,
                                 _kernels.CLASS_NONRECURRENT}
