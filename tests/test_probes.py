"""Return times, near-identity returns, rasters, slice radii, Birkhoff sums."""

import numpy as np
import pytest
from mpmath import exp, mp, mpf, pi, sqrt, workprec

from rsadyn import family, fixed_points
from rsadyn.errors import ValidationError
from rsadyn.family import birkhoff_linearize, multipliers_at_fixed
from rsadyn.probes import (candidate_times, classify_point_mp, default_budget,
                           near_identity_returns, return_times,
                           siegel_raster, slice_radius)
from rsadyn import _kernels


# -- return times ------------------------------------------------------------

def test_golden_mean_denominators():
    # the continued fraction of the golden mean is all ones: Fibonacci
    with workprec(256):
        golden = (sqrt(5) - 1) / 2
        lam = exp(2j * pi * golden)
    qs = return_times(lam, 8)
    assert qs == [1, 2, 3, 5, 8, 13, 21, 34]


def test_best_approximation_inequality():
    with workprec(256):
        golden = (sqrt(5) - 1) / 2
        lam = exp(2j * pi * golden)
        qs = return_times(lam, 9)
        for k in range(len(qs) - 1):
            assert abs(lam ** qs[k] - 1) < 2 * pi / qs[k + 1]


def test_return_quality_strictly_decreasing(params411):
    with workprec(256):
        qs = return_times(params411.lam, 6)
        vals = [abs(params411.lam ** q - 1) for q in qs]
        assert all(vals[k + 1] < vals[k] for k in range(len(vals) - 1))


def test_root_of_unity_rejected():
    # analyzed at the precision the value carries, the continued fraction
    # terminates and the precondition violation is reported
    with workprec(128):
        lam = exp(2j * pi / 5)
    with pytest.raises(ValidationError):
        return_times(lam, 4, precision_bits=128)
    with workprec(256):
        lam = exp(2j * pi * mpf(3) / 7)
    with pytest.raises(ValidationError):
        return_times(lam, 4, precision_bits=256)


def test_candidate_times_bounded(params411):
    cands = candidate_times(params411.lam, 512)
    assert cands == sorted(set(cands))
    assert all(q <= 512 for q in cands)


# the first 20 return times of the golden-mean rotation and of three family
# members, pinned so that any move in the continued-fraction routine shows
PINNED_RETURN_TIMES = {
    "golden": [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
               1597, 2584, 4181, 6765, 10946],
    "params411": [4, 9, 22, 31, 5013, 180499, 366011, 546510, 5284601,
                  5831111, 11115712, 239261063, 250376775, 489637838,
                  740014613, 3449696290, 4189710903, 24398250805,
                  77384463318, 333936104077],
    "params511": [4, 5, 24, 125, 1274, 1399, 2673, 6745, 9418, 44417,
                  1475179, 13321028, 14796207, 28117235, 99147912,
                  127265147, 353678206, 834621559, 3692164442, 4526786001],
    "params721": [5, 6, 11, 226, 915, 1141, 2056, 7309, 9365, 26039, 139560,
                  165599, 305159, 1386235, 4463864, 28169419, 32633283,
                  60802702, 93435985, 154238687],
}


@pytest.mark.parametrize("member", sorted(PINNED_RETURN_TIMES))
def test_continued_fraction_consumers_agree(member, request):
    if member == "golden":
        with workprec(256):
            lam = exp(2j * pi * (sqrt(5) - 1) / 2)
    else:
        lam = request.getfixturevalue(member).lam
    qs = return_times(lam, 20)
    assert qs == PINNED_RETURN_TIMES[member]
    for budget in (8, 128, 2048, 10 ** 4):
        assert candidate_times(lam, budget) == [q for q in qs if q <= budget]
    for at_least in (1, 100, 2048, 10 ** 4):
        assert default_budget(lam, at_least=at_least) == \
            next(q for q in qs if q >= at_least)


# -- near-identity returns -----------------------------------------------------

def test_near_identity_decreasing(params411):
    rep = near_identity_returns(params411, n_candidates=5, n_samples=40)
    sups = rep["sup_distances"]
    assert sups[0] / sups[4] >= 10


def test_near_identity_returns_pinned(params411):
    # seed 0, 100 samples, as computed by one scalar orbit per (q, sample)
    rep = near_identity_returns(params411, n_candidates=5, n_samples=100,
                                seed=0)
    assert rep["candidates"] == [4, 9, 22, 31, 5013]
    pinned = [5.90294947494059e-07, 1.9989569333043113e-07,
              1.9866618124223256e-07, 1.2358362895057316e-09,
              3.4004660689752174e-11]
    assert np.abs(np.array(rep["sup_distances"]) - pinned).max() <= 1e-13


# -- Birkhoff averaging ------------------------------------------------------------

def test_birkhoff_residuals(params411):
    mult = multipliers_at_fixed(params411, fixed_points(params411)[0])
    rep = birkhoff_linearize(params411, mult, n_values=(1, 16, 256))
    r1, r16, r256 = rep["residuals"]
    assert r256 < r16                      # decay toward the conjugacy
    assert r1 < 1e-3                       # r(1) = max |h(z) - Az| = O(radius^2)
    assert rep["dropped_samples"] == 0


def test_birkhoff_linear_map_exact():
    # for h = A the average is the identity and the residual vanishes: the
    # averaging code of birkhoff_linearize, fed linear orbits A^k z, sees it
    rng = np.random.default_rng(0)
    lams = tuple(complex(a) for a in
                 np.exp(2j * np.pi * np.array([0.123456, 0.654321])))
    orbits = []
    for _ in range(5):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        orbit = [tuple(complex(v) for v in z)]
        for _ in range(32):
            orbit.append(tuple(a * v for a, v in zip(lams, orbit[-1])))
        orbits.append(orbit)
    assert max(family._birkhoff_residuals(orbits, lams, (1, 4, 32))) < 1e-12
    # with the multipliers swapped the orbits are no longer A-linear
    assert family._birkhoff_residuals(orbits, lams[::-1], (1,))[0] > 0.1


# -- rasters ------------------------------------------------------------------------

WINDOW = (0.2, 1.3, 0.0, 0.03)


def test_raster_line_row_recurrent(params411):
    grid = siegel_raster(params411, "line", WINDOW, (48, 24), budget=256,
                         eps=1e-3)
    assert (grid.classes[0] == _kernels.CLASS_RECURRENT).all()
    counts = grid.counts()
    assert sum(counts.values()) == 48 * 24


def test_raster_fixed_point_cell_recurrent(params411):
    with workprec(256):
        fp = fixed_points(params411)[0]
        base = (complex(fp[0]), complex(fp[1]))
    grid = siegel_raster(params411, "affine", (-0.01, 0.01, -0.01, 0.01),
                         (5, 5), budget=256, eps=1e-3, basepoint=base)
    # the window is centered so the middle cell is exactly the fixed point
    assert grid.classes[2][2] == _kernels.CLASS_RECURRENT


@pytest.mark.parametrize("eps", [-1e-3, 0.0, float("nan"), float("inf"),
                                 1.0, 2.0, 1e200])
def test_raster_rejects_bad_eps(params411, eps):
    # only eps^2 reaches the kernels, so -eps would pass as eps unchecked;
    # the projective distance never exceeds 1, so eps >= 1 passes every
    # cell, and eps^2 overflows a float from about 1.3e154
    with pytest.raises(ValidationError):
        siegel_raster(params411, "line", WINDOW, (4, 2), budget=16, eps=eps)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("chart, window, basepoint, threads", [
    ("line", (0.2, 1.3, 0.0, NAN), None, 1),
    ("line", (0.2, INF, 0.0, 0.03), None, 1),
    ("affine", (-0.01, 0.01, -0.01, 0.01), (complex(NAN, 0.0), 0j), 1),
    ("line", WINDOW, None, 0),
    ("line", WINDOW, None, -3),
    ("line", WINDOW, (5 + 0j, 5 + 0j), 1),
], ids=["window-nan", "window-inf", "basepoint-nan", "threads-0",
        "threads-negative", "basepoint-line-chart"])
def test_raster_rejects_bad_input(params411, chart, window, basepoint,
                                  threads):
    with pytest.raises(ValidationError):
        siegel_raster(params411, chart, window, (4, 2), budget=16,
                      threads=threads, basepoint=basepoint)


def test_raster_budget_monotone(params411):
    g1 = siegel_raster(params411, "line", WINDOW, (32, 16), budget=64,
                       eps=1e-3)
    g2 = siegel_raster(params411, "line", WINDOW, (32, 16), budget=128,
                       eps=1e-3)
    flipped = (g1.classes == _kernels.CLASS_RECURRENT) \
        & (g2.classes != _kernels.CLASS_RECURRENT)
    assert not flipped.any()


def test_raster_threads_and_reruns_identical(params411):
    a = siegel_raster(params411, "line", WINDOW, (40, 20), budget=128,
                      eps=1e-3, threads=1)
    b = siegel_raster(params411, "line", WINDOW, (40, 20), budget=128,
                      eps=1e-3, threads=3)
    c = siegel_raster(params411, "line", WINDOW, (40, 20), budget=128,
                      eps=1e-3, threads=1)
    assert a.to_pgm_bytes() == b.to_pgm_bytes() == c.to_pgm_bytes()


def test_raster_pgm_format(params411, tmp_path):
    grid = siegel_raster(params411, "line", WINDOW, (16, 8), budget=64,
                        eps=1e-3)
    path = tmp_path / "out.pgm"
    grid.write_pgm(path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n16 8\n255\n")
    assert len(data) == len(b"P5\n16 8\n255\n") + 16 * 8
    assert set(data[len(b"P5\n16 8\n255\n"):]) <= {0, 128, 255}
    csvp = tmp_path / "out.csv"
    grid.write_csv(csvp)
    lines = csvp.read_text().strip().splitlines()
    assert len(lines) == 16 * 8 + 1


def test_raster_precision_doubling_stability(params411):
    # mp classifier at 256 and 512 bits agrees on a 32x32 spot-check
    # subgrid, and matches the hardware kernel there
    cands = candidate_times(params411.lam, 128)
    us = np.linspace(0.25, 1.25, 32)
    vs = np.linspace(0.0, 0.04, 32)
    delta = complex(params411.delta)
    c = complex(params411.c)
    for u in us:
        for v in vs:
            got256, _ = classify_point_mp(params411, (v, 1, u), cands, 1e-3,
                                          precision_bits=256)
            got512, _ = classify_point_mp(params411, (v, 1, u), cands, 1e-3,
                                          precision_bits=512)
            hw, _ = _kernels.classify_point(v, 1.0, u, delta, c, params411.n,
                                            cands, 1e-3)
            assert got256 == got512 == hw


@pytest.mark.parametrize("bits", [32, 0])
def test_classify_point_mp_rejects_low_precision(params411, bits):
    # 0 is a precision below the floor, not "the pack's precision" (None)
    with pytest.raises(ValidationError):
        classify_point_mp(params411, (0, 1, 0.45), [4], 1e-3,
                          precision_bits=bits)


def test_no_periodic_points_off_line(params411):
    # recurrent cells off the invariant line return only near candidate
    # times and never exactly (distance stays above hardware noise)
    cands = candidate_times(params411.lam, 512)
    delta = complex(params411.delta)
    c = complex(params411.c)
    for (t, w) in [(0.005, 0.5), (0.01, 0.9), (0.002, 1.1)]:
        dists = _kernels.h_orbit_distances(t, 1.0, w, delta, c, params411.n,
                                           max(cands))
        best = int(np.argmin(dists)) + 1
        assert best in cands
        assert dists.min() > 1e-12


# -- slice radius ---------------------------------------------------------------------

def test_slice_radius_brackets(params411):
    out = slice_radius(params411, 0.45, budget=2048)
    assert not out["inconclusive"]
    assert 0 < out["r_lo"] <= out["r_hi"] < float("inf")


def test_slice_radius_deterministic(params411):
    a = slice_radius(params411, 0.7, budget=1024)
    b = slice_radius(params411, 0.7, budget=1024)
    assert a == b
