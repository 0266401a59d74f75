"""Parameter pack validation, map evaluation, fixed-point calculus."""

import json

import pytest
from mpmath import cos, exp, mp, mpc, mpf, pi, sqrt, workprec

from rsadyn import (ValidationError, build_params, fixed_points,
                    map_affine, multipliers_at_fixed,
                    multiplicative_relation_search, orbit_identities)
from rsadyn import family
from rsadyn.errors import RsadynError
from rsadyn.family import line_map, step, with_mismatched_c

TOL30 = mpf(10) ** -30


# -- construction and validation ----------------------------------------------

def test_c_value_411(params411):
    # cos(pi/4) = sqrt(2)/2, so c = sqrt(2) sqrt(delta)
    with workprec(256):
        assert abs(params411.c - sqrt(2) * params411.sqrt_delta) < TOL30


def test_orbit_endpoint_vanishes(params411, params511, params721):
    for p in (params411, params511, params721):
        with workprec(256):
            assert abs(p.orbit[-1]) < TOL30


def test_lambda_square_even_n(params411):
    with workprec(256):
        assert abs(params411.lam ** 2 - params411.delta ** -4) < TOL30


def test_lambda_odd_n(params511):
    # n odd: lambda = -1/(delta^((n-1)/2) w_mid) with w_mid^2 = delta
    p = params511
    with workprec(256):
        assert abs(p.orbit_mid ** 2 - p.delta) < TOL30
        assert abs(p.lam + 1 / (p.delta ** 2 * p.orbit_mid)) < TOL30


def test_rejects_bad_j():
    with pytest.raises(ValidationError):
        build_params(4, 1, 2)           # gcd(2, 4) != 1
    with pytest.raises(ValidationError):
        build_params(4, 1, 4)
    with pytest.raises(ValidationError):
        build_params(3, 1, 1)           # (3, 1) outside the family


def test_rejects_bad_root_index():
    with pytest.raises(ValidationError):
        build_params(4, 1, 1, root_index=99)


def test_j_to_n_minus_j_negates_c(params411):
    # j -> n - j is the other square-root branch: cos((n-j) pi/n) = -cos(j pi/n)
    other = build_params(4, 1, 3)
    with workprec(256):
        assert abs(other.c + params411.c) < TOL30


def test_params_json_roundtrip(params411):
    # the decimal strings of to_json, read back with mpmath, carry the
    # full 256-bit delta and lambda, not a 53-bit double
    data = json.loads(json.dumps(params411.to_json()))
    with workprec(256):
        def read(obj):
            return mpc(mpf(obj["re"]), mpf(obj["im"]))
        assert abs(read(data["delta"]) - params411.delta) < mpf(2) ** -250
        assert abs(read(data["lambda"]) - params411.lam) < mpf(2) ** -250
    assert data["n"] == 4 and data["j"] == 1 and data["precision"] == 256


# -- map evaluation ------------------------------------------------------------

def test_map_affine_simple_point(params411):
    with workprec(256):
        img = map_affine(params411, (mpc(0), mpc(1)))
        assert abs(img[0] - 1) < TOL30
        assert abs(img[1] - (params411.c + 1)) < TOL30


def test_map_affine_converts_inside_workprec(params411):
    # called outside any workprec, the point must not be rounded to a
    # double before the step
    z = fixed_points(params411)[0]
    outside = map_affine(params411, z)
    with workprec(params411.precision_bits):
        inside = map_affine(params411, z)
    assert outside == inside


def test_map_affine_rejects_exceptional(params411):
    with pytest.raises(RsadynError, match="y = 0 lies on the exceptional"):
        map_affine(params411, (mpc(1), mpc(0)))


def test_inverse_consistency(params411):
    # oracle: f^{-1}(x, y) = ((c x - y + 1/x) / delta, x)
    p = params411
    with workprec(256):
        z = (mpf("0.43") + mpf("0.21") * 1j, mpf("1.2") - mpf("0.4") * 1j)
        x, y = map_affine(p, z)
        back = ((p.c * x - y + 1 / x) / p.delta, x)
        assert max(abs(back[0] - z[0]), abs(back[1] - z[1])) < TOL30


def _kernel_distance(p, q):
    """Projective distance |p x q| / (|p| |q|) by the raster kernels' own
    helper, family._dist2."""
    num, den = family._dist2(*p, *q, family._norm2(*q))
    return sqrt(num / den)


def _step_once(params, t, x, y):
    """One homogeneous map step of [t : x : y] on mpc; asserts it is live."""
    t, x, y, alive = step(mpc(t), mpc(x), mpc(y), params.delta, params.c, 1)
    assert alive
    return t, x, y


def test_homogeneous_contracts_exceptional_curve(params411):
    with workprec(256):
        img = _step_once(params411, 1, mpf("0.7"), 0)
        assert _kernel_distance(img, (0, 0, 1)) < TOL30


def test_homogeneous_line_restriction(params411):
    with workprec(256):
        w = mpf("0.62") + mpf("0.17") * 1j
        img = _step_once(params411, 0, 1, w)
        want = (0, 1, line_map(params411, w))
        assert _kernel_distance(img, want) < TOL30


def test_projective_functoriality(params411):
    # homogeneous restricted to t = 1 agrees with the affine map
    with workprec(256):
        z = (mpf("0.35") - mpf("0.2") * 1j, mpf("0.9") + mpf("0.3") * 1j)
        paff = map_affine(params411, z)
        phom = _step_once(params411, 1, z[0], z[1])
        want = (1, paff[0], paff[1])
        assert _kernel_distance(phom, want) < TOL30


# -- line orbit and identities ---------------------------------------------------

def test_line_orbit_start_and_second_to_last(params411):
    p = params411
    with workprec(256):
        assert abs(p.orbit[0] - p.c) < TOL30
        # w_{n-2} = delta / c
        assert abs(p.orbit[-2] - p.delta / p.c) < TOL30
        # c's angle is tied to j: the fixed points of the line map, the roots
        # of w^2 - c w + delta, carry derivative delta / w^2 = exp(+-2 pi i j/n)
        disc = sqrt(p.c * p.c - 4 * p.delta)
        rot = exp(2j * pi * p.j / p.n)
        for wfix in ((p.c + disc) / 2, (p.c - disc) / 2):
            deriv = p.delta / (wfix * wfix)
            assert min(abs(deriv - rot), abs(deriv - 1 / rot)) < TOL30


def test_pairing_identity_by_direct_iteration(params721):
    # oracle: recompute the orbit by direct iteration and multiply
    p = params721
    with workprec(256):
        w = p.c
        seq = [w]
        for _ in range(p.n - 2):
            w = p.c - p.delta / w
            seq.append(w)
        for jj in range(1, p.n - 1):
            assert abs(seq[jj - 1] * seq[p.n - 1 - jj - 1] - p.delta) < TOL30
        assert orbit_identities(p)["max_residual"] < TOL30


def test_product_identity_even_and_odd(params411, params511):
    with workprec(256):
        for p in (params411, params511):
            rep = orbit_identities(p)
            assert rep["product_residual"] < TOL30
            assert rep["midpoint_residual"] < TOL30


def test_telescoping_first_increment(params411):
    # g_1 - g_0 = -delta/g_0, the base case of the telescoped expansion
    p = params411
    with workprec(256):
        g0 = p.c
        g1 = line_map(p, g0)
        assert abs((g1 - g0) + p.delta / g0) < TOL30


def test_increment_law(params721):
    # g_k - g_{k-1} = -delta^k / (g_0^2 ... g_{k-2}^2 g_{k-1})
    p = params721
    with workprec(256):
        g = [p.c]
        for _ in range(p.n - 2):
            g.append(line_map(p, g[-1]))
        for k in range(1, p.n - 2):
            denom = mpc(1)
            for i in range(k - 1):
                denom *= g[i] ** 2
            denom *= g[k - 1]
            assert abs((g[k] - g[k - 1]) + p.delta ** k / denom) < TOL30


# -- fixed points and multipliers -------------------------------------------------

def test_fixed_points_structure(params411):
    p = params411
    with workprec(256):
        z1, z2 = fixed_points(p)
        for z in (z1, z2):
            img = map_affine(p, z)
            assert max(abs(img[0] - z[0]), abs(img[1] - z[1])) < TOL30
            assert abs(z[0] - z[1]) < TOL30                   # x = y
            assert abs(z[1] ** 2 * (1 + p.delta - p.c) - 1) < TOL30
        # the two fixed points are negatives of each other
        assert abs(z1[0] + z2[0]) < TOL30


def test_multiplier_product_is_delta(params411, params511):
    for p in (params411, params511):
        with workprec(256):
            for fp in fixed_points(p):
                md = multipliers_at_fixed(p, fp)
                assert abs(md.lambda1 * md.lambda2 - p.delta) < mpf(10) ** -25
                assert md.jacobian_residual < mpf(10) ** -25


def test_multipliers_read_off_map_affine(params411, monkeypatch):
    # a second-coordinate term 1e-3 (x - y) leaves the fixed points (x = y)
    # in place but changes the Jacobian, which the check must see
    p = params411
    fps = fixed_points(p)

    def skewed(params, z):
        x, y = map_affine(params, z)
        return x, y + mpf(10) ** -3 * (mpc(z[0]) - mpc(z[1]))

    monkeypatch.setattr(family, "map_affine", skewed)
    with pytest.raises(RsadynError, match="Jacobian eigenvalues disagree"):
        multipliers_at_fixed(p, fps[0])


def test_unit_modulus_iff_criterion(params411):
    p = params411
    with workprec(256):
        md = multipliers_at_fixed(p, fixed_points(p)[0])
        crit = abs(mpf(p.sqrt_delta.real) - 2 * cos(pi * p.j / p.n)) <= 1
        assert md.rank2_criterion == crit
        assert md.unit_modulus == crit


@pytest.mark.parametrize("member", [(4, 1, 1), (5, 1, 1), (5, 1, 2)])
def test_eigenbasis_diagonalizes_jacobian(member):
    # the Birkhoff basis comes from the certified multipliers in closed form;
    # np.linalg.eigvals of the Jacobian of map_affine is the oracle
    import numpy as np
    p = build_params(*member)
    fp = fixed_points(p)[0]
    md = multipliers_at_fixed(p, fp)
    lams = (complex(md.lambda1), complex(md.lambda2))
    jac = np.array([[0, 1], [-complex(p.delta),
                             complex(p.c) - 1 / complex(fp[1]) ** 2]])
    pmat, pinv = (np.array(m) for m in family._eigenbasis(*lams))
    assert np.abs(jac @ pmat - pmat @ np.diag(lams)).max() < 1e-12
    assert np.abs(np.linalg.norm(pmat, axis=0) - 1).max() < 1e-12
    assert np.abs(pinv @ pmat - np.eye(2)).max() < 1e-12
    for e in np.linalg.eigvals(jac):
        assert min(abs(e - lam) for lam in lams) < 1e-12


def test_degenerate_parameter_guard(params411):
    # synthetic params with c = 1 + delta would degenerate; real members never do
    p = params411
    with workprec(256):
        assert abs(1 + p.delta - p.c) > mpf(10) ** -10


# -- multiplicative relation search -----------------------------------------------

def test_relation_equal_inputs():
    with workprec(128):
        i_unit = mpc(0, 1)
        rel = multiplicative_relation_search(i_unit, i_unit, 4, mpf(10) ** -12)
    assert rel == (1, -1)


def test_relation_seventh_roots():
    # oracle: relations are 3 p1 + p2 = 0 mod 7; minimal |p1|+|p2| with the
    # canonical sign is (2, 1) since 3*2 + 1 = 7
    best = None
    for norm in range(1, 15):
        for p1 in range(0, norm + 1):
            for p2 in (norm - p1, -(norm - p1)):
                if p1 == 0 and p2 <= 0:
                    continue
                if (3 * p1 + p2) % 7 == 0 and (p1, p2) != (0, 0):
                    best = best or (p1, p2)
    assert best == (2, 1)
    with workprec(192):
        l1 = exp(2j * pi * mpf(3) / 7)
        l2 = exp(2j * pi * mpf(1) / 7)
        rel = multiplicative_relation_search(l1, l2, 7, mpf(10) ** -15)
    assert rel == best


def test_family_multipliers_independent(params411):
    p = params411
    with workprec(256):
        md = multipliers_at_fixed(p, fixed_points(p)[0])
        assert md.unit_modulus
        rel = multiplicative_relation_search(md.lambda1, md.lambda2, 50,
                                             mpf(10) ** -20,
                                             precision_bits=256)
    assert rel is None


def test_mismatched_c_moves_orbit(params411):
    bad = with_mismatched_c(params411, mpf(1) + mpf(10) ** -2)
    with workprec(256):
        assert abs(bad.orbit[-1]) > mpf(10) ** -6


def test_mismatched_c_moves_orbit_mid(params411, params511):
    # the midpoint w_{(n-1)/2} is read off the recomputed orbit, not copied
    # from the member: (5,1,1) at mismatch 0.01 moves it by about 0.02
    bad = with_mismatched_c(params511, mpf(1) + mpf(10) ** -2)
    assert bad.orbit_mid == bad.orbit[1]
    with workprec(256):
        assert abs(bad.orbit_mid - params511.orbit_mid) > mpf(10) ** -3
    assert with_mismatched_c(params411, 2).orbit_mid is None
