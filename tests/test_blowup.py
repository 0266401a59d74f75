"""Landing criterion, fiber chart maps, orbit pattern, multiplier tree."""

import pytest
from mpmath import mp, mpc, mpf, workprec

from rsadyn import blowup, family
from rsadyn.blowup import (FiberChartPoint, blowup_multipliers,
                           build_linear_model,
                           fiber_map_level1, fiber_map_level2,
                           fiber_orbit_check, landing_condition)
from rsadyn.errors import (ConsistencyError, IndeterminatePointError,
                           PatternViolationError, ValidationError)

TOL30 = mpf(10) ** -30


# -- landing criterion ---------------------------------------------------------

def test_landing_m1_reduction(params411):
    # oracle: the one-cycle form by direct 2x2 arithmetic:
    # M2^2 (1,0)^T = (1, 1-d)^T, then M1^(n-2) applied, cross-multiplied
    d = params411.delta
    with workprec(256):
        v = (mpc(1), 1 - d)
        for _ in range(2):                      # M1^(n-2) with n = 4
            v = (v[0], v[0] + d * v[1])
        cross = abs(v[0] * 1 - v[1] * d)        # parallel to (d, 1)?
        res = landing_condition(4, 1, d)
        assert cross < mpf(10) ** -70
        assert res < TOL30


def test_landing_41_is_family_polynomial_condition(params411):
    # oracle: expanding M1^2 (1, 1-d)^T and cross-multiplying yields
    # 1 - d - d^2 - d^3 + d^4, the family polynomial at d
    from rsadyn import salem_polynomial
    p = salem_polynomial(4, 1)
    with workprec(256):
        d = params411.delta
        expanded = 1 + d + d * d - d ** 3       # second component of M1^2(1,1-d)
        assert abs(1 - d * expanded - p(d)) < mpf(10) ** -70
        assert landing_condition(4, 1, d) < TOL30


def test_landing_sharp_under_perturbation(params411):
    with workprec(256):
        d = params411.delta * (1 + mpf(10) ** -5)
        assert landing_condition(4, 1, d) > mpf(10) ** -7


def test_landing_iff_root_on_grid(params721):
    # both directions on roots and perturbed roots
    with workprec(256):
        d = params721.delta
        assert landing_condition(7, 2, d) < TOL30
        for fac in (1 + mpf(10) ** -4, 1 - mpf(10) ** -4):
            assert landing_condition(7, 2, d * fac) > mpf(10) ** -9


def test_landing_validates_range():
    with pytest.raises(ValidationError):
        landing_condition(2, 1, mpc(1))


# -- level-1 chart maps ----------------------------------------------------------

def test_level1_origin_chain(params411):
    # the level-2 centers (0,0)_s march forward for s < n-1; the final
    # origin is where the inverse-exceptional line is born, so the level-1
    # chart map is genuinely singular there (resolved only at level 2)
    from rsadyn.errors import ChartEscapeError
    p = params411
    with workprec(256):
        pt = FiberChartPoint(level=1, s=0, coords=(mpc(0), mpc(0)))
        for s in range(p.n - 1):
            pt = fiber_map_level1(p, pt)
            assert pt.s == s + 1
            assert abs(pt.coords[0]) < TOL30 and abs(pt.coords[1]) < TOL30
        with pytest.raises(ChartEscapeError):
            fiber_map_level1(p, pt)


def test_level1_on_fiber_composite_is_reciprocal_multiplier(params411):
    # around the cycle the fiber coordinate is multiplied by
    # -d^(n-1)/(w_1...w_{n-2}) = 1/lambda
    p = params411
    with workprec(256):
        e0 = mpc("0.7", "0.2")
        pt = FiberChartPoint(level=1, s=0, coords=(mpc(0), e0))
        for _ in range(p.n):
            pt = fiber_map_level1(p, pt)
        assert pt.s == 0 and abs(pt.coords[0]) < TOL30
        assert abs(pt.coords[1] - e0 / p.lam) < mpf(10) ** -70
        prod = -p.delta ** (p.n - 1)
        for w in p.orbit[:-1]:
            prod /= w
        assert abs(pt.coords[1] - e0 * prod) < mpf(10) ** -70


def test_level1_last_step_identity_on_fiber(params411):
    p = params411
    with workprec(256):
        e0 = mpc("0.3", "-0.6")
        pt = fiber_map_level1(p, FiberChartPoint(level=1, s=p.n - 1,
                                                 coords=(mpc(0), e0)))
        assert pt.s == 0
        assert abs(pt.coords[1] - e0) == 0


# -- level-2 chart maps ----------------------------------------------------------

def test_level2_first_step(params411):
    p = params411
    with workprec(256):
        pt = fiber_map_level2(p, FiberChartPoint(level=2, s=0,
                                                 coords=(mpc(1), mpc(0))))
        assert pt.s == 1
        assert abs(pt.coords[0] - 1 / (1 - p.delta)) < mpf(10) ** -70
        assert abs(pt.coords[1]) == 0


@pytest.mark.parametrize("fixture", ["params411", "params721"])
def test_level2_chain_lands_on_inverse_exceptional(fixture, request):
    p = request.getfixturevalue(fixture)
    with workprec(256):
        pt = FiberChartPoint(level=2, s=0, coords=(mpc(1), mpc(0)))
        for _ in range(p.n * p.m - 1):
            pt = fiber_map_level2(p, pt)
        assert pt.s == p.n - 1
        assert abs(pt.coords[0] - p.delta) < TOL30


def test_level2_last_chart_fixes_x(params411):
    p = params411
    with workprec(256):
        x2 = mpc("0.05", "0.02")
        pt = fiber_map_level2(p, FiberChartPoint(level=2, s=p.n - 1,
                                                 coords=(mpc("0.4"), x2)))
        assert pt.s == 0
        assert abs(pt.coords[1] - x2) == 0


def test_level2_denominator_guard(params411):
    p = params411
    with pytest.raises(IndeterminatePointError):
        fiber_map_level2(p, FiberChartPoint(level=2, s=0,
                                            coords=(p.delta, mpc(0))))


# -- orbit pattern and multiplier tree ---------------------------------------------

def test_fiber_orbit_check(params411):
    rep = fiber_orbit_check(params411)
    with workprec(256):
        assert rep["level1_cycle_residual"] < mpf(10) ** -60
        assert rep["level1_transverse_residual"] < mpf(10) ** -60
        assert rep["chain_landing_residual"] < TOL30
        assert rep["entry_direction_residual"] < mpf(10) ** -20
        assert rep["last_step_jacobian"] > mpf("0.5")


def _perturbed(chart_map, axis, term):
    # chart_map with 1e-6 * term(output coords) added to coordinate `axis`
    # of its output
    def mutant(params, pt):
        out = chart_map(params, pt)
        coords = list(out.coords)
        coords[axis] = coords[axis] + mpf(10) ** -6 * term(out.coords)
        return FiberChartPoint(level=out.level, s=out.s, coords=tuple(coords))
    return mutant


def _scaled(chart_map, axis):
    # chart_map with coordinate `axis` of its output scaled by 1 + 1e-6
    return _perturbed(chart_map, axis, lambda co: co[axis])


def test_fiber_orbit_check_reads_level1_map(params411, monkeypatch):
    # the transverse multiplier lambda is measured on fiber_map_level1
    monkeypatch.setattr(blowup, "fiber_map_level1",
                        _scaled(fiber_map_level1, 0))
    with pytest.raises(PatternViolationError):
        fiber_orbit_check(params411)


@pytest.mark.parametrize("name,axis,term,message", [
    ("fiber_map_level1", 1, lambda co: co[1], "not 1/lambda"),
    ("fiber_map_level1", 1, lambda co: co[1] ** 2, "not 1/lambda"),
    ("fiber_map_level1", 0, lambda co: co[1], "level-1 cycle left the fiber"),
    ("fiber_map_level2", 1, lambda co: 1, "chain left the level-2 fiber"),
], ids=["e1-scaled", "e1-quadratic", "s1-off-fiber", "x2-off-fiber"])
def test_fiber_orbit_check_catches_mutants(params411, monkeypatch, name,
                                           axis, term, message):
    # one fiber point suffices: a composite off e -> e/lambda, linear or
    # not, shows at e = 1.25 + 0.5i, and a map that leaves the fiber (s1 on
    # level 1, x2 on level 2) is caught on the level-1 cycle and on the
    # exceptional chain
    monkeypatch.setattr(blowup, name,
                        _perturbed(getattr(blowup, name), axis, term))
    with pytest.raises(PatternViolationError, match=message):
        fiber_orbit_check(params411)


@pytest.mark.parametrize("wrong", [
    lambda delta, c: (delta * (1 + mpf(10) ** -6), c),
    lambda delta, c: (-delta, c),
], ids=["delta-scaled", "delta-xy-sign"])
def test_fiber_orbit_check_reads_homogeneous_step(params411, monkeypatch,
                                                  wrong):
    # check (c) maps [1 : x : y] by family.step: a map whose -delta x y
    # term is scaled by 1 + 1e-6, or has its sign flipped, enters the
    # level-2 chart along the wrong direction
    step = family.step
    monkeypatch.setattr(family, "step", lambda t, x, y, delta, c, n:
                        step(t, x, y, *wrong(delta, c), n))
    with pytest.raises(PatternViolationError,
                       match="contracted-line entry direction mismatch"):
        fiber_orbit_check(params411)


def test_linear_model_reads_level2_map(params411, monkeypatch):
    # both corner multipliers are measured on fiber_map_level2: lambda^2 on
    # the fiber coordinate xi (axis 0), 1/lambda transverse to it (axis 1)
    for axis in (0, 1):
        monkeypatch.setattr(blowup, "fiber_map_level2",
                            _scaled(fiber_map_level2, axis))
        with pytest.raises(ConsistencyError):
            build_linear_model(params411)


def test_blowup_multiplier_rule():
    pair = blowup_multipliers((1.0, 2.0))
    assert pair == ((1.0, 2.0), (2.0, 0.5))
    # bookkeeping identity: (v1) * (v2/v1) = v2 exactly
    v1, v2 = 3.0, 7.0
    (a1, a2), (b1, b2) = blowup_multipliers((v1, v2))
    assert a1 * a2 == v2 and b1 * b2 == v1


def test_linear_model_tree(params411):
    p = params411
    tree = build_linear_model(p)
    corner = tree.find("e1_x_e2")
    deep = tree.find("e2_x_e3")
    assert (corner.exp_along, corner.exp_normal) == (2, -1)
    assert (deep.exp_along, deep.exp_normal) == (3, -2)
    with workprec(256):
        assert abs(corner.mult_along - p.lam ** 2) < mpf(10) ** -70
        assert abs(corner.mult_normal - 1 / p.lam) < mpf(10) ** -70
        # base point data (1, lambda)
        assert tree.exp_along == 0 and tree.exp_normal == 1


def test_linear_model_tree_json(params411):
    data = build_linear_model(params411).to_json(256)
    assert data["label"] == "line_point"
    assert data["children"][0]["exp_along"] == 1


def test_linear_model_json_keeps_full_precision(params411):
    # serialized outside any workprec: the root's transverse multiplier is
    # lambda, and its digits must be those of the params report, not of a
    # 53-bit double
    data = build_linear_model(params411).to_json(256)
    assert data["mult_normal"] == params411.to_json()["lambda"]


def test_landing_matches_polynomial_on_circle_grid(params411):
    # landing residual ~ 0 iff |family polynomial| ~ 0, tested both ways
    from rsadyn import salem_polynomial
    from mpmath import exp, pi
    p = salem_polynomial(4, 1)
    with workprec(256):
        root = params411.delta
        assert abs(p(root)) < mpf(10) ** -70
        assert landing_condition(4, 1, root) < TOL30
        for k in range(1, 6):
            z = exp(2j * pi * mpf(k) / 7)   # not a root
            assert abs(p(z)) > mpf("0.01")
            assert landing_condition(4, 1, z) > mpf(10) ** -4
