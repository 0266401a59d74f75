"""Blowup combinatorics: fiber charts, landing criterion, multiplier calculus.

The surface carrying the automorphism is built from the projective plane by
three levels of blowups over the invariant line at infinity. Level-1 fibers
E1_s sit over the orbit points of [0:0:1]; level-2 fibers E2_s over the
points where that orbit meets the contracted-line directions; level-3 fibers
over the nm-step orbit of the exceptional curve {y=0} through the level-2
fibers. This module implements the induced maps in the explicit fiber
charts, the exact landing criterion selecting the family polynomial's roots,
the marked-orbit pattern check, and the multiplier bookkeeping of the
diagonal linear model. The level-2 chart map is written once,
`level2_step`, over any ring: `fiber_map_level2` runs it on numbers and
`series.corner_return_map` on truncated series.

Chart conventions (pi = blowdown to the plane):
  level 1, s = 0:        pi(s1, e1)_0 = [s1 : s1*e1 : 1]
  level 1, 1 <= s <= n-1: pi(s1, e1)_s = [s1 : 1 : s1*e1 + w_s]
  level 2:                (s1, e1) = (xi*x2, x2), fiber = {x2 = 0}
where w_s are the invariant-line orbit values (w_{n-1} = 0).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mpc, mpf, workprec

from . import family, salem
from .errors import (ChartEscapeError, ConsistencyError,
                     IndeterminatePointError, NumericFailureError,
                     PatternViolationError, ValidationError)
from .numeric import (check_precision, mat2_mul, mat2_pow, mpc_to_json,
                      proj_distance, tolerance_for)


# ---------------------------------------------------------------------------
# landing criterion
# ---------------------------------------------------------------------------

def landing_condition(n, m, delta, precision_bits=256):
    """Projective residual of the exceptional-orbit landing criterion.

    The orbit of the contracted line re-enters the level-2 fiber cycle m
    times; it lands on the point of indeterminacy exactly when

        (M1^(n-2) M2^2)^m (1, 0)^T  is parallel to  (delta, 1)^T,

    with M1 = [[1,0],[1,delta]], M2 = [[1,0],[1,-delta]]. The returned
    residual is the projective distance between the two vectors; it vanishes
    (to tolerance) iff delta is a root of the degree-nm family polynomial.
    """
    if n < 3 or m < 1:
        raise ValidationError("landing criterion needs n >= 3, m >= 1")
    precision_bits = check_precision(precision_bits)
    with workprec(precision_bits):
        d = mpc(delta)
        m1 = ((mpc(1), mpc(0)), (mpc(1), d))
        m2 = ((mpc(1), mpc(0)), (mpc(1), -d))
        cycle = mat2_pow(m1, n - 2)
        cycle = mat2_mul(cycle, mat2_mul(m2, m2))
        total = mat2_pow(cycle, m)
        v = (total[0][0], total[1][0])          # total @ (1, 0)^T
        if max(abs(v[0]), abs(v[1])) < tolerance_for(precision_bits):
            raise NumericFailureError("landing vector collapsed to zero")
        return proj_distance(v, (d, mpc(1)))


# ---------------------------------------------------------------------------
# fiber chart maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberChartPoint:
    """A point in one of the exceptional-fiber charts.

    level 1 uses coordinates (s1, e1)_s: the fiber is {s1 = 0} with fiber
    coordinate e1. level 2 uses (xi, x2)_s: the fiber is {x2 = 0} with fiber
    coordinate xi, and {xi = 0} is the level-1 fiber's strict transform.
    """

    level: int
    s: int
    coords: tuple


def _omega(params, s):
    # orbit[s-1] = w_s for 1 <= s <= n-1; w_{n-1} is the vanishing endpoint
    return params.orbit[s - 1]


def fiber_map_level1(params, pt):
    """Induced map on the level-1 charts, fiber s to fiber s+1 (mod n).

    On-fiber restriction: e1 -> -delta e1 (s=0), e1 -> delta e1 / w_s
    (1 <= s <= n-2), e1 -> e1 (s = n-1); the full chart maps extend these
    off the fiber.
    """
    if pt.level != 1:
        raise ValidationError("level-1 chart point required")
    n = params.n
    s = pt.s % n
    with workprec(params.precision_bits):
        s1, e1 = mpc(pt.coords[0]), mpc(pt.coords[1])
        d, c = params.delta, params.c
        tol = params.tolerance
        if s == 0:
            out = (s1, -d * e1 + s1)
        elif s <= n - 2:
            w = _omega(params, s)
            den = s1 * e1 + w
            if abs(den) < tol:
                raise ChartEscapeError("level-1 chart denominator vanished")
            out = (s1 / den, d * e1 / w + s1 / den)
        else:
            den = -d * e1 + c * s1 * e1 * e1 + s1
            if abs(den) < tol:
                raise ChartEscapeError("level-1 chart left its domain near the "
                                       "level-2 center")
            out = (s1 * e1 / den, e1)
        return FiberChartPoint(level=1, s=(s + 1) % n, coords=out)


def level2_step(params, s, xi, x2, div):
    """The level-2 chart map from fiber s to fiber s+1, in any ring.

    xi, x2 are numbers or series, and div(a, b) is the ring's a / b: the
    pointwise map passes a division that refuses a vanishing denominator,
    the corner return map one that inverts b as a unit series. On the
    fiber (x2 = 0) the map is the Moebius family xi -> xi/(xi - delta) for
    s in {0, n-1} and xi -> xi/(xi + delta) otherwise.
    """
    d, c = params.delta, params.c
    if s == 0:
        return div(xi, xi - d), x2 * (-d + xi)
    if s <= params.n - 2:
        w = _omega(params, s)
        q = x2 * x2 * xi
        den = d * q + w * (xi + d)
        den2 = w * (w + q)
        return div(w * xi, den), div(x2 * den, den2)
    return div(xi, xi - d + c * x2 * x2 * xi), x2


def fiber_map_level2(params, pt):
    """Induced map on the level-2 charts, fiber s to fiber s+1 (mod n).

    `level2_step` on mpc values; a denominator below tolerance raises
    IndeterminatePointError.
    """
    if pt.level != 2:
        raise ValidationError("level-2 chart point required")
    s = pt.s % params.n
    with workprec(params.precision_bits):
        tol = params.tolerance

        def div(a, b):
            if abs(b) < tol:
                raise IndeterminatePointError(
                    "level-2 chart denominator vanished")
            return a / b

        out = level2_step(params, s, mpc(pt.coords[0]), mpc(pt.coords[1]),
                          div)
        return FiberChartPoint(level=2, s=(s + 1) % params.n, coords=out)


# ---------------------------------------------------------------------------
# marked-orbit pattern verification
# ---------------------------------------------------------------------------

def _cycle_factor(params, chart_map, level, axis, along):
    """Multiplier of n steps of chart_map transverse to an invariant axis.

    Starts on fiber 0 at `along` on the axis {coords[axis] = 0} and
    2^(-7 bits/8) off it, and returns coords[axis] after n steps over its
    start: no cancellation, nonlinear terms below 2^(-3 bits/4) relative.
    """
    start = mpf(2) ** (-(7 * params.precision_bits // 8))
    pt = FiberChartPoint(level=level, s=0, coords=(
        (start, along) if axis == 0 else (along, start)))
    for _ in range(params.n):
        pt = chart_map(params, pt)
    return pt.coords[axis] / start


def fiber_orbit_check(params):
    """Track marked points through the charts and verify the orbit pattern.

    Checks, with residuals reported: (a) the level-1 fiber cycle closes
    after n steps, the on-fiber composite being multiplication by 1/lambda
    and the transverse one (s1 read off fiber_map_level1) by lambda; (b)
    the exceptional curve {y=0} enters the level-2 cycle at fiber coordinate
    1, stays on the level-2 fibers, and lands after nm steps on the
    inverse-exceptional point (delta, 0) on fiber n-1; (c) the map's image
    of the contracted curve enters the level-2 chart along direction
    delta * x / t; (d) the fiber_map_level2 step onto the inverse-exceptional
    line has Jacobian determinant 1/delta, nonvanishing (local
    diffeomorphism).

    (a) runs at one fiber point, e = 1.25 + 0.5i: both multipliers are
    constant along the fiber, so another point measures the same numbers,
    and a composite that is not e -> e/lambda (a scaling off 1/lambda or a
    term nonlinear in e) already shows at a generic point.
    """
    n, m = params.n, params.m
    with workprec(params.precision_bits):
        d, lam = params.delta, params.lam
        tol = params.tolerance
        check_tol = tolerance_for(params.precision_bits // 2)
        report = {}

        # (a) level-1 cycle: n steps return to the start fiber; on-fiber
        # coordinate is multiplied by 1/lambda, transverse s1 by lambda
        e = mpc("1.25", "0.5")
        pt = FiberChartPoint(level=1, s=0, coords=(mpc(0), e))
        for _ in range(n):
            pt = fiber_map_level1(params, pt)
        if pt.s != 0 or abs(pt.coords[0]) > tol:
            raise PatternViolationError("level-1 cycle left the fiber")
        residual = abs(pt.coords[1] - e / lam)
        report["level1_cycle_residual"] = residual
        if residual > check_tol:
            raise PatternViolationError(
                "level-1 on-fiber composite is not 1/lambda "
                "(residual %s)" % salem.mp_str(residual))
        transverse = abs(_cycle_factor(params, fiber_map_level1, 1, 0, e)
                         - lam)
        report["level1_transverse_residual"] = transverse
        if transverse > check_tol:
            raise PatternViolationError("level-1 transverse factor is not lambda")

        # (b) exceptional-curve chain: fiber coordinate orbit from 1 on fiber
        # 0 stays on the level-2 fibers and reaches delta on fiber n-1 after
        # nm-1 steps
        pt = FiberChartPoint(level=2, s=0, coords=(mpc(1), mpc(0)))
        for _ in range(n * m - 1):
            pt = fiber_map_level2(params, pt)
        if pt.s != (n - 1) % n:
            raise PatternViolationError("exceptional chain ended on fiber %d, "
                                        "expected %d" % (pt.s, n - 1))
        if abs(pt.coords[1]) > tol:
            raise PatternViolationError("exceptional chain left the level-2 "
                                        "fiber")
        landing_res = abs(pt.coords[0] - d)
        report["chain_landing_residual"] = landing_res
        if landing_res > check_tol:
            raise PatternViolationError(
                "exceptional chain missed the inverse-exceptional point "
                "(residual %s)" % salem.mp_str(landing_res))

        # (c) contracted-line image direction: map [1 : x : y], y -> 0, by
        # the scalar homogeneous step, and read the image in the level-1
        # chart over fiber 0 ([s1 : s1 e1 : 1]) and then the level-2 chart
        # ((s1, e1) = (xi x2, x2)); the entry point satisfies
        # (xi - 1)/x2 -> delta x
        y = mpf(2) ** (-(params.precision_bits // 3))
        worst3 = mpf(0)
        for x in (mpf("0.5"), mpf(1), mpf(2)):
            t_img, x_img, y_img, _ = family.step(1, x, y, d, params.c, 1)
            s1, e1 = t_img / y_img, x_img / t_img
            xi, x2 = s1 / e1, e1
            worst3 = max(worst3, abs((xi - 1) / x2 - d * x))
        report["entry_direction_residual"] = worst3
        if worst3 > mpf(2) ** (-(params.precision_bits // 4)):
            raise PatternViolationError("contracted-line entry direction "
                                        "mismatch")

        # (d) last step to the inverse-exceptional line: fiber_map_level2 on
        # fiber n-1 read in (u, v) = (1/xi', x2') is smooth through (delta, 0)
        # with Jacobian determinant 1/delta != 0; central difference
        # quotients straddle the indeterminate point itself
        h = mpf(2) ** (-(params.precision_bits // 3))

        def last_step(xi, x2):
            pt = fiber_map_level2(params, FiberChartPoint(
                level=2, s=n - 1, coords=(xi, x2)))
            return 1 / pt.coords[0], pt.coords[1]

        (u_p, v_p), (u_m, v_m) = last_step(d + h, 0), last_step(d - h, 0)
        (u_q, v_q), (u_r, v_r) = last_step(d + h, h), last_step(d + h, -h)
        jac = ((u_p - u_m) * (v_q - v_r) - (u_q - u_r) * (v_p - v_m)) \
            / (4 * h * h)
        report["last_step_jacobian"] = abs(jac)
        report["last_step_jacobian_residual"] = abs(jac - 1 / d)
        if abs(jac) < check_tol:
            raise PatternViolationError("final step is not a local diffeomorphism")
        if report["last_step_jacobian_residual"] > check_tol:
            raise PatternViolationError("final step Jacobian is not 1/delta")

        return report


# ---------------------------------------------------------------------------
# multiplier calculus of the diagonal model
# ---------------------------------------------------------------------------

def blowup_multipliers(parent):
    """Multipliers at the two fixed points created by blowing up a fixed point.

    For parent multipliers (v1, v2) along invariant directions (C1, C2), the
    exceptional fiber P carries fixed points C1^P and C2^P with multipliers
    (v1, v2/v1) and (v2, v1/v2): along the old curve first, along P second.
    """
    v1, v2 = parent
    if v1 == 0 or v2 == 0:
        raise ValidationError("blowup multipliers must be nonzero")
    return ((v1, v2 / v1), (v2, v1 / v2))


@dataclass
class MultiplierNode:
    """Node of the blowup multiplier tree.

    mult_along is the multiplier along the exceptional fiber created at this
    node's blowup (for leaves of interest), mult_normal the one transverse
    to it; exp_along/exp_normal carry the same data symbolically as integer
    powers of lambda.
    """

    label: str
    exp_along: int
    exp_normal: int
    mult_along: object
    mult_normal: object
    children: list = field(default_factory=list)

    def to_json(self, bits):
        return {
            "label": self.label,
            "exp_along": self.exp_along,
            "exp_normal": self.exp_normal,
            "mult_along": mpc_to_json(self.mult_along, bits),
            "mult_normal": mpc_to_json(self.mult_normal, bits),
            "children": [ch.to_json(bits) for ch in self.children],
        }

    def find(self, label):
        if self.label == label:
            return self
        for ch in self.children:
            got = ch.find(label)
            if got is not None:
                return got
        return None


def build_linear_model(params):
    """Three-level multiplier tree of the diagonal model over a line point.

    The scalar model fixes the line at infinity pointwise with transverse
    multiplier lambda, so the base fixed-point data is (1, lambda). Each of
    three blowups down the radial line applies blowup_multipliers to the
    ray node. The rule runs on exact powers 2^e standing in for lambda^e, so
    it yields the integer exponents, and each multiplier is lambda^e. The
    corner of the level-1 and level-2 fibers carries {lambda^2, 1/lambda},
    read back off n steps of fiber_map_level2 along each corner axis; the
    deeper corner carries {lambda^3, lambda^-2}. Raises ConsistencyError on
    a mismatch.
    """
    with workprec(params.precision_bits):
        lam = params.lam

        def node(label, e_along, e_normal):
            return MultiplierNode(label=label, exp_along=e_along,
                                  exp_normal=e_normal,
                                  mult_along=lam ** e_along,
                                  mult_normal=lam ** e_normal)

        def exponent(q):      # e of the exact power q = 2^e
            return q.numerator.bit_length() - q.denominator.bit_length()

        # base point on the invariant line: multipliers (1, lambda) along
        # (line, radial) directions
        root = ray = node("line_point", 0, 1)
        for labels in (("line_x_e1", "ray_x_e1"), ("e1_x_e2", "ray_x_e2"),
                       ("e2_x_e3", "ray_x_e3")):
            # blow up the ray point; each child pair is (along the old
            # curve, along the new fiber) = (normal, along)
            pairs = blowup_multipliers((Fraction(2) ** ray.exp_along,
                                        Fraction(2) ** ray.exp_normal))
            ray.children = [node(lb, exponent(along), exponent(normal))
                            for lb, (normal, along) in zip(labels, pairs)]
            ray = ray.children[1]
        corner = root.find("e1_x_e2")
        check_tol = tolerance_for(params.precision_bits // 2)

        # corner cross-check against the nonlinear side: n steps of the
        # level-2 chart map along E2 = {x2 = 0} and E1 = {xi = 0}
        xi_factor = _cycle_factor(params, fiber_map_level2, 2, 0, mpc(0))
        x_factor = _cycle_factor(params, fiber_map_level2, 2, 1, mpc(0))
        res_xi = abs(xi_factor - corner.mult_along)
        res_x = abs(x_factor - corner.mult_normal)
        if res_xi > check_tol or res_x > check_tol:
            raise ConsistencyError(
                "corner multipliers disagree with the level-2 cycle: "
                "(%s, %s)" % (salem.mp_str(res_xi), salem.mp_str(res_x)))

        return root
