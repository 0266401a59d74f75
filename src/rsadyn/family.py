"""The automorphism family: parameters, map evaluation, fixed-point calculus.

One member of the family is the birational quadratic map

    f(x, y) = (y, -delta x + c y + 1/y),        c = 2 sqrt(delta) cos(j pi / n)

where delta is a unit-circle, non-root-of-unity root of the degree-nm Salem
polynomial and gcd(j, n) = 1. In homogeneous coordinates

    f[t : x : y] = [t y : y^2 : -delta x y + c y^2 + t^2].

`step` is the one scalar statement of that homogeneous map: n steps, each
renormalized so the largest-modulus coordinate is 1, and on {t = 0} the
linear action (x, y) -> (y, -delta x + c y), so the whole line (the
blown-up points included) iterates. It is plain Python over any
complex-like type: check (b) of `blowup.fiber_orbit_check` runs it on mpc,
the raster cells (`_classify_cell`, with the distance helper `_dist2`) on
complex, and the precision-doubling mirror on `numeric.GaussianFixed`.
The numpy block kernels in `_kernels` repeat its arithmetic per cell.

The restriction to the invariant line at infinity {t = 0} is the Moebius map
g(w) = c - delta / w, elliptic of period n, with fixed points
sqrt(delta) e^(+-i pi j/n). Its forward orbit of c vanishes at step n-1 for
every delta and every coprime j: with theta = j pi/n,
w_k = sqrt(delta) U_k(cos theta) / U_(k-1)(cos theta), and U_(n-1)(cos theta)
= 0. So the check |w_{n-1}| <= tolerance tests the rounding of c, not the
(root index, j) pairing; it is also the parameter-locus test that
`series.corner_return_map` reuses. sqrt(delta) is the principal square
root; the other branch gives the member with j replaced by n - j.

The Birkhoff average at a unit-modulus fixed point runs on Python complex,
in the eigenbasis that the certified multipliers give in closed form.
"""

import random
from dataclasses import dataclass, replace
from math import gcd, hypot

from mpmath import arg, cos, mp, mpc, mpf, pi, sqrt, workprec

from . import salem
from .errors import RsadynError, ValidationError
from .numeric import check_precision, mpc_to_json, tolerance_for


@dataclass(frozen=True)
class FamilyParams:
    """Validated, immutable parameter pack for one family member.

    orbit holds w_1..w_{n-1} with w_s = g^{s-1}(c); orbit_mid reads the
    orbit midpoint w_{(n-1)/2} off it (present only for odd n, where its
    square is delta). lam is the common multiplier of the n-fold return map transverse to the
    line at infinity.
    """

    n: int
    m: int
    j: int
    root_index: int
    precision_bits: int
    delta: object
    sqrt_delta: object
    c: object
    lam: object
    orbit: tuple
    tolerance: object

    @property
    def orbit_mid(self):
        return self.orbit[(self.n - 1) // 2 - 1] if self.n % 2 else None

    def to_json(self):
        bits = self.precision_bits
        return {
            "n": self.n, "m": self.m, "j": self.j, "root_index": self.root_index,
            "precision": bits,
            "delta": mpc_to_json(self.delta, bits),
            "sqrt_delta": mpc_to_json(self.sqrt_delta, bits),
            "c": mpc_to_json(self.c, bits),
            "lambda": mpc_to_json(self.lam, bits),
            "orbit": [mpc_to_json(w, bits) for w in self.orbit],
            "orbit_mid": mpc_to_json(self.orbit_mid, bits)
                         if self.orbit_mid is not None else None,
        }


def line_map(params, w):
    """The invariant-line restriction g(w) = c - delta / w."""
    return params.c - params.delta / w


def _c_orbit(c, delta, n, tol):
    """Line orbit w_1..w_{n-1} of c under w -> c - delta / w; raises
    RsadynError when a value it divides by is below tol."""
    orbit = [c]
    for _ in range(n - 2):
        if abs(orbit[-1]) < tol:
            raise RsadynError("line orbit hit zero")
        orbit.append(c - delta / orbit[-1])
    return tuple(orbit)


def build_params(n, m, j, root_index=0, precision_bits=256):
    """Construct and validate a FamilyParams.

    delta is chosen as nonunity_unit_roots[root_index] of the certified
    Salem polynomial (deterministic (argument, modulus) order) and
    c = 2 sqrt(delta) cos(j pi / n) with the principal square root; the
    other branch is the member with j replaced by n - j. The pack is
    accepted when |w_{n-1}| falls below tolerance: that holds for every
    pairing in exact arithmetic, so the check tests the rounding of c, and
    it is the locus test that `series.corner_return_map` reuses.
    """
    precision_bits = check_precision(precision_bits)
    if not ((n >= 4 and m >= 1) or (n == 3 and m >= 2)):
        raise ValidationError(
            "need n >= 4 with m >= 1, or n = 3 with m >= 2; got n=%r m=%r" % (n, m))
    if not (0 < j < n):
        raise ValidationError("need 0 < j < n, got j=%r" % (j,))
    if gcd(j, n) != 1:
        raise ValidationError("j must be coprime to n, got gcd(%d, %d) = %d"
                              % (j, n, gcd(j, n)))

    certificate = salem.salem_certificate(salem.salem_polynomial(n, m),
                                          precision_bits)
    candidates = certificate.nonunity_unit_roots
    if not (0 <= root_index < len(candidates)):
        raise ValidationError(
            "root_index %r out of range: %d certified non-root-of-unity "
            "unit-circle roots" % (root_index, len(candidates)))

    with workprec(precision_bits):
        tol = tolerance_for(precision_bits)
        delta = candidates[root_index]
        if abs(delta ** 3 + 1) < tol:
            raise RsadynError("delta^3 = -1 is outside the family")
        sqrt_delta = sqrt(delta)
        c = 2 * sqrt_delta * cos(mpf(j) * pi / n)

        orbit = _c_orbit(c, delta, n, tol)
        if abs(orbit[-1]) > tol:
            raise RsadynError(
                "orbit value w_{n-1} = %s fails to vanish: c is off the "
                "parameter locus at this precision" % salem.mp_str(orbit[-1]))

        if n % 2 == 0:
            lam = -delta ** (-(n // 2))
        else:
            orbit_mid = orbit[(n - 1) // 2 - 1]
            if abs(orbit_mid ** 2 - delta) > tol:
                raise RsadynError("orbit midpoint squared differs from delta")
            lam = -1 / (delta ** ((n - 1) // 2) * orbit_mid)

        return FamilyParams(
            n=n, m=m, j=j, root_index=root_index,
            precision_bits=precision_bits, delta=delta, sqrt_delta=sqrt_delta,
            c=c, lam=lam, orbit=orbit, tolerance=tol)


def with_mismatched_c(params, factor):
    """Copy of params with c scaled by `factor` (a deliberate non-member c).

    The orbit recurrence is recomputed without the vanishing check. Used by
    sharpness probes: a non-member c makes the resonant coefficients of the
    corner return map survive, so linearization must report an obstruction.
    """
    with workprec(params.precision_bits):
        c = params.c * mpc(factor)
        return replace(params, c=c, orbit=_c_orbit(c, params.delta, params.n,
                                                    params.tolerance))


# ---------------------------------------------------------------------------
# map evaluation
# ---------------------------------------------------------------------------

def map_affine(params, z):
    """One step of f(x, y) = (y, -delta x + c y + 1/y)."""
    with workprec(params.precision_bits):
        x, y = mpc(z[0]), mpc(z[1])
        if abs(y) < params.tolerance:
            raise RsadynError("y = 0 lies on the exceptional curve")
        return (y, -params.delta * x + params.c * y + 1 / y)


# ---------------------------------------------------------------------------
# homogeneous map step and the recurrence cell classifier
# ---------------------------------------------------------------------------

CLASS_NONRECURRENT = 0
CLASS_INDETERMINATE = 1
CLASS_RECURRENT = 2

_TINY2 = 1e-120  # squared-magnitude floor: an essentially exact [0:0:0] hit


def _norm2(t, x, y):
    """Squared norm |t|^2 + |x|^2 + |y|^2."""
    return (t.real * t.real + t.imag * t.imag
            + x.real * x.real + x.imag * x.imag
            + y.real * y.real + y.imag * y.imag)


def step(t, x, y, delta, c, n):
    """n map steps, each renormalized so the largest coordinate is 1.

    Returns (t, x, y, alive); alive is False once an image vanishes (an
    indeterminate hit), and the coordinates are then meaningless.
    """
    for _ in range(n):
        if t == 0:
            nt = 0j
            nx = y
            ny = -delta * x + c * y
        else:
            nt = t * y
            nx = y * y
            ny = -delta * x * y + c * y * y + t * t
        a2t = nt.real * nt.real + nt.imag * nt.imag
        a2x = nx.real * nx.real + nx.imag * nx.imag
        a2y = ny.real * ny.real + ny.imag * ny.imag
        m2 = a2t
        if a2x > m2:
            m2 = a2x
        if a2y > m2:
            m2 = a2y
        if m2 < _TINY2:
            return t, x, y, False
        if a2t == m2:
            piv = nt
        elif a2x == m2:
            piv = nx
        else:
            piv = ny
        t = nt / piv
        x = nx / piv
        y = ny / piv
    return t, x, y, True


def _dist2(t, x, y, t0, x0, y0, den0):
    """Squared projective distance to the start as (numerator, denominator).

    The numerator is |p x p0|^2, the denominator |p|^2 den0 with
    den0 = |p0|^2; callers compare num < eps^2 den without dividing.
    """
    c1 = x * y0 - y * x0
    c2 = y * t0 - t * y0
    c3 = t * x0 - x * t0
    num = (c1.real * c1.real + c1.imag * c1.imag
           + c2.real * c2.real + c2.imag * c2.imag
           + c3.real * c3.real + c3.imag * c3.imag)
    return num, _norm2(t, x, y) * den0


def _classify_cell(t, x, y, delta, c, n, candidates, eps2):
    """Classify one start point; returns (class, step).

    step is the return time for a recurrent cell, the n-fold step that hit
    an indeterminate image, or -1 (non-recurrent, or dead at the start).
    """
    m2 = max(t.real * t.real + t.imag * t.imag,
             x.real * x.real + x.imag * x.imag,
             y.real * y.real + y.imag * y.imag)
    if m2 < _TINY2:
        return CLASS_INDETERMINATE, -1
    t0, x0, y0 = t, x, y
    den0 = _norm2(t0, x0, y0)
    h = 0
    for target in candidates:
        while h < target:
            t, x, y, alive = step(t, x, y, delta, c, n)
            if not alive:
                return CLASS_INDETERMINATE, h
            h += 1
        num, den = _dist2(t, x, y, t0, x0, y0, den0)
        if num < eps2 * den:
            return CLASS_RECURRENT, target
    return CLASS_NONRECURRENT, -1


# ---------------------------------------------------------------------------
# invariant-line orbit and its identities
# ---------------------------------------------------------------------------

def orbit_identities(params):
    """Residuals of the pairing and product identities of the line orbit.

    Checks w_j w_{n-1-j} = delta for 1 <= j <= n-2, and the product
    w_1 ... w_{n-2} = delta^((n-2)/2) for even n, or delta^((n-3)/2) w_mid
    with w_mid^2 = delta for odd n.
    """
    with workprec(params.precision_bits):
        n, d = params.n, params.delta
        w = params.orbit
        pair_res = mpf(0)
        for jj in range(1, n - 1):
            pair_res = max(pair_res, abs(w[jj - 1] * w[n - 1 - jj - 1] - d))
        prod = mpc(1)
        for jj in range(1, n - 1):
            prod *= w[jj - 1]
        if n % 2 == 0:
            prod_res = abs(prod - d ** ((n - 2) // 2))
            mid_res = mpf(0)
        else:
            prod_res = abs(prod - d ** ((n - 3) // 2) * params.orbit_mid)
            mid_res = abs(params.orbit_mid ** 2 - d)
        return {
            "pairing_residual": pair_res,
            "product_residual": prod_res,
            "midpoint_residual": mid_res,
            "max_residual": max(pair_res, prod_res, mid_res),
        }


# ---------------------------------------------------------------------------
# fixed points and multipliers
# ---------------------------------------------------------------------------

def fixed_points(params):
    """The two isolated affine fixed points (y, y), y = +-(1+delta-c)^(-1/2)."""
    with workprec(params.precision_bits):
        base = 1 + params.delta - params.c
        if abs(base) < params.tolerance:
            raise RsadynError("1 + delta - c = 0 is degenerate")
        y = 1 / sqrt(base)
        return ((y, y), (-y, -y))


@dataclass(frozen=True)
class MultiplierData:
    """Multipliers at an affine fixed point, with the determinant of the
    Jacobian of map_affine there and its eigenvalues' distance from them."""

    fixed_point: tuple
    lambda1: object
    lambda2: object
    unit_modulus: bool
    rank2_criterion: bool
    jacobian_det: object
    jacobian_residual: object


def multipliers_at_fixed(params, fp):
    """Closed-form multipliers at an affine fixed point, checked on map_affine.

    lambda_{1,2} = -((1+delta)/2 - c) +- sqrt(-delta + ((1+delta)/2 - c)^2);
    the product is delta. The same values must match the eigenvalues of the
    Jacobian of map_affine, taken by central differences with step
    h = 2^(-bits/3), to 2^(-bits/4); raises RsadynError otherwise. The
    rank-2 criterion is |Re sqrt(delta) - 2 cos(j pi/n)| <= 1 with the
    principal square root.
    """
    with workprec(params.precision_bits):
        d, c = params.delta, params.c
        x, y = mpc(fp[0]), mpc(fp[1])
        img = map_affine(params, (x, y))
        if max(abs(img[0] - x), abs(img[1] - y)) > 1000 * params.tolerance:
            raise ValidationError("supplied point is not fixed")

        half = (1 + d) / 2 - c
        root = sqrt(-d + half * half)
        lam1 = -half + root
        lam2 = -half - root

        # cols[i][k] = d f_k / d z_i by central differences (truncation and
        # rounding both about 2^(-2 bits/3)); eigenvalues matched by proximity
        h = mpf(2) ** (-(params.precision_bits // 3))
        cols = [[(p - q) / (2 * h) for p, q in zip(map_affine(params, plus),
                                                   map_affine(params, minus))]
                for plus, minus in (((x + h, y), (x - h, y)),
                                    ((x, y + h), (x, y - h)))]
        tr = cols[0][0] + cols[1][1]
        det = cols[0][0] * cols[1][1] - cols[1][0] * cols[0][1]
        disc = sqrt(tr * tr - 4 * det)
        e1 = (tr + disc) / 2
        e2 = (tr - disc) / 2
        res = min(max(abs(e1 - lam1), abs(e2 - lam2)),
                  max(abs(e1 - lam2), abs(e2 - lam1)))
        if res > tolerance_for(params.precision_bits // 2):
            raise RsadynError(
                "Jacobian eigenvalues disagree with closed-form multipliers "
                "by %s" % salem.mp_str(res))

        unit = (abs(abs(lam1) - 1) < params.tolerance ** mpf("0.25")
                and abs(abs(lam2) - 1) < params.tolerance ** mpf("0.25"))
        crit = abs(mpf(params.sqrt_delta.real)
                   - 2 * cos(mpf(params.j) * pi / params.n)) <= 1
        return MultiplierData(
            fixed_point=(x, y), lambda1=lam1, lambda2=lam2,
            unit_modulus=bool(unit), rank2_criterion=bool(crit),
            jacobian_det=det, jacobian_residual=res)


# ---------------------------------------------------------------------------
# Birkhoff-average linearization at a unit-modulus fixed point
# ---------------------------------------------------------------------------

def _eigenbasis(lam1, lam2):
    """Eigenvector matrix P of the fixed-point Jacobian, and its inverse.

    The Jacobian [[0, 1], [-delta, c - 1/y^2]] of map_affine at a fixed point
    is in companion form, so (1, lam_k) is an eigenvector for the multiplier
    lam_k. Each column is scaled to unit length; the inverse is the 2x2
    closed form. Both come back as row tuples of complex.
    """
    s1, s2 = hypot(1.0, abs(lam1)), hypot(1.0, abs(lam2))
    gap = lam2 - lam1
    pmat = ((1 / s1, 1 / s2), (lam1 / s1, lam2 / s2))
    pinv = ((s1 * lam2 / gap, -s1 / gap), (-s2 * lam1 / gap, s2 / gap))
    return pmat, pinv


def _birkhoff_residuals(orbits, lams, n_values):
    """Residual r(N) of the averaged conjugacy for each N in n_values.

    orbits[s][k] is h^k(w_s) in eigencoordinates, for k <= max(n_values).
    Phi_N(w) = (1/N) sum_{k<N} A^-k h^k(w) with A = diag(lams), and r(N) is
    the largest |Phi_N(h(w)) - A Phi_N(w)| over samples and components. The
    sums run in orbit order.
    """
    n_max = max(n_values)
    worst = dict.fromkeys(n_values, 0.0)
    for orbit in orbits:
        for i, lam in enumerate(lams):
            weight, sum_z, sum_hz = 1.0 + 0.0j, 0j, 0j
            for k in range(1, n_max + 1):
                sum_z += weight * orbit[k - 1][i]
                sum_hz += weight * orbit[k][i]
                weight /= lam
                if k in worst:
                    worst[k] = max(worst[k],
                                   abs(sum_hz / k - lam * (sum_z / k)))
    return [worst[nval] for nval in n_values]


def birkhoff_linearize(params, mult, n_values=(1, 4, 16, 64, 256), seed=0):
    """Residual curve of the averaged conjugacy at mult.fixed_point.

    In eigencoordinates w at the fixed point, Phi_N = (1/N) sum A^-k h^k;
    the residual r(N) = max over samples |Phi_N(h(w)) - A Phi_N(w)| tends to
    0 when the samples sit in the rotation domain (the orbit stays bounded,
    and the sum telescopes to O(1/N)). The samples are drawn in the
    unit-normalised eigenbasis (1, lambda_k) of the multipliers that
    multipliers_at_fixed certified in mult, so they are not derived again.
    Samples whose orbit leaves a guard ball are dropped and reported; all
    dropping is an inconclusive error. Each N in n_values averages N
    iterates, so an empty n_values or an N < 1 raises ValidationError.

    Hardware precision: A is unitary up to rounding, the orbit is bounded,
    and residuals of interest are ~ ball_radius / N >> 1e-13.
    """
    if not n_values or min(n_values) < 1:
        raise ValidationError("n_values must be nonempty and positive")
    rng = random.Random(seed)
    n_samples, ball_radius = 24, 1e-3
    if not mult.rank2_criterion:
        raise ValidationError("fixed point fails the rank-2 criterion")

    lams = (complex(mult.lambda1), complex(mult.lambda2))
    ((p11, p12), (p21, p22)), ((q11, q12), (q21, q22)) = _eigenbasis(*lams)
    delta, c = complex(params.delta), complex(params.c)
    fx, fy = (complex(v) for v in mult.fixed_point)

    def h(w):
        x = p11 * w[0] + p12 * w[1] + fx
        y = p21 * w[0] + p22 * w[1] + fy
        u, v = y - fx, -delta * x + c * y + 1.0 / y - fy
        return (q11 * u + q12 * v, q21 * u + q22 * v)

    def norm(w):
        return hypot(w[0].real, w[0].imag, w[1].real, w[1].imag)

    n_max = max(n_values)
    guard = 50.0 * ball_radius
    orbits = []
    dropped = 0
    for _ in range(n_samples):
        w = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
             complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        scale = max(1.0, norm(w) / ball_radius)
        w = (w[0] / scale, w[1] / scale)
        orbit = [w]
        for _ in range(n_max + 1):
            w = h(w)
            if norm(w) > guard:
                dropped += 1
                break
            orbit.append(w)
        else:
            orbits.append(orbit)
    if not orbits:
        raise RsadynError("all Birkhoff samples escaped the guard ball")

    return {
        "n_values": list(n_values),
        "residuals": _birkhoff_residuals(orbits, lams, n_values),
        "dropped_samples": dropped,
        "multipliers": lams,
    }


def multiplicative_relation_search(lam1, lam2, bound, tol, precision_bits=256):
    """Smallest nonzero integer pair (p1, p2) with |lam1^p1 lam2^p2 - 1| < tol.

    Both inputs must have modulus 1 within tolerance. Pairs are enumerated in
    increasing |p1| + |p2| with the canonical sign (p1 > 0, or p1 = 0 and
    p2 > 0); relations come in +- pairs so the canonical representative is
    unique. Returns None when no relation exists within the bound: the
    falsification harness for multiplicative independence of the family's
    fixed-point multipliers.
    """
    with workprec(precision_bits):
        l1, l2 = mpc(lam1), mpc(lam2)
        for lam in (l1, l2):
            if abs(abs(lam) - 1) > mpf(10) ** (-10):
                raise ValidationError("relation search expects unit-modulus inputs")
        th1 = arg(l1) / (2 * pi)
        th2 = arg(l2) / (2 * pi)
        tol = mpf(tol)
        for norm in range(1, 2 * bound + 1):
            for p1 in range(0, min(norm, bound) + 1):
                p2abs = norm - p1
                if p2abs > bound:
                    continue
                choices = [p2abs] if p2abs == 0 else [p2abs, -p2abs]
                for p2 in choices:
                    if p1 == 0 and p2 <= 0:
                        continue
                    frac = th1 * p1 + th2 * p2
                    frac = frac - mp.floor(frac + mpf("0.5"))
                    if abs(2 * mp.sin(pi * frac)) < tol:
                        return (p1, p2)
    return None
