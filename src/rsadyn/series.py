"""Truncated bivariate series, resonance bookkeeping, and linearization.

Series are immutable dicts (i, j) -> coefficient, truncated at a total
degree; absent keys are zero. No operation writes into a series, so series
share coefficient dicts freely. Each coefficient is a Gaussian integer
(re, im) at a binary scale 2^-F carried by the series, and every operation
runs on Python integers. At creation F = max(mp.prec + 64, the fractional
bits each given coefficient needs to be held exactly), so no given
coefficient is lost; an operation runs at the largest of its operands'
scales and mp.prec + 64, lifting a lower-scale operand exactly. Sums are
exact; each coefficient of a product is summed exactly and rounded once to
the nearest multiple of 2^-F, and a scalar is taken to the scale once per
operation. Reading a coefficient (`s[key]`, the `coeffs` view, `to_json`)
gives the mpc of its `GaussianFixed`, rounded to mp.prec. 1/f of a unit is
one pass of the coefficient recurrence g_k = -(1/f_0) sum_{0<a<=k} f_a
g_(k-a) in degree order, 1/f_0 being `GaussianFixed`'s. Composition is
nested Horner, f o g = sum_i g1^i (sum_j f_ij g2^j).

The return maps of the automorphism at its distinguished fixed points run
n fiber-chart steps on series in one driver, `_chart_steps`, every
denominator inverted as a unit series; the corner map steps with
`blowup.level2_step`, the same chart arithmetic as the pointwise map, and
the line-point map is centred at the fixed point sqrt(delta) e^(i pi j/n)
of the line map, which f fixes, so it takes no base point. The conjugacy
to the diagonal linear part is solved order by order on a running
composition Phi o H, dividing each coefficient by eta1^i eta2^j - eta_k
and treating exactly-resonant monomials by the vanishing-forcing/
obstruction dichotomy; the solve stops at the degree of the first
obstruction.
"""

import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from types import MappingProxyType

from mpmath import expjpi, mp, mpc, mpf, workprec

from .blowup import build_linear_model, level2_step
from .errors import RsadynError, ValidationError
from .numeric import (GaussianFixed, exact_parts, fit_slope, fixed_parts,
                      mpc_to_json, shift_round, tolerance_for)


def _guard_scale():
    """Fractional bits every operation keeps at least: 64 guard bits."""
    return mp.prec + 64


class BivariateSeries:
    """Truncated power series in two variables on fixed-point Gaussian
    integers: the coefficient of x^i y^j is (re + i im) 2^-scale.

    Immutable: no item assignment, a read-only `coeffs` view, and no
    write to `trunc`, `scale` or `_c` after `__init__` or `_raw`, which
    keeps the dict it is given uncopied.
    """

    __slots__ = ("trunc", "scale", "_c")

    def __init__(self, trunc, coeffs=None):
        self.trunc = int(trunc)
        exact = [(k, exact_parts(v)) for k, v in (coeffs or {}).items()
                 if k[0] + k[1] <= self.trunc]
        self.scale = max([_guard_scale()] + [e for _, (_, _, e) in exact])
        self._c = {k: (re << (self.scale - e), im << (self.scale - e))
                   for k, (re, im, e) in exact if re or im}

    @classmethod
    def _raw(cls, trunc, scale, c):
        out = cls.__new__(cls)
        out.trunc, out.scale, out._c = trunc, scale, c
        return out

    @classmethod
    def constant(cls, trunc, value):
        return cls(trunc, {(0, 0): value})

    @classmethod
    def variable(cls, trunc, which):
        key = (1, 0) if which == 0 else (0, 1)
        return cls(trunc, {key: 1})

    def _at(self, scale):
        """The coefficient dict lifted (exactly) to a scale >= self.scale."""
        s = scale - self.scale
        if not s:
            return self._c
        return {k: (re << s, im << s) for k, (re, im) in self._c.items()}

    def _value(self, pair):
        # mpc(x) would evaluate the x._mpc_ property twice
        return mp.make_mpc(GaussianFixed(*pair, self.scale)._mpc_)

    def __getitem__(self, key):
        pair = self._c.get(key)
        return mpc(0) if pair is None else self._value(pair)

    @property
    def coeffs(self):
        """Read-only view {(i, j): mpc}, each rounded to mp.prec."""
        return MappingProxyType({k: self._value(v)
                                 for k, v in self._c.items()})

    def __add__(self, other):
        if not isinstance(other, BivariateSeries):
            other = BivariateSeries.constant(self.trunc, other)
        trunc = min(self.trunc, other.trunc)
        scale = max(self.scale, other.scale, _guard_scale())
        acc = {k: v for k, v in self._at(scale).items()
               if k[0] + k[1] <= trunc}
        for k, (re, im) in other._at(scale).items():
            if k[0] + k[1] <= trunc:
                if k in acc:
                    are, aim = acc[k]
                    re, im = are + re, aim + im
                acc[k] = (re, im)
        return BivariateSeries._raw(trunc, scale, {
            k: v for k, v in acc.items() if v[0] or v[1]})

    def __neg__(self):
        return BivariateSeries._raw(self.trunc, self.scale, {
            k: (-re, -im) for k, (re, im) in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BivariateSeries):
            scale = max(self.scale, _guard_scale())
            sr, si = fixed_parts(other, scale)
            out = {}
            for k, (re, im) in self._c.items():
                re, im = (shift_round(re * sr - im * si, self.scale),
                          shift_round(re * si + im * sr, self.scale))
                if re or im:
                    out[k] = (re, im)
            return BivariateSeries._raw(self.trunc, scale, out)
        trunc = min(self.trunc, other.trunc)
        scale = max(self.scale, other.scale, _guard_scale())
        width = trunc + 1
        # flat index i * width + j adds over a product: j1 + j2 <= trunc
        right = sorted(((i + j, i * width + j, re, im)
                        for (i, j), (re, im) in other._c.items()
                        if i + j <= trunc))
        count = [0] * (trunc + 1)
        for deg, _, _, _ in right:
            count[deg] += 1
        upto = list(accumulate(count))  # upto[d]: right terms of degree <= d
        right = [t[1:] for t in right]
        acc_re = [0] * (width * width)
        acc_im = [0] * (width * width)
        for (i1, j1), (ar, ai) in self._c.items():
            room = trunc - i1 - j1
            if room < 0:
                continue
            p1 = i1 * width + j1
            for p2, br, bi in right[:upto[room]]:
                p = p1 + p2
                acc_re[p] += ar * br - ai * bi
                acc_im[p] += ar * bi + ai * br
        s = self.scale + other.scale - scale
        out = {}
        for p in range(width * width):
            re, im = acc_re[p], acc_im[p]
            if re or im:
                re, im = shift_round(re, s), shift_round(im, s)
                if re or im:
                    out[divmod(p, width)] = (re, im)
        return BivariateSeries._raw(trunc, scale, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def max_abs(self):
        if not self._c:
            return mpf(0)
        return abs(self._value(max(self._c.values(),
                                   key=lambda v: v[0] * v[0] + v[1] * v[1])))

    def to_json(self, bits):
        keys = sorted(self._c, key=lambda k: (k[0] + k[1], k))
        with workprec(bits):
            return {"%d,%d" % k: mpc_to_json(self[k], bits) for k in keys}

    def __repr__(self):
        return "BivariateSeries(trunc=%d, nterms=%d)" % (self.trunc,
                                                         len(self._c))


def inverse_unit(f):
    """1/f for a series with nonzero constant term, by one recurrence pass.

    With g = 1/f, the coefficient of x^i y^j in f g vanishes for i + j > 0,
    so g_(0,0) = 1/f_(0,0) and, in degree order,
    g_(i,j) = -(1/f_(0,0)) sum over (a, b) != (0, 0) of f_(a,b) g_(i-a,j-b),
    the sum taken exactly and rounded once. Purely formal, no convergence
    claim.
    """
    scale = max(f.scale, _guard_scale())
    coeffs = f._at(scale)
    if (0, 0) not in coeffs:
        raise RsadynError("cannot invert a series with zero constant term")
    inv = 1 / GaussianFixed(*coeffs[(0, 0)], scale)
    inv_r, inv_i = inv.re, inv.im
    rest = sorted((a + b, a, b, re, im) for (a, b), (re, im) in coeffs.items()
                  if (a, b) != (0, 0) and a + b <= f.trunc)
    g = {(0, 0): (inv_r, inv_i)}
    for deg in range(1, f.trunc + 1):
        for i in range(deg + 1):
            j = deg - i
            tr = ti = 0
            for dab, a, b, fr, fi in rest:
                if dab > deg:
                    break
                gk = g.get((i - a, j - b))
                if gk is not None:
                    gr, gi = gk
                    tr += fr * gr - fi * gi
                    ti += fr * gi + fi * gr
            if tr or ti:
                re = shift_round(ti * inv_i - tr * inv_r, 2 * scale)
                im = shift_round(-tr * inv_i - ti * inv_r, 2 * scale)
                if re or im:
                    g[(i, j)] = (re, im)
    return BivariateSeries._raw(f.trunc, scale, g)


def series_compose(f, g_pair):
    """f(g1, g2) for series g1, g2 with zero constant term.

    Nested Horner, f o g = sum_i g1^i (sum_j f_ij g2^j): the powers of g2
    are formed once, and since g1^i starts at degree i, the recurrence in
    g1 keeps only the degrees <= trunc - i at step i.
    """
    g1, g2 = g_pair
    for g in (g1, g2):
        if g[(0, 0)] != 0:
            raise RsadynError(
                "composition target has nonzero constant term")
    trunc = min(f.trunc, g1.trunc, g2.trunc)
    rows = {}
    for (i, j), v in f.coeffs.items():
        if i + j <= trunc:
            rows.setdefault(i, []).append((j, v))
    pow2 = [BivariateSeries.constant(trunc, 1)]
    for _ in range(max((j for row in rows.values() for j, _ in row),
                       default=0)):
        pow2.append(pow2[-1] * g2)
    top = max(rows, default=0)
    acc = BivariateSeries(trunc - top)
    for i in range(top, -1, -1):
        # acc is known through degree trunc - i - 1; times g1 (no constant
        # term) its unknown part lands above trunc - i
        acc = BivariateSeries._raw(trunc - i, acc.scale, acc._c)
        acc = acc * g1
        for j, v in rows.get(i, ()):
            acc = acc + pow2[j] * v
    return acc


def compose_pair(f_pair, g_pair):
    return (series_compose(f_pair[0], g_pair), series_compose(f_pair[1], g_pair))


# ---------------------------------------------------------------------------
# resonance classes of monomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResonanceClass:
    """Primitive multiplicative relation eta1^a eta2^b = 1, a >= 0, b >= 1
    coprime. (0, 1) is eta2 = 1, the relation at a point of the invariant
    line."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 1:
            raise ValidationError("resonance exponents need a >= 0 and b >= 1")
        if math.gcd(self.a, self.b) != 1:
            raise ValidationError("resonance exponents must be coprime")

    def resonant_for(self, i, j, k):
        """Exact test: eta^(i,j) = eta_k forced by the relation lattice.

        With (a, b) primitive and the etas otherwise independent, the
        relation group is generated by (a, b); so the divisor vanishes
        exactly when (i, j) - e_k is a positive multiple of (a, b), which
        for coprime a, b is a positive point on the line di b = dj a.
        """
        di, dj = (i - 1, j) if k == 1 else (i, j - 1)
        return di >= 0 and dj > 0 and di * self.b == dj * self.a


MONOMIAL_MAIN = "main"            # strictly above the resonant line
MONOMIAL_UPPER = "upper-only"     # in the closed upper region, not main
MONOMIAL_RESONANT = "resonant-line"
MONOMIAL_OUTSIDE = "outside"


def classify_monomial(i, j, rc, k=1):
    """Place the monomial x^i y^j relative to the coordinate-k regions.

    For k = 1 (ratio r = a/b): main region i > r j + 1 strictly; upper
    region i >= r (j - 1); resonant line i = r j + 1 with j >= 1, which is
    `rc.resonant_for`. For k = 2 the roles of the exponents and of a, b
    swap.
    """
    if i < 0 or j < 0:
        raise ValidationError("exponents must be nonnegative")
    if k not in (1, 2):
        raise ValidationError("k must be 1 or 2")
    if rc.resonant_for(i, j, k):
        return MONOMIAL_RESONANT
    a, b = rc.a, rc.b
    if k == 2:
        i, j, a, b = j, i, b, a
    if (i - 1) * b > a * j:
        return MONOMIAL_MAIN
    if i * b >= a * (j - 1):
        return MONOMIAL_UPPER
    return MONOMIAL_OUTSIDE


# ---------------------------------------------------------------------------
# return maps of the automorphism
# ---------------------------------------------------------------------------

def _assert_small_const(f, floor, what):
    c = f[(0, 0)]
    if abs(c) >= floor:
        raise RsadynError("%s picked up a constant term %s"
                          % (what, mp.nstr(abs(c), 6)))
    return BivariateSeries._raw(f.trunc, f.scale, {
        k: v for k, v in f._c.items() if k != (0, 0)})


def _chart_steps(params, trunc, step, what):
    """The image of the identity pair under the n chart steps
    step(s, a, b), s = 0 .. n-1. Each image must fix the origin up to
    params.tolerance; its constant term is checked, then dropped.
    """
    cur = (BivariateSeries.variable(trunc, 0),
           BivariateSeries.variable(trunc, 1))
    for s in range(params.n):
        cur = tuple(_assert_small_const(f, params.tolerance, what)
                    for f in step(s, *cur))
    return cur


def corner_return_map(params, trunc):
    """The n-step return map at the corner of the level-1/level-2 fibers.

    Runs `blowup.level2_step` n times on truncated series in the corner
    coordinates (xi, x), dividing by the unit-series inverse of each
    denominator. Returns (H, report): H is the series pair with linear
    part diag(lambda^2, 1/lambda); the report carries the linear-part
    residual, the largest resonant-line coefficient of the first coordinate
    (vanishing exactly when c is a legitimate family parameter), and the
    class inventory of the remainder, which must lie in
    (main + resonant-line) x upper for the (1, 2) resonance.

    The ideal pair is the blowup tree's corner (lambda^2, 1/lambda). On the
    parameter locus (|w_{n-1}| within tolerance, as `build_params` demands)
    the linear part must match it and "eta" reports it; off the locus the
    second multiplier moves, so "eta" is the computed diagonal.
    """
    if trunc < 4:
        raise ValidationError("need truncation degree >= 4")
    with workprec(params.precision_bits):
        h1, h2 = _chart_steps(params, trunc, partial(
            level2_step, params, div=lambda a, b: a * inverse_unit(b)),
            "corner chart step")
        corner = build_linear_model(params).find("e1_x_e2")
        ideal = (corner.mult_along, corner.mult_normal)
        on_locus = abs(params.orbit[-1]) <= params.tolerance
        check_tol = tolerance_for(params.precision_bits // 2)
        off_res = max(abs(h1[(0, 1)]), abs(h2[(1, 0)]))
        lin_res = max(abs(h1[(1, 0)] - ideal[0]), abs(h2[(0, 1)] - ideal[1]),
                      off_res)
        if off_res > check_tol or (on_locus and lin_res > check_tol):
            raise RsadynError(
                "corner linear part differs from diag(lambda^2, 1/lambda) "
                "by %s" % mp.nstr(lin_res, 6))
        eta1, eta2 = ideal if on_locus else (h1[(1, 0)], h2[(0, 1)])

        rc = ResonanceClass(1, 2)
        resonant_max = mpf(0)
        for (i, j), v in h1.coeffs.items():
            if (i, j) in ((1, 0), (0, 1)):
                continue
            cls = classify_monomial(i, j, rc, 1)
            if cls == MONOMIAL_RESONANT:
                resonant_max = max(resonant_max, abs(v))
            elif cls != MONOMIAL_MAIN and abs(v) > check_tol:
                raise RsadynError(
                    "first coordinate monomial %r of size %s outside "
                    "main+resonant" % ((i, j), mp.nstr(abs(v), 6)))
        for (i, j), v in h2.coeffs.items():
            if (i, j) in ((1, 0), (0, 1)):
                continue
            if classify_monomial(i, j, rc, 1) not in (MONOMIAL_MAIN,
                                                      MONOMIAL_UPPER,
                                                      MONOMIAL_RESONANT) \
                    and abs(v) > check_tol:
                raise RsadynError(
                    "second coordinate monomial %r of size %s outside the "
                    "upper region" % ((i, j), mp.nstr(abs(v), 6)))

        report = {
            "linear_residual": lin_res,
            "eta": (eta1, eta2),
            "max_resonant_coefficient": resonant_max,
            "resonance": rc,
        }
        return (h1, h2), report


def infinity_return_map(params, trunc):
    """The n-step return map at the line point [0 : 1 : w0].

    w0 = sqrt(delta) e^(i pi j/n) is the fixed point of the line map
    g(w) = c - delta/w, so f fixes the point and each of the n chart steps
    is centred at w0. The blown-up points lie on the real line through
    sqrt(delta) and |delta| = 1, so w0 is at least sin(pi j/n) from each.
    Coordinates (t, xi) with the point at the origin; the line is {t = 0}
    and is fixed pointwise, so H(t, xi) = (lambda t + O(t^2), xi + O(t^2)).
    The report records w0 as "basepoint" and the residuals of that
    structure against the multipliers "eta", the blowup tree's root
    (lambda, 1), and their exact relation "resonance" = eta2 = 1.
    """
    if trunc < 2:
        raise ValidationError("need truncation degree >= 2")
    with workprec(params.precision_bits):
        d = params.delta
        w0 = params.sqrt_delta * expjpi(mpf(params.j) / params.n)
        w0_const = BivariateSeries.constant(trunc, w0)
        xi_const = BivariateSeries.constant(trunc, params.c - w0)

        def line_step(_, a, b):
            iy = inverse_unit(b + w0_const)
            return a * iy, iy * (-d) + (a * a) * (iy * iy) + xi_const

        h1, h2 = _chart_steps(params, trunc, line_step, "line chart step")
        root = build_linear_model(params)
        check_tol = tolerance_for(params.precision_bits // 2)
        mult_res = abs(h1[(1, 0)] - root.mult_normal)
        low_res = mpf(0)
        for (i, j), v in h1.coeffs.items():
            if i <= 1 and (i, j) != (1, 0):
                low_res = max(low_res, abs(v))
        for (i, j), v in h2.coeffs.items():
            if i <= 1 and (i, j) != (0, 1):
                low_res = max(low_res, abs(v))
        id_res = abs(h2[(0, 1)] - root.mult_along)
        if mult_res > check_tol or low_res > check_tol or id_res > check_tol:
            raise RsadynError(
                "line return map lacks the (lambda t + O(t^2), xi + O(t^2)) "
                "structure: multiplier %s, low-order %s"
                % (mp.nstr(mult_res, 6), mp.nstr(low_res, 6)))
        report = {
            "multiplier_residual": mult_res,
            "low_order_residual": low_res,
            "line_identity_residual": id_res,
            "eta": (root.mult_normal, root.mult_along),
            "resonance": ResonanceClass(0, 1),
            "basepoint": w0,
        }
        return (h1, h2), report


# ---------------------------------------------------------------------------
# the order-by-order linearization solver
# ---------------------------------------------------------------------------

@dataclass
class LinearizationResult:
    """Outcome of the diagonal linearization solve.

    phi is the conjugacy pair, tangent to the identity. When obstruction is
    None, Phi o H - L o Phi has all coefficients below tolerance through the
    truncation degree. min_divisor is the smallest |eta^(i,j) - eta_k| over
    solved coefficients; divisor_exponent is the fitted mu in
    |divisor| ~ (i+j)^(-mu) (small-divisor monitoring); warnings list
    near-zero divisors that were not exact resonances.
    """

    phi: tuple
    min_divisor: object
    obstruction: object = None
    warnings: list = field(default_factory=list)
    divisor_exponent: object = None

    def to_json(self, bits):
        return {
            "phi": [p.to_json(bits) for p in self.phi],
            "min_divisor": mp.nstr(self.min_divisor, 17)
                           if self.min_divisor is not None else None,
            "obstruction": {
                "coordinate": self.obstruction[0],
                "monomial": list(self.obstruction[1]),
                "coefficient": mpc_to_json(self.obstruction[2], bits),
            } if self.obstruction else None,
            "warnings": [{"coordinate": k, "monomial": list(mono),
                          "divisor": mp.nstr(dv, 8)}
                         for (k, mono, dv) in self.warnings],
            "divisor_exponent": self.divisor_exponent,
        }


def linearize_diagonal(h_pair, eta1, eta2, trunc, rc, precision_bits=256):
    """Solve Phi o H = L o Phi order by order for diagonal L.

    H must fix the origin with linear part diag(eta1, eta2). Where the
    divisor eta1^i eta2^j - eta_k vanishes (exact resonance per the
    ResonanceClass rc): a forcing term below vanish_floor =
    2^(-precision_bits/4) sets the coefficient to zero (normal-form
    freedom); a larger forcing term is returned in-band as the obstruction.
    Non-resonant divisors below divisor_floor = 1e-40 are attached as
    small-divisor warnings. The forcing terms are read off a running
    composition Phi o H, extended by one row of products H1^i H2^j per
    degree, so the solve does no work past the degree of an obstruction.
    """
    with workprec(precision_bits):
        vanish_floor = tolerance_for(precision_bits // 2)
        divisor_floor = mpf(10) ** -40
        eta1, eta2 = mpc(eta1), mpc(eta2)
        h1, h2 = h_pair
        trunc = min(trunc, h1.trunc, h2.trunc)
        for h in (h1, h2):
            if h[(0, 0)] != 0:
                raise ValidationError("return map must fix the origin")
        lin_gap = max(abs(h1[(1, 0)] - eta1), abs(h2[(0, 1)] - eta2))
        if lin_gap > vanish_floor:
            raise ValidationError("linear part of H is not diag(eta1, eta2)")

        etapow = {}
        for i in range(trunc + 1):
            for j in range(trunc + 1 - i):
                etapow[(i, j)] = eta1 ** i * eta2 ** j

        phi = ({}, {})   # higher-order coefficients per coordinate
        min_divisor = None
        warnings = []
        obstruction = None
        fit_points = []

        # comp = Phi o H so far, starting from the identity part of Phi; its
        # degree-deg coefficients are the forcing terms of that degree.
        # row[j] = H1^(deg-j) H2^j, built from the previous degree's row
        comp = [h1, h2]
        row = [h1, h2]
        for deg in range(2, trunc + 1):
            row = [r * h1 for r in row] + [row[-1] * h2]
            for i in range(deg, -1, -1):
                j = deg - i
                key = (i, j)
                for k in (1, 2):
                    etak = eta1 if k == 1 else eta2
                    divisor = etapow[key] - etak
                    rhs = comp[k - 1][key]
                    if rc.resonant_for(i, j, k):
                        if abs(rhs) >= vanish_floor:
                            if obstruction is None:
                                obstruction = (k, key, rhs)
                        continue
                    if abs(divisor) < divisor_floor:
                        warnings.append((k, key, abs(divisor)))
                    coeff = -rhs / divisor
                    if coeff != 0:
                        phi[k - 1][key] = coeff
                        comp[k - 1] = comp[k - 1] + row[j] * coeff
                    admag = abs(divisor)
                    if min_divisor is None or admag < min_divisor:
                        min_divisor = admag
                    fit_points.append((math.log(i + j),
                                       -float(mp.log(admag))
                                       if admag > 0 else 0.0))
            if obstruction is not None:
                break

        mu = None
        if len(fit_points) >= 4 and obstruction is None:
            mu = fit_slope(*zip(*fit_points))

        phi1 = BivariateSeries(trunc, {(1, 0): mpc(1), **phi[0]})
        phi2 = BivariateSeries(trunc, {(0, 1): mpc(1), **phi[1]})
        return LinearizationResult(
            phi=(phi1, phi2),
            min_divisor=min_divisor,
            obstruction=obstruction,
            warnings=warnings,
            divisor_exponent=mu,
        )


def verify_conjugacy(h_pair, phi_pair, eta1, eta2, trunc, precision_bits=256):
    """Max coefficient modulus of Phi o H - L o Phi through the truncation."""
    with workprec(precision_bits):
        eta1, eta2 = mpc(eta1), mpc(eta2)
        left = compose_pair(phi_pair, h_pair)
        right = (phi_pair[0] * eta1, phi_pair[1] * eta2)
        diff1 = left[0] - right[0]
        diff2 = left[1] - right[1]
        worst = mpf(0)
        for f in (diff1, diff2):
            for (i, j), v in f.coeffs.items():
                if i + j <= trunc:
                    worst = max(worst, abs(v))
        return worst
