"""Arbitrary-precision complex plumbing shared across modules.

High-precision values are mpmath numbers or fixed-point Gaussian integers.
Operations that care about precision run inside ``workprec`` blocks keyed
by an explicit ``precision_bits`` argument, so results are reproducible
independent of the ambient mpmath context.

`GaussianFixed` is the fixed-point type: a complex number (re + i im) 2^-S
with Python-integer re and im and a binary scale S that the value carries.
Its scale rule: an operation on two values runs at the larger of their
scales, lifting the other operand exactly; an int operand is exact, and any
other number is rounded once to the value's scale. Sums are exact, and
products and quotients round once to the nearest multiple of 2^-S, ties up,
as (x + 2^(S-1)) >> S. `shift_round`, `exact_parts` and `fixed_parts` are
the integer steps it shares with the series engine. `fixed_scale` picks a
scale for a set of points: fixed point holds absolute precision, so a
small point needs extra bits to keep its relative precision.
"""

import math

from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import from_float, from_man_exp, mpf_sqrt

from .errors import ValidationError

MIN_PRECISION = 64


def check_precision(bits):
    if bits < MIN_PRECISION:
        raise ValidationError("precision_bits must be >= %d, got %r"
                              % (MIN_PRECISION, bits))
    return int(bits)


def tolerance_for(bits):
    """Default residual tolerance 2**(-bits/2) as an mpf."""
    with workprec(bits):
        return mpf(2) ** (-(bits // 2))


def dps_for(bits):
    """Decimal digits that faithfully carry a ``bits``-bit mantissa."""
    return int(bits / 3.3219280948873626) + 5


def mpc_to_json(z, bits):
    """Serialize one complex value to {re, im} decimal strings."""
    d = dps_for(bits)
    with workprec(bits):
        zz = mpc(z)
        return {"re": mp.nstr(zz.real, d, strip_zeros=False),
                "im": mp.nstr(zz.imag, d, strip_zeros=False)}


def proj_distance(p, q):
    """Fubini-Study-style projective distance |p x q| / (|p| |q|).

    Works for 2- and 3-component tuples; smooth, chart-free and zero exactly
    on projective equality.
    """
    if len(p) == 2:
        cross_sq = abs(p[0] * q[1] - p[1] * q[0]) ** 2
    else:
        c1 = p[1] * q[2] - p[2] * q[1]
        c2 = p[2] * q[0] - p[0] * q[2]
        c3 = p[0] * q[1] - p[1] * q[0]
        cross_sq = abs(c1) ** 2 + abs(c2) ** 2 + abs(c3) ** 2
    np2 = sum(abs(c) ** 2 for c in p)
    nq2 = sum(abs(c) ** 2 for c in q)
    from mpmath import sqrt
    return sqrt(cross_sq / (np2 * nq2))


def mat2_mul(a, b):
    """Product of two 2x2 matrices given as nested row tuples."""
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def mat2_pow(m, k):
    """m^k for k >= 0 by binary powering (mpc identity for k = 0)."""
    out = ((mpc(1), mpc(0)), (mpc(0), mpc(1)))
    base = m
    while k:
        if k & 1:
            out = mat2_mul(out, base)
        base = mat2_mul(base, base)
        k >>= 1
    return out


def totient(k):
    """Euler's phi via trial factorization (small k only)."""
    result = k
    p = 2
    n = k
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def unconditional_cyclotomic_bound(degree):
    """Largest k with phi(k) <= degree.

    Any cyclotomic factor of a degree-d integer polynomial has order k with
    phi(k) <= d, so sweeping k up to this bound is an unconditional
    root-of-unity certificate. phi(k) >= sqrt(k/2) gives the scan cap.
    """
    cap = max(16, 2 * degree * degree + 1)
    best = 1
    for k in range(1, cap + 1):
        if totient(k) <= degree:
            best = k
    return best


def fit_slope(xs, ys):
    """Least-squares slope of ys against xs, None when every x is equal."""
    nn, sx, sy = len(xs), sum(xs), sum(ys)
    sxx, sxy = sum(x * x for x in xs), sum(x * y for x, y in zip(xs, ys))
    denom = nn * sxx - sx * sx
    return (nn * sxy - sx * sy) / denom if denom != 0 else None


def float_log2(x):
    """log2 of a positive mpf as a python float (for reporting)."""
    try:
        return float(mp.log(x, 2))
    except (ValueError, ZeroDivisionError):
        return -math.inf


def shift_round(x, s):
    """x * 2^-s on integers, rounded to nearest (ties up) when s > 0."""
    if s > 0:
        return (x + (1 << (s - 1))) >> s
    return x << -s


def _mpf_exact(t):
    """(num, e) with num * 2^-e equal to the mpf tuple t, e >= 0."""
    sign, man, exp, _ = t
    if not man:
        if exp:
            raise ValidationError("fixed-point values must be finite")
        return 0, 0
    if sign:
        man = -man
    return (man << exp, 0) if exp >= 0 else (man, -exp)


def _real_exact(x):
    if isinstance(x, int):
        return int(x), 0
    return _mpf_exact(x._mpf_ if hasattr(x, "_mpf_") else from_float(x))


def exact_parts(v):
    """(re, im, e) with (re + i im) 2^-e equal to the number v, e >= 0."""
    if isinstance(v, GaussianFixed):
        return v.re, v.im, v.scale
    if hasattr(v, "_mpc_"):
        (re, er), (im, ei) = (_mpf_exact(t) for t in v._mpc_)
    elif hasattr(v, "_mpf_") or isinstance(v, (int, float, complex)):
        (re, er), (im, ei) = _real_exact(v.real), _real_exact(v.imag)
    else:
        return exact_parts(mpc(v))
    e = max(er, ei)
    return re << (e - er), im << (e - ei), e


def fixed_parts(v, scale):
    """The number v as a Gaussian integer at scale 2^-scale, rounded once."""
    re, im, e = exact_parts(v)
    return shift_round(re, e - scale), shift_round(im, e - scale)


def fixed_scale(bits, points):
    """Fixed-point scale that keeps `bits` significant bits on every point:
    bits, plus the binary exponent of the smallest point below 1/2."""
    return bits + max(0, max(-mp.frexp(abs(z))[1] for z in points))


class GaussianFixed:
    """The complex number (re + i im) 2^-scale, re and im Python integers.

    Arithmetic follows the module's scale rule; a product of two real
    values takes one integer multiply. `.real` and `.imag` are real values
    of the type at the same scale. `==`, and `<` and `>` between real
    values, compare exactly, never rounding the other operand: against the
    type, int, float (through `float.as_integer_ratio`) and any number
    `exact_parts` reads. `abs` gives an mpf and `mpc(value)` an mpc, each
    rounded once at mp.prec. Values are not hashable; treat them as
    immutable. Root isolation in `salem` and the precision-doubling mirror
    `probes.classify_point_mp` (the kernels' cell classifier, unchanged)
    compute on it.
    """

    __slots__ = ("re", "im", "scale")

    def __init__(self, re, im, scale):
        self.re = re
        self.im = im
        self.scale = scale

    @classmethod
    def from_number(cls, v, scale):
        """v rounded once to the nearest multiple of 2^-scale, scale >= 1."""
        if scale < 1:
            raise ValidationError("fixed-point scale must be >= 1, got %r"
                                  % (scale,))
        return cls(*fixed_parts(v, scale), scale)

    @property
    def real(self):
        return GaussianFixed(self.re, 0, self.scale)

    @property
    def imag(self):
        return GaussianFixed(self.im, 0, self.scale)

    @property
    def _mpc_(self):
        prec = mp.prec
        return (from_man_exp(self.re, -self.scale, prec, "n"),
                from_man_exp(self.im, -self.scale, prec, "n"))

    def __repr__(self):
        return "GaussianFixed(%d, %d, %d)" % (self.re, self.im, self.scale)

    def _aligned(self, o):
        """(a, b, c, d, s): both operands' parts at the larger scale s."""
        if o.__class__ is not GaussianFixed:
            o = GaussianFixed.from_number(o, self.scale)
        s, t = self.scale, o.scale
        if s == t:
            return self.re, self.im, o.re, o.im, s
        if s > t:
            return self.re, self.im, o.re << (s - t), o.im << (s - t), s
        return self.re << (t - s), self.im << (t - s), o.re, o.im, t

    def __add__(self, o):
        if o.__class__ is int:
            return GaussianFixed(self.re + (o << self.scale), self.im,
                                 self.scale)
        a, b, c, d, s = self._aligned(o)
        return GaussianFixed(a + c, b + d, s)

    __radd__ = __add__

    def __sub__(self, o):
        if o.__class__ is int:
            return GaussianFixed(self.re - (o << self.scale), self.im,
                                 self.scale)
        a, b, c, d, s = self._aligned(o)
        return GaussianFixed(a - c, b - d, s)

    def __rsub__(self, o):
        return -self + o

    def __neg__(self):
        return GaussianFixed(-self.re, -self.im, self.scale)

    def __mul__(self, o):
        if o.__class__ is int:
            return GaussianFixed(self.re * o, self.im * o, self.scale)
        if o.__class__ is not GaussianFixed:
            o = GaussianFixed.from_number(o, self.scale)
        # (ac - bd) 2^-(s + t) at the larger scale: shift by the smaller;
        # three products, ad + bc = (a + b)(c + d) - ac - bd, or one when
        # both values are real (then the imaginary part rounds to 0)
        s, t = self.scale, o.scale
        if s < t:
            s, t = t, s
        a, b, c, d = self.re, self.im, o.re, o.im
        half = 1 << (t - 1)
        if not (b or d):
            return GaussianFixed((a * c + half) >> t, 0, s)
        ac, bd = a * c, b * d
        return GaussianFixed((ac - bd + half) >> t,
                             ((a + b) * (c + d) - ac - bd + half) >> t, s)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if o.__class__ is not GaussianFixed:
            o = GaussianFixed.from_number(o, self.scale)
        # (a + ib)/(c + id) = (a + ib)(c - id)/n, n = c^2 + d^2, brought to
        # the larger scale s; floor((2x + n) / 2n) rounds x/n ties up
        a, b, c, d = self.re, self.im, o.re, o.im
        s = max(self.scale, o.scale)
        k = s - self.scale + o.scale + 1
        n = c * c + d * d
        return GaussianFixed((((a * c + b * d) << k) + n) // (2 * n),
                             (((b * c - a * d) << k) + n) // (2 * n), s)

    def __rtruediv__(self, o):
        if o.__class__ is int:
            return GaussianFixed(o << self.scale, 0, self.scale) / self
        return GaussianFixed.from_number(o, self.scale) / self

    def __pow__(self, e):
        """self ** e through mpc at mp.prec, rounded back to the scale."""
        return GaussianFixed.from_number(mpc(self) ** e, self.scale)

    def __abs__(self):
        norm = from_man_exp(self.re * self.re + self.im * self.im,
                            -2 * self.scale)
        return mp.make_mpf(mpf_sqrt(norm, mp.prec, "n"))

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, o):
        if o.__class__ is GaussianFixed and o.scale == self.scale:
            return self.re == o.re and self.im == o.im
        if o.__class__ is int:
            return not self.im and self.re == o << self.scale
        if o.__class__ is float:
            if self.im or not math.isfinite(o):
                return False
            p, q = o.as_integer_ratio()
            return self.re * q == p << self.scale
        re, im, e = exact_parts(o)
        return (self.re << e == re << self.scale
                and self.im << e == im << self.scale)

    def _real_pair(self, o):
        """Integers (x, y) with x < y exactly when self < o, both real."""
        if o.__class__ is GaussianFixed and o.scale == self.scale:
            x, y, im = self.re, o.re, o.im
        elif o.__class__ is int:
            x, y, im = self.re, o << self.scale, 0
        elif o.__class__ is float:
            if not math.isfinite(o):
                raise ValidationError("fixed-point values must be finite")
            p, q = o.as_integer_ratio()
            x, y, im = self.re * q, p << self.scale, 0
        else:
            re, im, e = exact_parts(o)
            x, y = self.re << e, re << self.scale
        if self.im or im:
            raise TypeError("GaussianFixed ordering needs real values")
        return x, y

    def __lt__(self, o):
        x, y = self._real_pair(o)
        return x < y

    def __gt__(self, o):
        x, y = self._real_pair(o)
        return x > y

    __hash__ = None
